package core

import (
	"testing"

	"netmax/internal/policy"
	"netmax/internal/simnet"
)

// scriptedSource is a PolicySource that records what the engine reports
// and hands out policy pol at its first MaybeRegenerate at or after t0.
type scriptedSource struct {
	t0  float64
	pol *policy.Policy
	at  float64 // virtual time of the hand-out; -1 before it

	observed []observation
	liveness []membership
}

type observation struct {
	i, j int
	now  float64
}

type membership struct {
	alive []bool
	now   float64
}

func (s *scriptedSource) ObserveAt(i, j int, _, now float64) {
	s.observed = append(s.observed, observation{i, j, now})
}

func (s *scriptedSource) Heartbeat(int, float64) {}

func (s *scriptedSource) SetLiveness(alive []bool, now float64) {
	s.liveness = append(s.liveness, membership{append([]bool(nil), alive...), now})
}

func (s *scriptedSource) MaybeRegenerate(now float64) (*policy.Policy, bool) {
	if s.at >= 0 || now < s.t0 {
		return nil, false
	}
	s.at = now
	return s.pol, true
}

func (s *scriptedSource) Regenerations() int {
	if s.at >= 0 {
		return 1
	}
	return 0
}

// TestPolicySourceContract runs NetMax's nodes on a scripted source
// through a crash and a rejoin of worker 1. Every node must end on its row
// of the scripted policy P*, which puts 0.7 on each worker's successor,
// and on its ρ*; after the hand-out at least half of each worker's
// reported pulls name its successor; no report names a worker's own id;
// and the source hears both membership boundaries.
func TestPolicySourceContract(t *testing.T) {
	const m = 4
	T := Run(hetConfig(m, 4, 3), Options{TsSecs: 2}).TotalTime
	crash, rejoin := 0.3*T, 0.4*T
	p := make([][]float64, m)
	for i := range p {
		p[i] = make([]float64, m)
		for j := range p[i] {
			switch j {
			case i:
			case (i + 1) % m:
				p[i][j] = 0.7
			default:
				p[i][j] = 0.15
			}
		}
	}
	src := &scriptedSource{t0: 0.1 * T, pol: &policy.Policy{P: p, Rho: 1}, at: -1}
	if _, hi := policy.FeasibleRhoInterval(0.1); src.pol.Rho >= hi {
		t.Fatalf("ρ* = %v is not below the cap %v", src.pol.Rho, hi)
	}
	cfg := hetConfig(m, 4, 3)
	cfg.Failures = simnet.NewFailureSchedule().Crash(1, crash, rejoin)
	r, nodes := RunSource(cfg, src)
	if r.Epochs != 4 {
		t.Fatalf("%d epochs, want 4", r.Epochs)
	}
	if src.at < 0 {
		t.Fatal("the engine never asked the source for a policy after t0")
	}
	for i, n := range nodes {
		if row := n.Row(); &row[0] != &p[i][0] || n.rho != src.pol.Rho {
			t.Fatalf("worker %d ended on row %v and ρ %v, want %v and %v", i, row, n.rho, p[i], src.pol.Rho)
		}
	}
	pulls, succ := make([]int, m), make([]int, m)
	for _, o := range src.observed {
		if o.i == o.j {
			t.Fatalf("worker %d reported a pull from itself at t = %v", o.i, o.now)
		}
		if o.now < src.at {
			continue
		}
		pulls[o.i]++
		if o.j == (o.i+1)%m {
			succ[o.i]++
		}
	}
	t.Logf("hand-out at %.3f s of %.3f s; pulls after it %v, from the successor %v", src.at, r.TotalTime, pulls, succ)
	for i := range pulls {
		if pulls[i] == 0 || 2*succ[i] < pulls[i] {
			t.Fatalf("worker %d: %d of %d pulls after the hand-out name its successor", i, succ[i], pulls[i])
		}
	}
	if len(src.liveness) != 2 {
		t.Fatalf("%d membership reports, want the crash's and the rejoin's", len(src.liveness))
	}
	down, up := src.liveness[0], src.liveness[1]
	if down.alive[1] || down.now < crash || down.now >= rejoin {
		t.Fatalf("first report %v at %v, want worker 1 down at the crash at %v", down.alive, down.now, crash)
	}
	if !up.alive[1] || up.now < rejoin {
		t.Fatalf("second report %v at %v, want worker 1 back at the rejoin at %v", up.alive, up.now, rejoin)
	}
}
