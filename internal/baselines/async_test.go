package baselines

import (
	"math/rand"
	"reflect"
	"testing"

	"netmax/internal/core"
	"netmax/internal/engine"
	"netmax/internal/monitor"
	"netmax/internal/policy"
	"netmax/internal/simnet"
)

// liveAdj restricts an adjacency to the live workers. The uniform matrix
// rebuilt over it is the reference for a membership event.
func liveAdj(adj [][]bool, alive []bool) [][]bool {
	m := len(adj)
	out := make([][]bool, m)
	for i := range out {
		out[i] = make([]bool, m)
		for j := range out[i] {
			out[i][j] = adj[i][j] && alive[i] && alive[j]
		}
	}
	return out
}

// uniformAdjacencies are the selection graphs the uniform behaviors run
// on: AD-PSGD's fully connected and ring topologies, and SAPS-PSGD's fast
// subgraph of the paper cluster.
func uniformAdjacencies(m int, seed int64) map[string][][]bool {
	cfg := &engine.Config{Net: simnet.NewHeterogeneousPeriod(simnet.PaperCluster(m), seed, 1e6, 8)}
	return map[string][][]bool{
		"full": simnet.FullyConnected(m),
		"ring": simnet.Ring(m),
		"saps": sapsSubgraph(cfg),
	}
}

// TestUniformMaskMatchesRebuild drives AD-PSGD's behavior, bare and with
// SAPS-PSGD's share, through random membership sequences and requires Plan
// to pick, draw for draw on the same RNG stream, the peer that sampling
// the rebuilt live-subgraph uniform matrix picks. No live worker may
// select a departed peer, and a pull at a peer carries the behavior's own
// Coef and Share (a self pick carries only its Peer, see engine.Pull).
func TestUniformMaskMatchesRebuild(t *testing.T) {
	for _, m := range []int{4, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			for name, adj := range uniformAdjacencies(m, seed) {
				for _, share := range []float64{1, sapsSparsity} {
					var u engine.AsyncBehavior = core.NewADPSGD(adj, 0.1)
					if share != 1 {
						u = saps{u}
					}
					gen := rand.New(rand.NewSource(seed))
					alive := make([]bool, m)
					for event := 0; event < 30; event++ {
						for k := range alive {
							alive[k] = event%4 == 3 || gen.Float64() < 0.7 // every fourth event: all rejoin
						}
						u.OnMembership(alive, float64(event))
						ref := policy.Uniform(liveAdj(adj, alive))
						for i := 0; i < m; i++ {
							if !alive[i] {
								continue // the engine parks departed workers
							}
							s := gen.Int63()
							a, b := rand.New(rand.NewSource(s)), rand.New(rand.NewSource(s))
							for draw := 0; draw < 50; draw++ {
								p := u.Plan(i, float64(event), a)
								want := policy.Sample(ref[i], i, nil, b)
								if p.Peer != want {
									t.Fatalf("m=%d seed %d %s share %v event %d worker %d draw %d: masked pick %d, rebuilt pick %d (alive %v)",
										m, seed, name, share, event, i, draw, p.Peer, want, alive)
								}
								if p.Peer != i && !alive[p.Peer] {
									t.Fatalf("%s: worker %d selected departed peer %d (alive %v)", name, i, p.Peer, alive)
								}
								if p.Peer != i && (p.Coef != 0.5*share || p.Share != share || !p.TwoSided) {
									t.Fatalf("%s: pull %+v, want Coef %v, Share %v, two-sided", name, p, 0.5*share, share)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestUniformRejoinReadmitsPeer crashes worker 0, checks that its
// neighbors stop selecting it, then rejoins it and checks that each
// neighbor selects it again.
func TestUniformRejoinReadmitsPeer(t *testing.T) {
	const m = 6
	for name, adj := range uniformAdjacencies(m, 1) {
		b := core.NewADPSGD(adj, 0.1)
		rng := rand.New(rand.NewSource(9))
		alive := []bool{false, true, true, true, true, true}
		b.OnMembership(alive, 1)
		picks := func(i int) (zero int) {
			for draw := 0; draw < 400; draw++ {
				if b.Plan(i, 1, rng).Peer == 0 {
					zero++
				}
			}
			return zero
		}
		for i := 1; i < m; i++ {
			if !adj[i][0] {
				continue
			}
			if n := picks(i); n != 0 {
				t.Fatalf("%s: worker %d selected departed worker 0 %d times", name, i, n)
			}
		}
		alive[0] = true
		b.OnMembership(alive, 2)
		for i := 1; i < m; i++ {
			if adj[i][0] && picks(i) == 0 {
				t.Fatalf("%s: worker %d never selected rejoined worker 0", name, i)
			}
		}
	}
}

// departedPullCheck wraps a behavior and counts the pulls it plans at a
// worker the schedule has down at that instant.
type departedPullCheck struct {
	engine.AsyncBehavior
	fs     *simnet.FailureSchedule
	plans  int
	misses int
}

func (c *departedPullCheck) Plan(i int, now float64, rng *rand.Rand) engine.Pull {
	p := c.AsyncBehavior.Plan(i, now, rng)
	if !p.Wait {
		c.plans++
		if p.Peer != i && c.fs.Down(p.Peer, now) {
			c.misses++
		}
	}
	return p
}

// TestUniformRunsSkipDepartedPeers runs AD-PSGD, SAPS-PSGD and Hop on the
// engine through a crash, a rejoin and a leave: membership events reach
// each behavior, no pull is planned at a departed worker, and Hop's
// staleness gate does not wait for the worker that left, nor for a
// rejoining one to redo the iterations it missed.
func TestUniformRunsSkipDepartedPeers(t *testing.T) {
	cfg := hetConfig(4, 4, 3)
	dry := core.RunADPSGD(cfg)
	T := dry.TotalTime
	for name, b := range map[string]engine.AsyncBehavior{
		"AD-PSGD": core.NewADPSGD(cfg.Net.Topo.Adj, cfg.LR),
		"SAPS":    saps{core.NewADPSGD(sapsSubgraph(cfg), cfg.LR)},
		"Hop":     newHopAsync(cfg.Net.Topo.Adj, cfg.LR, 0),
	} {
		run := hetConfig(4, 4, 3)
		run.Failures = simnet.NewFailureSchedule().Crash(1, 0.2*T, 0.5*T).Leave(3, 0.6*T)
		c := &departedPullCheck{AsyncBehavior: b, fs: run.Failures}
		r := engine.RunAsync(run, c, name)
		if r.Epochs != 4 {
			t.Fatalf("%s: %d epochs, want 4", name, r.Epochs)
		}
		if c.plans == 0 || c.misses != 0 {
			t.Fatalf("%s: %d of %d pulls planned at a departed worker", name, c.misses, c.plans)
		}
	}

	h := newHopAsync(cfg.Net.Topo.Adj, cfg.LR, 0)
	copy(h.iters, []int{9, 3, 7, 8})
	h.inFlight[1] = true
	alive := []bool{true, false, true, true}
	h.OnMembership(alive, 1)
	alive[1] = true
	h.OnMembership(alive, 2)
	if h.iters[1] != 7 || h.inFlight[1] {
		t.Fatalf("Hop re-admitted worker 1 at %d iterations (in flight %v), want the slowest member's 7 and none in flight", h.iters[1], h.inFlight[1])
	}
}

// TestUniformRunsBuildNoMonitor runs SAPS-PSGD and Hop, AD-PSGD's wrappers,
// through a crash, a rejoin and a leave: each finishes every epoch, and the
// core behavior under each takes its policy from a source that is not a
// Network Monitor.
func TestUniformRunsBuildNoMonitor(t *testing.T) {
	T := core.RunADPSGD(hetConfig(4, 4, 3)).TotalTime
	cfg := hetConfig(4, 4, 3)
	for name, b := range map[string]engine.AsyncBehavior{
		"SAPS": saps{core.NewADPSGD(sapsSubgraph(cfg), cfg.LR)},
		"Hop":  newHopAsync(cfg.Net.Topo.Adj, cfg.LR, 0),
	} {
		run := hetConfig(4, 4, 3)
		run.Failures = simnet.NewFailureSchedule().Crash(1, 0.2*T, 0.5*T).Leave(3, 0.6*T)
		if r := engine.RunAsync(run, b, name); r.Epochs != 4 {
			t.Fatalf("%s: %d epochs, want 4", name, r.Epochs)
		}
		if holdsMonitor(b) {
			t.Fatalf("%s built a Network Monitor", name)
		}
	}
}

// holdsMonitor reports whether the core behavior inside b's wrappers takes
// its policy from a Network Monitor (its unexported src field holds a
// *monitor.Monitor).
func holdsMonitor(b engine.AsyncBehavior) bool {
	v := reflect.ValueOf(b)
	for {
		v = reflect.Indirect(v)
		if src := v.FieldByName("src"); src.IsValid() {
			return src.Elem().Type() == reflect.TypeOf((*monitor.Monitor)(nil))
		}
		v = v.FieldByName("AsyncBehavior").Elem()
	}
}
