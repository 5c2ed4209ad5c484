package policy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"netmax/internal/linalg"
	"netmax/internal/simnet"
)

// hetTimes builds an iteration-time matrix with one fast and several slow
// links per node, like Fig. 2 of the paper.
func hetTimes(m int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	t := make([][]float64, m)
	for i := range t {
		t[i] = make([]float64, m)
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			v := 1.0 + rng.Float64()*11 // 1..12s spread
			t[i][j] = v
			t[j][i] = v
		}
	}
	return t
}

func TestUniformPolicyRows(t *testing.T) {
	adj := simnet.FullyConnected(5)
	p := Uniform(adj)
	if err := feasible(p, 1, adj); err != nil {
		t.Fatal(err)
	}
	for i := range p {
		if p[i][i] != 0 {
			t.Fatalf("uniform self prob = %v", p[i][i])
		}
		for j := range p[i] {
			if i != j && math.Abs(p[i][j]-0.25) > 1e-12 {
				t.Fatalf("uniform p[%d][%d] = %v, want 0.25", i, j, p[i][j])
			}
		}
	}
}

func TestUniformPolicyIsolatedNode(t *testing.T) {
	adj := make([][]bool, 2)
	adj[0] = make([]bool, 2)
	adj[1] = make([]bool, 2)
	p := Uniform(adj)
	if p[0][0] != 1 || p[1][1] != 1 {
		t.Fatal("isolated nodes should self-select")
	}
}

func TestAvgIterTimesEq2(t *testing.T) {
	adj := simnet.FullyConnected(3)
	times := [][]float64{{0, 1, 9}, {1, 0, 2}, {9, 2, 0}}
	p := [][]float64{{0, 0.9, 0.1}, {0, 0.5, 0.5}, {0.2, 0.8, 0}}
	got := AvgIterTimes(p, times, adj)
	want := []float64{0.9*1 + 0.1*9, 0.5 * 2, 0.2*9 + 0.8*2}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("t[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestGlobalStepProbsEq3(t *testing.T) {
	got := GlobalStepProbs([]float64{1, 2, 4})
	// 1/t = 1, 0.5, 0.25; sum = 1.75
	want := []float64{1 / 1.75, 0.5 / 1.75, 0.25 / 1.75}
	sum := 0.0
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("p[%d] = %v, want %v", i, got[i], want[i])
		}
		sum += got[i]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("probs sum to %v", sum)
	}
}

func TestFeasibleRhoInterval(t *testing.T) {
	lo, hi := FeasibleRhoInterval(0.1)
	if lo != 0 || math.Abs(hi-5) > 1e-12 {
		t.Fatalf("interval = (%v, %v], want (0, 5]", lo, hi)
	}
}

func TestFeasibleTimeIntervalOrdering(t *testing.T) {
	times := hetTimes(4, 1)
	adj := simnet.FullyConnected(4)
	lo, hi, err := FeasibleTimeInterval(times, adj, 0.1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if lo <= 0 || hi <= lo {
		t.Fatalf("interval = [%v, %v]", lo, hi)
	}
}

func TestGenerateProducesFeasiblePolicy(t *testing.T) {
	m := 5
	times := hetTimes(m, 2)
	adj := simnet.FullyConnected(m)
	alpha := 0.1
	pol, err := Generate(Input{Times: times, Adj: adj, Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	if err := feasible(pol.P, pol.Rho, adj); err != nil {
		t.Fatal(err)
	}
	// Floors: p_im >= 2αρ on every edge (Eq. 11).
	floor := 2 * alpha * pol.Rho
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j && adj[i][j] && pol.P[i][j] < floor-1e-7 {
				t.Fatalf("p[%d][%d] = %v below floor %v", i, j, pol.P[i][j], floor)
			}
		}
	}
	// Eq. 10: every worker's average iteration time equals M·t̄.
	avg := AvgIterTimes(pol.P, times, adj)
	for i, a := range avg {
		if math.Abs(a-float64(m)*pol.TBar) > 1e-5 {
			t.Fatalf("t_%d = %v, want M·t̄ = %v", i, a, float64(m)*pol.TBar)
		}
	}
	if pol.Lambda2 <= 0 || pol.Lambda2 >= 1 {
		t.Fatalf("λ2 = %v, want in (0,1)", pol.Lambda2)
	}
	if pol.TConvergence <= 0 {
		t.Fatalf("TConvergence = %v", pol.TConvergence)
	}
}

// TestGenerateZeroOptionsMeanDefaults pins the one home of Algorithm 3's
// defaults: zero rounds and ε generate the same policy as DefaultRounds
// and DefaultEpsilon, so callers may leave them unset.
func TestGenerateZeroOptionsMeanDefaults(t *testing.T) {
	in := Input{Times: hetTimes(5, 2), Adj: simnet.FullyConnected(5), Alpha: 0.1}
	zero, err := Generate(in)
	if err != nil {
		t.Fatal(err)
	}
	in.Rounds, in.Epsilon = DefaultRounds, DefaultEpsilon
	explicit, err := Generate(in)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(*zero) != fmt.Sprint(*explicit) {
		t.Fatalf("zero options gave %+v, explicit defaults %+v", *zero, *explicit)
	}
}

func TestGenerateYIsDoublyStochastic(t *testing.T) {
	// Theorem 3 / Lemmas 1-2: for any feasible P, Y_P is doubly stochastic
	// with λ2 < 1.
	f := func(seed int64) bool {
		m := 4 + int(seed%3+3)%3 // 4..6
		times := hetTimes(m, seed)
		adj := simnet.FullyConnected(m)
		pol, err := Generate(Input{Times: times, Adj: adj, Alpha: 0.1, Rounds: 5})
		if err != nil {
			return false
		}
		y := BuildY(pol.P, times, adj, 0.1, pol.Rho)
		if !y.IsDoublyStochastic(1e-6) {
			return false
		}
		l2, err := linalg.SecondLargestEigenvalue(y)
		return err == nil && l2 < 1-1e-9 && l2 > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestGeneratePrefersFastLinks(t *testing.T) {
	// Node 0 has one fast neighbor (1) and two slow ones (2, 3); the policy
	// must give the fast neighbor the highest probability.
	m := 4
	times := make([][]float64, m)
	for i := range times {
		times[i] = make([]float64, m)
	}
	set := func(i, j int, v float64) { times[i][j] = v; times[j][i] = v }
	set(0, 1, 1)
	set(0, 2, 10)
	set(0, 3, 10)
	set(1, 2, 1)
	set(1, 3, 10)
	set(2, 3, 1)
	adj := simnet.FullyConnected(m)
	pol, err := Generate(Input{Times: times, Adj: adj, Alpha: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if pol.P[0][1] <= pol.P[0][2] || pol.P[0][1] <= pol.P[0][3] {
		t.Fatalf("fast neighbor not preferred: row 0 = %v", pol.P[0])
	}
}

func TestGenerateBeatsUniformOnHeterogeneousNet(t *testing.T) {
	// The adaptive policy's predicted convergence time must beat the uniform
	// policy evaluated with the same spectral machinery.
	m := 6
	times := hetTimes(m, 9)
	adj := simnet.FullyConnected(m)
	alpha := 0.1
	pol, err := Generate(Input{Times: times, Adj: adj, Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	uni := Uniform(adj)
	rho := pol.Rho
	yu := BuildY(uni, times, adj, alpha, rho)
	eig, err := linalg.SymmetricEigenvalues(yu)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform on a heterogeneous net is generally not doubly stochastic,
	// so the relevant rate is λ1 (Section IV).
	lu := eig[0]
	if lu >= 1 {
		// λ1 >= 1 means the uniform bound gives no convergence guarantee at
		// all; adaptive trivially wins.
		return
	}
	tu := mean(AvgIterTimes(uni, times, adj)) / float64(m)
	tconvU := tu * math.Log(1e-2) / math.Log(lu)
	if pol.TConvergence > tconvU {
		t.Fatalf("adaptive TConv %v worse than uniform %v", pol.TConvergence, tconvU)
	}
}

func TestGenerateHomogeneousNearUniform(t *testing.T) {
	// On a homogeneous network the optimal policy approaches uniform
	// selection (Section V-D: "NetMax lets worker nodes choose their
	// neighbors randomly and uniformly to favor fast convergence").
	m := 4
	times := make([][]float64, m)
	for i := range times {
		times[i] = make([]float64, m)
		for j := range times[i] {
			if i != j {
				times[i][j] = 2.0
			}
		}
	}
	adj := simnet.FullyConnected(m)
	pol, err := Generate(Input{Times: times, Adj: adj, Alpha: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i == j {
				continue
			}
			if math.Abs(pol.P[i][j]-1.0/3.0) > 0.15 {
				t.Fatalf("homogeneous policy row %d = %v, want near-uniform", i, pol.P[i])
			}
		}
	}
}

func TestGenerateRingTopology(t *testing.T) {
	m := 6
	times := hetTimes(m, 4)
	adj := simnet.Ring(m)
	pol, err := Generate(Input{Times: times, Adj: adj, Alpha: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := feasible(pol.P, pol.Rho, adj); err != nil {
		t.Fatal(err)
	}
	// No probability mass on non-ring edges.
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j && !adj[i][j] && pol.P[i][j] != 0 {
				t.Fatalf("mass on chord %d-%d", i, j)
			}
		}
	}
}

func TestValidateCatchesBadRows(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	ok := [][]float64{{0.5, 0.5}, {0.25, 0.75}}
	for _, c := range []struct {
		name string
		p    [][]float64
		rho  float64
		m    int
		ok   bool
	}{
		{"valid", ok, 1, 2, true},
		{"rho above 1", ok, 12.5, 2, true},
		{"self-only row", [][]float64{{1, 0}, {0.5, 0.5}}, 1, 2, true},
		{"row sum within tolerance", [][]float64{{0.5, 0.5 + 1e-9}, {0.5, 0.5}}, 1, 2, true},
		{"row not summing to 1", [][]float64{{0.5, 0.4}, {0.5, 0.5}}, 1, 2, false},
		{"negative entry", [][]float64{{-0.1, 1.1}, {0.5, 0.5}}, 1, 2, false},
		{"NaN entry", [][]float64{{nan, 1}, {0.5, 0.5}}, 1, 2, false},
		{"infinite entry", [][]float64{{inf, 0}, {0.5, 0.5}}, 1, 2, false},
		{"too few rows", [][]float64{{0.5, 0.5}}, 1, 2, false},
		{"too many rows", [][]float64{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}}, 1, 2, false},
		{"short row", [][]float64{{1}, {0.5, 0.5}}, 1, 2, false},
		{"nil policy", nil, 1, 2, false},
		{"zero rho", ok, 0, 2, false},
		{"negative rho", ok, -1, 2, false},
		{"NaN rho", ok, nan, 2, false},
		{"infinite rho", ok, inf, 2, false},
	} {
		err := Validate(c.p, c.rho, c.m)
		if c.ok && err != nil {
			t.Errorf("%s: rejected: %v", c.name, err)
		}
		if !c.ok && !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: err = %v, want ErrInvalidInput", c.name, err)
		}
	}
}

// feasible checks a generated policy: Validate's shape, sign and row-sum
// rules, and no mass on a non-edge.
func feasible(p [][]float64, rho float64, adj [][]bool) error {
	if err := Validate(p, rho, len(adj)); err != nil {
		return err
	}
	for i := range p {
		for j, v := range p[i] {
			if i != j && !adj[i][j] && v > 1e-9 {
				return fmt.Errorf("policy: probability on non-edge p[%d][%d]=%v", i, j, v)
			}
		}
	}
	return nil
}

func TestGenerateSizeMismatch(t *testing.T) {
	if _, err := Generate(Input{Times: hetTimes(3, 1), Adj: simnet.FullyConnected(4), Alpha: 0.1}); err == nil {
		t.Fatal("expected error on size mismatch")
	}
}

func TestBuildYUniformHomogeneousSpectrum(t *testing.T) {
	// Uniform policy on a homogeneous fully connected network: Y is doubly
	// stochastic (pg uniform by symmetry), so λ1 = 1 > λ2.
	m := 4
	times := make([][]float64, m)
	for i := range times {
		times[i] = make([]float64, m)
		for j := range times[i] {
			if i != j {
				times[i][j] = 1
			}
		}
	}
	adj := simnet.FullyConnected(m)
	y := BuildY(Uniform(adj), times, adj, 0.1, 1.0)
	if !y.IsDoublyStochastic(1e-9) {
		t.Fatal("Y not doubly stochastic in the symmetric case")
	}
	eig, err := linalg.SymmetricEigenvalues(y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eig[0]-1) > 1e-9 {
		t.Fatalf("λ1 = %v, want 1", eig[0])
	}
	if eig[1] >= 1 {
		t.Fatalf("λ2 = %v, want < 1", eig[1])
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestGenerateRejectsInvalidInput(t *testing.T) {
	full3 := simnet.FullyConnected(3)
	good := [][]float64{{0, 1, 2}, {1, 0, 2}, {2, 1, 0}}
	cases := map[string]Input{
		"empty":            {Alpha: 0.1},
		"ragged times":     {Times: [][]float64{{0, 1, 2}, {1, 0}, {2, 1, 0}}, Adj: full3, Alpha: 0.1},
		"ragged adj":       {Times: good, Adj: [][]bool{{false, true, true}, {true, false}, {true, true, false}}, Alpha: 0.1},
		"negative time":    {Times: [][]float64{{0, -1, 2}, {-1, 0, 2}, {2, 2, 0}}, Adj: full3, Alpha: 0.1},
		"NaN time":         {Times: [][]float64{{0, math.NaN(), 2}, {1, 0, 2}, {2, 1, 0}}, Adj: full3, Alpha: 0.1},
		"infinite time":    {Times: [][]float64{{0, 1, 2}, {1, 0, math.Inf(1)}, {2, 1, 0}}, Adj: full3, Alpha: 0.1},
		"zero alpha":       {Times: good, Adj: full3},
		"negative alpha":   {Times: good, Adj: full3, Alpha: -0.1},
		"NaN alpha":        {Times: good, Adj: full3, Alpha: math.NaN()},
		"one round":        {Times: good, Adj: full3, Alpha: 0.1, Rounds: 1},
		"negative rounds":  {Times: good, Adj: full3, Alpha: 0.1, Rounds: -5},
		"rounds above cap": {Times: good, Adj: full3, Alpha: 0.1, Rounds: MaxRounds + 1},
		"epsilon above 1":  {Times: good, Adj: full3, Alpha: 0.1, Epsilon: 5},
		"epsilon of 1":     {Times: good, Adj: full3, Alpha: 0.1, Epsilon: 1},
		"negative epsilon": {Times: good, Adj: full3, Alpha: 0.1, Epsilon: -0.01},
		"NaN epsilon":      {Times: good, Adj: full3, Alpha: 0.1, Epsilon: math.NaN()},
		"workers above cap": {Times: hetTimes(MaxWorkers+1, 1), Adj: simnet.FullyConnected(MaxWorkers + 1),
			Alpha: 0.1, Rounds: 2},
		"directed 4-cycle": {Times: hetTimes(4, 1), Adj: [][]bool{
			{false, true, false, false}, {false, false, true, false},
			{false, false, false, true}, {true, false, false, false}}, Alpha: 0.1},
		"one-way edge": {Times: good, Adj: [][]bool{{false, true, true}, {true, false, true}, {true, false, false}}, Alpha: 0.1},
		"self-loop":    {Times: good, Adj: [][]bool{{false, true, true}, {true, true, true}, {true, true, false}}, Alpha: 0.1},
	}
	for name, in := range cases {
		if _, err := Generate(in); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: Generate err = %v, want ErrInvalidInput", name, err)
		}
		if _, err := GenerateLive(in, []bool{true, false, true}); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: GenerateLive err = %v, want ErrInvalidInput", name, err)
		}
	}
	// A liveness vector must hold one entry per worker, nil included.
	valid := Input{Times: hetTimes(4, 1), Adj: simnet.FullyConnected(4), Alpha: 0.1, Rounds: 2}
	for _, alive := range [][]bool{{true, true, true}, {true, true, true, true, true}, {}, nil} {
		if _, err := GenerateLive(valid, alive); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%d liveness entries for 4 workers: GenerateLive err = %v, want ErrInvalidInput", len(alive), err)
		}
	}
	// Non-edge entries are ignored: a ring's missing chords may hold
	// anything.
	ring := hetTimes(5, 3)
	ring[0][2], ring[2][0] = math.NaN(), -1
	if _, err := Generate(Input{Times: ring, Adj: simnet.Ring(5), Alpha: 0.1}); err != nil {
		t.Fatalf("non-edge entries rejected: %v", err)
	}
}

// TestGenerateRejectsDisconnectedGraph pins the typed error for a graph
// with no policy: randomized gossip on a graph that is not connected has
// λ₂ = 1. A 6-ring with workers 0 and 3 dead leaves two isolated pairs,
// two disjoint triangles are two components, and one worker has no peer.
func TestGenerateRejectsDisconnectedGraph(t *testing.T) {
	ring := Input{Times: hetTimes(6, 2), Adj: simnet.Ring(6), Alpha: 0.1}
	if _, err := GenerateLive(ring, []bool{false, true, true, false, true, true}); !errors.Is(err, ErrNoFeasiblePolicy) {
		t.Errorf("6-ring with workers 0 and 3 dead: GenerateLive err = %v, want ErrNoFeasiblePolicy", err)
	}
	if _, err := GenerateLive(ring, []bool{true, true, true, false, true, true}); err != nil {
		t.Errorf("6-ring with worker 3 dead, a path: %v", err)
	}
	triangles := make([][]bool, 6)
	for i := range triangles {
		triangles[i] = make([]bool, 6)
		for j := range triangles[i] {
			triangles[i][j] = i != j && i/3 == j/3
		}
	}
	for _, averaging := range []bool{false, true} {
		in := Input{Times: hetTimes(6, 2), Adj: triangles, Alpha: 0.1, AveragingBlend: averaging}
		if _, err := Generate(in); !errors.Is(err, ErrNoFeasiblePolicy) {
			t.Errorf("two triangles, averaging %v: Generate err = %v, want ErrNoFeasiblePolicy", averaging, err)
		}
	}
	one := Input{Times: [][]float64{{0}}, Adj: [][]bool{{false}}, Alpha: 0.1}
	if _, err := Generate(one); !errors.Is(err, ErrNoFeasiblePolicy) {
		t.Errorf("one worker: Generate err = %v, want ErrNoFeasiblePolicy", err)
	}
}

// generateAllocs is one Generate call's allocation budget: the search's
// four blocks (float64s, ints, and the rows of each), the best P's data and
// row headers, and the returned Policy.
const generateAllocs = 7

// TestGenerateAllocationsIndependentOfGrid pins the one-block set-up: one
// Generate call allocates generateAllocs times at every N and on a 2×2 and
// a 10×10 grid, not per row, per ρ or per candidate. A fast worker whose
// small times empty the t̄ interval of the top ρ values must cost nothing
// either. GenerateLive with a dead worker, whose search runs over the
// live workers, allocates as often.
func TestGenerateAllocationsIndependentOfGrid(t *testing.T) {
	inputs := map[string]Input{"N=8": benchInput(8), "N=16": benchInput(16), "N=64": benchInput(64)}
	fast := benchInput(16)
	for j := 1; j < 16; j++ {
		fast.Times[0][j] /= 20
		fast.Times[j][0] /= 20
	}
	s, _ := newSearch(fast, DefaultEpsilon, nil)
	if _, _, ok := timeInterval(s.rows.sum, s.rows.tmax, fast.Alpha, 0.999/(2*fast.Alpha*15)); ok {
		t.Fatal("the fast worker leaves the top ρ's interval non-empty")
	}
	inputs["N=16, fast worker"] = fast
	for name, in := range inputs {
		for _, rounds := range []int{2, 10} {
			in.Rounds = rounds
			if _, err := Generate(in); err != nil {
				t.Fatalf("%s, %d×%d grid: %v", name, rounds, rounds, err)
			}
			if got := testing.AllocsPerRun(20, func() { Generate(in) }); got != generateAllocs {
				t.Errorf("%s, %d×%d grid: %v allocations, want %d", name, rounds, rounds, got, generateAllocs)
			}
		}
	}
	for _, m := range []int{8, 16} {
		in, alive := benchInput(m), make([]bool, m)
		for i := range alive {
			alive[i] = i != 2
		}
		if _, err := GenerateLive(in, alive); err != nil {
			t.Fatalf("N=%d, worker 2 dead: %v", m, err)
		}
		if got := testing.AllocsPerRun(20, func() { GenerateLive(in, alive) }); got != generateAllocs {
			t.Errorf("N=%d, worker 2 dead: GenerateLive allocates %v times, want %d", m, got, generateAllocs)
		}
	}
}
