package theory

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"netmax/internal/linalg"
	"netmax/internal/policy"
	"netmax/internal/simnet"
)

func testPolicy(t *testing.T, m int, seed int64) (*policy.Policy, [][]bool, [][]float64) {
	t.Helper()
	return generatePolicy(t, m, seed, false)
}

// generatePolicy runs Algorithm 3 on a fully connected m-worker graph with
// symmetric iteration times drawn uniformly from [1, 10], for NetMax's
// blend or the averaging blend.
func generatePolicy(t *testing.T, m int, seed int64, averaging bool) (*policy.Policy, [][]bool, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	times := make([][]float64, m)
	for i := range times {
		times[i] = make([]float64, m)
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			v := 1 + rng.Float64()*9
			times[i][j], times[j][i] = v, v
		}
	}
	adj := simnet.FullyConnected(m)
	pol, err := policy.Generate(policy.Input{Times: times, Adj: adj, Alpha: 0.1, AveragingBlend: averaging})
	if err != nil {
		t.Fatal(err)
	}
	return pol, adj, times
}

func TestQuadraticOptimum(t *testing.T) {
	q := &Quadratic{Mu: 1, Targets: []float64{1, 2, 3}}
	if q.Optimum() != 2 {
		t.Fatalf("optimum = %v", q.Optimum())
	}
}

func TestQuadraticGradZeroAtTargetNoNoise(t *testing.T) {
	q := &Quadratic{Mu: 2, Targets: []float64{5}}
	rng := rand.New(rand.NewSource(1))
	if g := q.Grad(0, 5, 0, rng); g != 0 {
		t.Fatalf("grad at target = %v", g)
	}
	if g := q.Grad(0, 6, 0, rng); g != 2 {
		t.Fatalf("grad = %v, want mu*(x-t) = 2", g)
	}
}

func TestIterationReachesConsensusNoiseless(t *testing.T) {
	// Theorem 1 with sigma = 0: the deviation contracts to zero, meaning
	// both consensus and optimality.
	pol, adj, _ := testPolicy(t, 4, 1)
	q := NewQuadratic(4, 1.0, 1.0, 2)
	it := NewIteration(q, pol, adj, 0.1, 0, 3.0, false, 3)
	initial := it.Deviation()
	for s := 0; s < 20000; s++ {
		it.Step()
	}
	// Eq. (1) is a quadratic-penalty consensus formulation: with
	// heterogeneous local optima a residual disagreement proportional to
	// the gradient spread over the coupling strength persists, so we check
	// contraction to a small neighborhood rather than exact consensus.
	if it.Deviation() > initial*1e-2 {
		t.Fatalf("deviation %v did not contract from %v", it.Deviation(), initial)
	}
	if it.ConsensusGap() > 0.5 {
		t.Fatalf("consensus gap = %v", it.ConsensusGap())
	}
	// All workers near the joint optimum, not their local targets (the
	// targets are spread over [-1, 1]).
	opt := q.Optimum()
	for i, x := range it.X {
		if math.Abs(x-opt) > 0.3 {
			t.Fatalf("worker %d at %v, optimum %v", i, x, opt)
		}
	}
}

func TestIterationNoiseBall(t *testing.T) {
	// With noise, the deviation settles into a ball whose size shrinks
	// with alpha (the alpha^2 sigma^2 term of Eq. 23).
	pol, adj, _ := testPolicy(t, 4, 5)
	q := NewQuadratic(4, 1.0, 0.5, 6)
	settle := func(alpha float64) float64 {
		it := NewIteration(q, pol, adj, alpha, 1.0, 2.0, false, 7)
		for s := 0; s < 30000; s++ {
			it.Step()
		}
		// Average the tail.
		sum := 0.0
		for s := 0; s < 5000; s++ {
			it.Step()
			sum += it.Deviation()
		}
		return sum / 5000
	}
	big := settle(0.2)
	small := settle(0.02)
	if small >= big {
		t.Fatalf("noise ball did not shrink with alpha: %v (a=0.02) vs %v (a=0.2)", small, big)
	}
}

func TestTheoremOneBoundFormula(t *testing.T) {
	// k=0: bound = initial + noise term.
	b := TheoremOneBound(0.5, 4.0, 0.1, 1.0, 0)
	want := 4.0 + 0.01*0.5/0.5
	if math.Abs(b-want) > 1e-12 {
		t.Fatalf("bound = %v, want %v", b, want)
	}
	// Large k: bound approaches the noise floor.
	b = TheoremOneBound(0.5, 4.0, 0.1, 1.0, 1000)
	if math.Abs(b-0.01) > 1e-9 {
		t.Fatalf("asymptotic bound = %v, want 0.01", b)
	}
}

func TestContractionRate(t *testing.T) {
	// Strong-convexity factor dominates for small alpha.
	r := ContractionRate(0.5, 0.01, 1, 1, 0.25)
	want := 1 - 2*0.01*0.5*0.25
	if math.Abs(r-want) > 1e-12 {
		t.Fatalf("rate = %v, want %v", r, want)
	}
	// lambda2 dominates when it is larger.
	if got := ContractionRate(0.999, 0.5, 1, 1, 0.25); got != 0.999 {
		t.Fatalf("rate = %v, want lambda2", got)
	}
}

func TestVerifyConsensusContraction(t *testing.T) {
	pol, adj, _ := testPolicy(t, 4, 33)
	if err := VerifyConsensusContraction(pol, adj, 0.1, 1500, 4, 50, 35); err != nil {
		t.Fatalf("consensus contraction violated: %v", err)
	}
}

func TestVerifyTheorem1Holds(t *testing.T) {
	pol, adj, _ := testPolicy(t, 4, 9)
	measured, bound, err := VerifyTheorem1(pol, adj, 0.1, 0.1, 2000, 8, 3.0, 11)
	if err != nil {
		t.Fatalf("Theorem 1 violated: %v", err)
	}
	if len(measured) != len(bound) || len(measured) == 0 {
		t.Fatal("series missing")
	}
	// The measured deviation should have contracted substantially.
	if measured[len(measured)-1] > measured[0]*0.3 {
		t.Fatalf("deviation did not contract: %v -> %v", measured[0], measured[len(measured)-1])
	}
}

func TestSpectralGapPositiveForGeneratedPolicies(t *testing.T) {
	pol, adj, times := testPolicy(t, 5, 13)
	gap, err := SpectralGap(pol.P, times, adj, 0.1, pol.Rho)
	if err != nil {
		t.Fatal(err)
	}
	if gap <= 0 || gap >= 1 {
		t.Fatalf("spectral gap = %v, want in (0,1)", gap)
	}
	// Consistent with the policy's own lambda2.
	if math.Abs((1-gap)-pol.Lambda2) > 1e-6 {
		t.Fatalf("gap disagrees with policy lambda2: %v vs %v", 1-gap, pol.Lambda2)
	}
}

func TestConvergenceRateScalesLikeInverseSqrtK(t *testing.T) {
	// Theorem 3: ergodic suboptimality ~ O(1/sqrt(k)). Quadrupling k should
	// roughly halve it; allow generous slack for stochasticity.
	pol, adj, _ := testPolicy(t, 4, 15)
	ks := []int{2000, 32000}
	sub := ConvergenceRateCheck(pol, adj, ks, 1.0, 17)
	if sub[1] >= sub[0] {
		t.Fatalf("suboptimality did not decrease with k: %v", sub)
	}
	// 16x more steps => expect ~4x reduction; demand at least 2x.
	if sub[0]/sub[1] < 2 {
		t.Fatalf("rate too slow: %v -> %v (ratio %v)", sub[0], sub[1], sub[0]/sub[1])
	}
}

func TestDynamicNetworkTheorem2(t *testing.T) {
	// Theorem 2: under a changing policy (network dynamics), convergence is
	// still governed by lambda_max < 1. Alternate between two generated
	// policies and verify contraction.
	polA, adj, _ := testPolicy(t, 4, 19)
	polB, _, _ := testPolicy(t, 4, 23)
	q := NewQuadratic(4, 1.0, 1.0, 25)
	it := NewIteration(q, polA, adj, 0.1, 0, 3.0, false, 27)
	initial := it.Deviation()
	for s := 0; s < 20000; s++ {
		if s%500 == 0 { // swap policy every 500 steps
			if (s/500)%2 == 0 {
				it.Adopt(polB)
			} else {
				it.Adopt(polA)
			}
		}
		it.Step()
	}
	if it.Deviation() > initial*1e-2 {
		t.Fatalf("dynamic-network iteration did not contract: %v -> %v", initial, it.Deviation())
	}
}

func TestIterationWithExplicitPg(t *testing.T) {
	pol, adj, _ := testPolicy(t, 3, 29)
	q := NewQuadratic(3, 1.0, 1.0, 30)
	it := NewIteration(q, pol, adj, 0.1, 0, 1.0, false, 31)
	it.Pg = []float64{0.8, 0.1, 0.1}
	for s := 0; s < 5000; s++ {
		it.Step()
	}
	if it.ConsensusGap() > 0.2 {
		t.Fatalf("consensus gap with skewed pg = %v", it.ConsensusGap())
	}
}

// secondEigenvector returns a unit vector orthogonal to 1 in the λ₂
// eigenspace of the spectral model y: power iteration on y − 11ᵀ/N, whose
// largest eigenvalue is λ₂ because y is positive semidefinite (an average
// of DᵀD) with y·1 = 1.
func secondEigenvector(y *linalg.Matrix, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, y.N)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	for k := 0; k < 20000; k++ {
		v = y.MatVec(v)
		mean := 0.0
		for _, x := range v {
			mean += x / float64(len(v))
		}
		norm := 0.0
		for i := range v {
			v[i] -= mean
			norm += v[i] * v[i]
		}
		for i := range v {
			v[i] /= math.Sqrt(norm)
		}
	}
	return v
}

// consensusSlope runs trials zero-gradient iterations (μ = 0, so only the
// blend moves the models) from x = v, and fits the per-global-step
// log-slope of the mean of ‖x − x̄1‖² over steps 1..steps, through the
// start's value (least squares through the origin).
func consensusSlope(pol *policy.Policy, adj [][]bool, averaging bool, v []float64, trials, steps int, seed int64) float64 {
	it := NewIteration(&Quadratic{Targets: make([]float64, len(adj))}, pol, adj, 0.1, 0, 0, averaging, seed)
	mean := make([]float64, steps+1)
	for tr := 0; tr < trials; tr++ {
		copy(it.X, v)
		for k := 1; k <= steps; k++ {
			it.Step()
			mean[k] += consensusSq(it.X) / float64(trials)
		}
	}
	start := consensusSq(v)
	var num, den float64
	for k := 1; k <= steps; k++ {
		num += float64(k) * math.Log(mean[k]/start)
		den += float64(k * k)
	}
	return num / den
}

// TestConsensusRateMatchesSpectralModel checks Y_P against the runtime it
// steers, statistically. It starts the zero-gradient iteration on the λ₂
// eigenvector v of Y and measures the log-slope s of E‖x − x̄1‖² per global
// step. E‖x_{k+1} − x̄1‖² ≤ λ₂·E‖x_k − x̄1‖² for any blend whose Y has unit
// row sums, so s ≤ ln λ₂. A two-sided blend also has E[D] = Y (its D is
// symmetric and idempotent), so by Jensen E‖x_k − x̄1‖² ≥ ‖Yᵏv‖² = λ₂²ᵏ and
// s ≥ 2·ln λ₂; a one-sided blend only has the first side. A Y that mixes
// faster or slower than the runtime breaks one of the two.
//
// The cases are the uniform policy on a full graph (its consensus-subspace
// Y is λ₂·I, so s = ln λ₂ exactly), Generate's averaging policies and its
// NetMax policies, at N = 8. slopeTol bounds s/ln λ₂ outside [1, 2]: five
// times the largest standard deviation of that ratio, 0.0074, over 20
// repeats of every case with different iteration seeds.
func TestConsensusRateMatchesSpectralModel(t *testing.T) {
	const (
		m        = 8
		trials   = 8000
		slopeTol = 0.04
	)
	type tcase struct {
		name      string
		pol       *policy.Policy
		adj       [][]bool
		y         *linalg.Matrix
		averaging bool
	}
	adj := simnet.FullyConnected(m)
	ones := make([][]float64, m)
	for i := range ones {
		ones[i] = make([]float64, m)
		for j := range ones[i] {
			ones[i][j] = 1
		}
	}
	uniform := &policy.Policy{P: policy.Uniform(adj)}
	cases := []tcase{{"uniform/averaging", uniform, adj, policy.BuildYAveraging(uniform.P, ones, adj), true}}
	for seed := int64(1); seed <= 5; seed++ {
		pol, adj, times := generatePolicy(t, m, seed, true)
		cases = append(cases, tcase{fmt.Sprintf("averaging/seed=%d", seed), pol, adj, policy.BuildYAveraging(pol.P, times, adj), true})
		pol, adj, times = generatePolicy(t, m, seed, false)
		cases = append(cases, tcase{fmt.Sprintf("netmax/seed=%d", seed), pol, adj, policy.BuildY(pol.P, times, adj, 0.1, pol.Rho), false})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l2, err := linalg.SecondLargestEigenvalue(c.y)
			if err != nil {
				t.Fatal(err)
			}
			ones := make([]float64, m)
			for i := range ones {
				ones[i] = 1
			}
			for i, sum := range c.y.MatVec(ones) {
				if math.Abs(sum-1) > 1e-12 {
					t.Fatalf("row %d of Y sums to %v: the bounds need Y·1 = 1", i, sum)
				}
			}
			v := secondEigenvector(c.y, 41)
			if rq := dot(v, c.y.MatVec(v)); math.Abs(rq-l2) > 1e-9 {
				t.Fatalf("power iteration found eigenvalue %v, want λ₂ = %v", rq, l2)
			}
			steps := int(math.Ceil(3 / -math.Log(l2)))
			ratio := consensusSlope(c.pol, c.adj, c.averaging, v, trials, steps, 43) / math.Log(l2)
			t.Logf("λ₂ = %.4f, slope/ln λ₂ = %.3f over %d steps", l2, ratio, steps)
			if ratio < 1-slopeTol {
				t.Fatalf("consensus contracts at %.3f·ln λ₂ per step, slower than the model's λ₂ = %v allows", ratio, l2)
			}
			if c.averaging && ratio > 2+slopeTol {
				t.Fatalf("two-sided consensus contracts at %.3f·ln λ₂ per step, faster than the model's λ₂ = %v allows", ratio, l2)
			}
		})
	}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
