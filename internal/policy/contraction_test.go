package policy

import (
	"math"
	"math/rand"
	"testing"

	"netmax/internal/linalg"
	"netmax/internal/simnet"
)

// TestAveragingYIsAnAverageOfProjections checks that the averaging blend's
// Y contracts whatever the policy and the times: it is a convex
// combination of I (a worker skips) and the projections I − ½uuᵀ (a pair
// averages), so every eigenvalue, λ₂ included, lies in [0, 1]. It holds
// for random connected graphs of 3 to 16 workers, random row-stochastic P
// and random positive times.
func TestAveragingYIsAnAverageOfProjections(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(14)
		adj := randomGraph(rng, n, rng.Float64(), true)
		p, times := make([][]float64, n), make([][]float64, n)
		for i := range p {
			p[i], times[i] = make([]float64, n), make([]float64, n)
			p[i][i] = rng.Float64()
			sum := p[i][i]
			for j := range adj[i] {
				if adj[i][j] {
					p[i][j] = rng.Float64()
					sum += p[i][j]
					times[i][j] = 0.01 + 100*rng.Float64()
				}
			}
			for j := range p[i] {
				p[i][j] /= sum
			}
		}
		eig, err := linalg.SymmetricEigenvalues(BuildYAveraging(p, times, adj))
		if err != nil {
			t.Fatal(err)
		}
		if eig[0] > 1+1e-12 || eig[n-1] < -1e-12 {
			t.Fatalf("trial %d (N = %d): spectrum %v leaves [0, 1]", trial, n, eig)
		}
	}
}

// perturbedLambda2 takes the policy Generate picks on hetTimes(8, s),
// s = 1..200, scales each link's time by a factor drawn log-uniformly from
// [1/k, k], and returns the largest λ₂ over the trials of the Y that y
// builds from the policy and the scaled times, and how many reached 1.
func perturbedLambda2(t *testing.T, k float64, y func(pol *Policy, times [][]float64, adj [][]bool) *linalg.Matrix) (worst float64, failed int) {
	t.Helper()
	const m = 8
	adj := simnet.FullyConnected(m)
	rng := rand.New(rand.NewSource(1))
	for s := int64(1); s <= 200; s++ {
		times := hetTimes(m, s)
		pol, err := Generate(Input{Times: times, Adj: adj, Alpha: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				f := math.Pow(k, 2*rng.Float64()-1)
				times[i][j] *= f
				times[j][i] *= f
			}
		}
		eig, err := linalg.SymmetricEigenvalues(y(pol, times, adj))
		if err != nil {
			t.Fatal(err)
		}
		worst = max(worst, eig[1])
		if eig[1] >= 1 {
			failed++
		}
	}
	return worst, failed
}

// TestOneSidedPolicyContractsOnlyNearItsTimes pins the premise of a
// timing-robust policy search: NetMax picks its policy for the times the
// monitor believes, and its one-sided pull stays a contraction (λ₂ < 1)
// when every link's true time is within 3× of the belief, but not always
// within 10×. AD-PSGD's uniform averaging contracts at 10× too.
func TestOneSidedPolicyContractsOnlyNearItsTimes(t *testing.T) {
	netmax := func(pol *Policy, times [][]float64, adj [][]bool) *linalg.Matrix {
		return BuildY(pol.P, times, adj, 0.1, pol.Rho)
	}
	for _, k := range []float64{1.5, 3, 10} {
		worst, failed := perturbedLambda2(t, k, netmax)
		t.Logf("NetMax, k = %g: worst λ₂ %.4f, %d of 200 trials at or above 1", k, worst, failed)
		if k <= 3 && failed > 0 {
			t.Errorf("NetMax, k = %g: %d of 200 trials reached λ₂ ≥ 1 (worst %.4f), want none", k, failed, worst)
		}
		if k == 10 && failed == 0 {
			t.Errorf("NetMax, k = 10: no trial reached λ₂ ≥ 1 (worst %.4f), want at least one", worst)
		}
	}
	adpsgd := func(_ *Policy, times [][]float64, adj [][]bool) *linalg.Matrix {
		return BuildYAveraging(Uniform(adj), times, adj)
	}
	worst, failed := perturbedLambda2(t, 10, adpsgd)
	t.Logf("AD-PSGD, k = 10: worst λ₂ %.4f, %d of 200 trials at or above 1", worst, failed)
	if failed > 0 {
		t.Errorf("AD-PSGD, k = 10: %d of 200 trials reached λ₂ ≥ 1 (worst %.4f), want none", failed, worst)
	}
}
