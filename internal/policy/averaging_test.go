package policy

import (
	"math"
	"testing"

	"netmax/internal/linalg"
	"netmax/internal/simnet"
)

func TestAveragingBlendPolicyFeasible(t *testing.T) {
	m := 6
	times := hetTimes(m, 21)
	adj := simnet.FullyConnected(m)
	pol, err := Generate(Input{Times: times, Adj: adj, Alpha: 0.1, AveragingBlend: true})
	if err != nil {
		t.Fatal(err)
	}
	// ρ plays no role in the averaging blend; Generate leaves it 0.
	if err := feasible(pol.P, 1, adj); err != nil {
		t.Fatal(err)
	}
	if pol.Lambda2 <= 0 || pol.Lambda2 >= 1 {
		t.Fatalf("lambda2 = %v", pol.Lambda2)
	}
	// Eq. 10 still holds: all workers share the same average iteration time.
	avg := AvgIterTimes(pol.P, times, adj)
	for i := 1; i < m; i++ {
		if math.Abs(avg[i]-avg[0]) > 1e-5 {
			t.Fatalf("iteration times not equalized: %v", avg)
		}
	}
}

func TestAveragingBlendAllowsTinyProbabilities(t *testing.T) {
	// Without the 2αρ floor, slow links can be nearly abandoned: the
	// minimum edge probability under averaging mode should be far below
	// NetMax's floor on the same input.
	m := 5
	times := hetTimes(m, 23)
	adj := simnet.FullyConnected(m)
	avgPol, err := Generate(Input{Times: times, Adj: adj, Alpha: 0.1, AveragingBlend: true})
	if err != nil {
		t.Fatal(err)
	}
	nmPol, err := Generate(Input{Times: times, Adj: adj, Alpha: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	minEdge := func(p [][]float64) float64 {
		m := math.Inf(1)
		for i := range p {
			for j := range p[i] {
				if i != j && p[i][j] > 0 && p[i][j] < m {
					m = p[i][j]
				}
			}
		}
		return m
	}
	if minEdge(avgPol.P) >= 2*0.1*nmPol.Rho {
		t.Fatalf("averaging-mode min edge prob %v not below NetMax floor %v",
			minEdge(avgPol.P), 2*0.1*nmPol.Rho)
	}
}

func TestBuildYAveragingSpectrum(t *testing.T) {
	// With the fixed 1/2 weight, p_ij·w_ij depends on p, so the row-sum
	// cancellation that makes NetMax's Y doubly stochastic (p_ij·w_ij = αρ
	// for every edge) is lost: averaging-mode Y is symmetric but generally
	// NOT doubly stochastic, and the paper's Theorem 1 then uses λ₁
	// ("otherwise let λ = λ1"). This is the spectral reason the extension
	// converges per-epoch slightly slower than NetMax (Fig. 15).
	m := 5
	times := hetTimes(m, 25)
	adj := simnet.FullyConnected(m)
	pol, err := Generate(Input{Times: times, Adj: adj, Alpha: 0.1, AveragingBlend: true})
	if err != nil {
		t.Fatal(err)
	}
	y := BuildYAveraging(pol.P, times, adj)
	if !y.IsSymmetric(1e-9) {
		t.Fatal("averaging-mode Y must still be symmetric")
	}
	eig, err := linalg.SymmetricEigenvalues(y)
	if err != nil {
		t.Fatal(err)
	}
	// The spectrum stays in a sane contraction range around 1.
	if eig[0] < 0.5 || eig[0] > 1.1 {
		t.Fatalf("lambda1 = %v out of range", eig[0])
	}
	if eig[len(eig)-1] < 0 {
		t.Fatalf("negative eigenvalue %v", eig[len(eig)-1])
	}
}

func TestBuildYMatchesWeightedForm(t *testing.T) {
	// Sanity: the refactored weighted builder must reproduce the original
	// Eq. 22 values for the NetMax weight.
	m := 4
	times := hetTimes(m, 27)
	adj := simnet.FullyConnected(m)
	pol, err := Generate(Input{Times: times, Adj: adj, Alpha: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	y := BuildY(pol.P, times, adj, 0.1, pol.Rho)
	// Entry-level checks against the closed form for one off-diagonal pair.
	i, j := 0, 1
	pg := GlobalStepProbs(AvgIterTimes(pol.P, times, adj))
	ar := 0.1 * pol.Rho
	wij := ar * 2 / (2 * pol.P[i][j])
	wji := ar * 2 / (2 * pol.P[j][i])
	want := pg[i]*pol.P[i][j]*(wij-wij*wij) + pg[j]*pol.P[j][i]*(wji-wji*wji)
	if math.Abs(y.At(i, j)-want) > 1e-9 {
		t.Fatalf("y[0][1] = %v, closed form %v", y.At(i, j), want)
	}
}
