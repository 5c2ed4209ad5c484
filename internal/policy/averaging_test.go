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

// TestBuildYAveragingSpectrum pins the averaging blend's Y to the update
// AD-PSGD+Monitor runs: both endpoints move to their midpoint, so Y is the
// randomized-gossip matrix I − ½·Σ pg_i·p_ij·uuᵀ (u = e_i − e_j). It is
// symmetric with unit row sums, so λ₁ = 1 on the consensus vector and
// the search's λ₂ bounds apply to +Monitor's candidates too.
func TestBuildYAveragingSpectrum(t *testing.T) {
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
	ones := make([]float64, m)
	for i := range ones {
		ones[i] = 1
	}
	for i, sum := range y.MatVec(ones) {
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d of Y sums to %v, want 1", i, sum)
		}
	}
	pg := GlobalStepProbs(AvgIterTimes(pol.P, times, adj))
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if want := (pg[i]*pol.P[i][j] + pg[j]*pol.P[j][i]) / 2; j != i && math.Abs(y.At(i, j)-want) > 1e-15 {
				t.Fatalf("y[%d][%d] = %v, want ½(pg_i p_ij + pg_j p_ji) = %v", i, j, y.At(i, j), want)
			}
		}
	}
	eig, err := linalg.SymmetricEigenvalues(y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eig[0]-1) > 1e-12 || !(eig[1] > 0 && eig[1] < 1) || eig[m-1] < 0 {
		t.Fatalf("spectrum %v, want λ₁ = 1 > λ₂ > 0 and no negative eigenvalue", eig)
	}
	if math.Abs(eig[1]-pol.Lambda2) > 1e-9 {
		t.Fatalf("λ₂ = %v, policy reports %v", eig[1], pol.Lambda2)
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
