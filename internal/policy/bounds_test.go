package policy

import (
	"math"
	"math/rand"
	"testing"

	"netmax/internal/linalg"
	"netmax/internal/simnet"
)

// diagBounds returns every row's (N·y_ii − 1)/(N − 1) for y.
func diagBounds(y *linalg.Matrix) []float64 {
	n := float64(y.N)
	out := make([]float64, y.N)
	for i := range out {
		out[i] = (n*y.At(i, i) - 1) / (n - 1)
	}
	return out
}

// randomRows returns random feasible rows on the graph of nbrs: each row
// gives every neighbor its floor and splits the slack at random between
// its neighbors and itself. Its times make every worker's mean iteration
// time 1, as a feasible P's do (Eq. 10).
func randomRows(rng *rand.Rand, nbrs [][]int, floor float64) (p, times [][]float64) {
	m := len(nbrs)
	p, times = matrix(m), matrix(m)
	for i, nbrs := range nbrs {
		w, sum := make([]float64, len(nbrs)+1), 0.0
		for k := range w {
			w[k] = rng.ExpFloat64()
			sum += w[k]
		}
		slack := 1 - float64(len(nbrs))*floor
		p[i][i] = slack * w[len(nbrs)] / sum
		for k, j := range nbrs {
			p[i][j] = floor + slack*w[k]/sum
			times[i][j] = 1 / (1 - p[i][i])
		}
	}
	return p, times
}

// TestLambda2BoundsHold checks the search's two λ₂ bounds against the
// eigensolve on random connected undirected graphs with random feasible
// rows, in both blend modes: λ₂ of BuildY (BuildYAveraging) is at least
// every row's diagonal bound, diagExceeds proves λ₂ above a limit just
// below the largest of them and never above λ₂ itself, and under the
// one-sided blend the largest diagonal bound is at least step A's floor.
func TestLambda2BoundsHold(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const alpha = 0.1
	for trial := 0; trial < 600; trial++ {
		m := 2 + rng.Intn(31)
		averaging := trial%2 == 1
		adj := randomGraph(rng, m, rng.Float64(), m > 2)
		s, ok := newSearch(Input{Times: matrix(m), Adj: adj, Alpha: alpha, AveragingBlend: averaging}, DefaultEpsilon)
		if !ok {
			continue
		}
		rho, floor := 0.0, 1e-4
		if !averaging {
			rho = rng.Float64() * 0.999 / (2 * alpha * float64(s.maxDeg)) // below the ρ cap
			floor = 2 * alpha * rho
		}
		p, times := randomRows(rng, s.nbrs, floor)
		var y *linalg.Matrix
		if averaging {
			y = BuildYAveraging(p, times, adj)
		} else {
			y = BuildY(p, times, adj, alpha, rho)
		}
		eig, err := linalg.SymmetricEigenvalues(y)
		if err != nil {
			t.Fatal(err)
		}
		top := math.Inf(-1)
		for i, b := range diagBounds(y) {
			if eig[1] < b-1e-12 {
				t.Fatalf("trial %d, N=%d, averaging %v: λ₂ = %v below row %d's diagonal bound %v", trial, m, averaging, eig[1], i, b)
			}
			top = max(top, b)
		}
		for i := range p {
			copy(s.p[i], p[i])
		}
		if s.diagExceeds(alpha*rho, eig[1]+boundMargin) {
			t.Fatalf("trial %d, N=%d, averaging %v: diagExceeds proves λ₂ above λ₂ = %v", trial, m, averaging, eig[1])
		}
		if lim := top - 1e-6; lim < 1 && !s.diagExceeds(alpha*rho, lim) {
			t.Fatalf("trial %d, N=%d, averaging %v: diagExceeds misses the diagonal bound %v", trial, m, averaging, top)
		}
		if fl := s.l2Floor(rho); top < fl-1e-12 {
			t.Fatalf("trial %d, N=%d: the largest diagonal bound %v is below step A's floor %v", trial, m, top, fl)
		}
	}
}

// TestDiagonalSecondOrderBound checks the step from the diagonal bound to
// the ρ cap in the derivation that no feasible one-sided policy reaches
// AD-PSGD's spectral gap. On random connected undirected graphs with
// random feasible rows at pg = 1/N, the one-sided blend's
// y_ii ≥ 1 − (2x − x²(1 + 1/deg_i))/N with x = αρ·deg_i: y_ii's
// first-order terms are exactly 2x/N, and its second-order terms are
// (αρ)²/N·Σ_m (1/p_im + 1/p_mi), where Σ_m 1/p_im ≥ deg_i² because
// Σ_m p_im ≤ 1, and 1/p_mi ≥ 1.
func TestDiagonalSecondOrderBound(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const alpha = 0.1
	for trial := 0; trial < 600; trial++ {
		m := 2 + rng.Intn(31)
		s, ok := newSearch(Input{Times: matrix(m), Adj: randomGraph(rng, m, rng.Float64(), m > 2), Alpha: alpha}, DefaultEpsilon)
		if !ok {
			continue
		}
		rho := rng.Float64() * 0.999 / (2 * alpha * float64(s.maxDeg)) // below the ρ cap
		p, _ := randomRows(rng, s.nbrs, 2*alpha*rho)
		buildY(&s.y, p, s.nbrs, alpha*rho, false, s.pg, s.diag)
		for i, nbrs := range s.nbrs {
			deg := float64(len(nbrs))
			x := alpha * rho * deg
			if y, b := s.y.At(i, i), 1-(2*x-x*x*(1+1/deg))/float64(m); y < b-1e-12 {
				t.Fatalf("trial %d, N=%d, ρ = %v: y_%d%d = %v below 1 − (2x − x²(1 + 1/deg))/N = %v (deg %v)",
					trial, m, rho, i, i, y, b, deg)
			}
		}
	}
}

// TestLambda2BoundsTightAtTheCap pins the one-sided blend's half spectral
// gap and the diagonal bound's tightness. On a complete graph with uniform
// times, ρ at the cap 0.999/(2α(N − 1)) and every p_ij at its floor 2αρ,
// Y_P = (1 − αρ)·I + (αρ/N)·11ᵀ, so λ₂ and every row's diagonal bound
// equal 1 − αρ: a gap of αρ < 1/(2(N − 1)), half the gap 1/(N − 1) that
// AD-PSGD's averaging blend reaches with the uniform policy.
func TestLambda2BoundsTightAtTheCap(t *testing.T) {
	const alpha = 0.1
	for m := 4; m <= 32; m++ {
		adj, times, p := simnet.FullyConnected(m), matrix(m), matrix(m)
		rho := 0.999 / (2 * alpha * float64(m-1))
		for i := range p {
			for j := range p[i] {
				times[i][j], p[i][j] = 1, 2*alpha*rho
			}
			p[i][i] = 1 - float64(m-1)*2*alpha*rho
		}
		want := 1 - alpha*rho
		y := BuildY(p, times, adj, alpha, rho)
		eig, err := linalg.SymmetricEigenvalues(y)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(eig[1]-want) > 1e-12 {
			t.Fatalf("N=%d: λ₂ = %v, want 1 − αρ = %v", m, eig[1], want)
		}
		for i, b := range diagBounds(y) {
			if math.Abs(b-want) > 1e-12 {
				t.Fatalf("N=%d: row %d's diagonal bound %v, want 1 − αρ = %v", m, i, b, want)
			}
		}
		avg, err := linalg.SymmetricEigenvalues(BuildYAveraging(Uniform(adj), times, adj))
		if err != nil {
			t.Fatal(err)
		}
		if gap := 1 - avg[1]; math.Abs(gap-1/float64(m-1)) > 1e-12 || alpha*rho >= gap/2 {
			t.Fatalf("N=%d: averaging gap %v, one-sided gap %v; want 1/(N − 1) and under half of it", m, gap, alpha*rho)
		}
	}
}

// TestLambda2BoundsFire checks that both bounds do their job, on
// BenchmarkGenerate's N = 16 input, on a sparse graph with 100x slower
// links and, for step C alone, under the averaging blend: among the
// feasible candidates the exhaustive search's eigensolve shows to lose,
// step A's floor and step C's diagonal bound each reject a nonzero share,
// and neither rejects a candidate that would have won. A search that
// wrongly applied neither bound would still match the exhaustive search;
// this test fails it.
func TestLambda2BoundsFire(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, tc := range []struct {
		name string
		in   Input
	}{
		{"BenchmarkGenerate/N=16", Input{Times: hetTimes(16, 1), Adj: simnet.FullyConnected(16), Alpha: 0.1}},
		{"slowLinks/N=12", Input{Times: slowLinks(rng, hetTimes(12, 7), 0.2), Adj: randomGraph(rng, 12, 0.5, true), Alpha: 0.05}},
		{"averaging/N=16", Input{Times: slowLinks(rng, hetTimes(16, 9), 0.3), Adj: simnet.FullyConnected(16), Alpha: 0.1, AveragingBlend: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var losers, byA, byC int
			_, err := exhaustiveGenerate(tc.in, func(s *search, rho, lim float64, lost bool) {
				a, c := s.l2Floor(rho) > lim, s.diagExceeds(s.in.Alpha*rho, lim)
				if (a || c) && !lost {
					t.Fatalf("ρ = %v: a winning candidate rejected (step A %v, step C %v)", rho, a, c)
				}
				if lost {
					losers++
				}
				if a {
					byA++
				}
				if c {
					byC++
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d losing candidates: step A rejects %d, step C %d", losers, byA, byC)
			if byC == 0 || byA == 0 && !tc.in.AveragingBlend {
				t.Fatalf("%d losing candidates: step A rejects %d, step C %d", losers, byA, byC)
			}
		})
	}
}
