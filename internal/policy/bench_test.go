package policy

import (
	"fmt"
	"math"
	"testing"

	"netmax/internal/simnet"
	"netmax/internal/tensor"
)

// benchInput is BenchmarkGenerate's input at N = m: a fully connected graph
// with heterogeneous link times.
func benchInput(m int) Input {
	return Input{Times: hetTimes(m, 1), Adj: simnet.FullyConnected(m), Alpha: 0.1}
}

// BenchmarkGenerate measures one full Algorithm 3 search (K = R = 10) on
// benchInput, as a function of N.
func BenchmarkGenerate(b *testing.B) {
	benchmarkGenerate(b, false)
}

// BenchmarkGenerateAveraging is BenchmarkGenerate under the averaging
// blend, the AD-PSGD+Monitor path: a single ρ, so the order in which the ρ
// grid is scored plays no part in it.
func BenchmarkGenerateAveraging(b *testing.B) {
	benchmarkGenerate(b, true)
}

func benchmarkGenerate(b *testing.B, averaging bool) {
	for _, m := range []int{8, 16, 32, 64} {
		in := benchInput(m)
		in.AveragingBlend = averaging
		b.Run(fmt.Sprintf("N=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Generate(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBestFirstEigensolves pins what scoring the ρ grid from the cap down
// buys: on BenchmarkGenerate's inputs the first ρ scored holds the winner,
// and the λ₂ bounds reject all but at most one of the 10×10 grid's other
// candidates before their eigensolve.
func TestBestFirstEigensolves(t *testing.T) {
	for _, m := range []int{8, 16, 32, 64} {
		s := runSearch(benchInput(m), nil)
		t.Logf("N=%d: %d eigensolves", m, s.eigensolves)
		if s.eigensolves > 2 {
			t.Errorf("N=%d: %d eigensolves, want at most 2", m, s.eigensolves)
		}
	}
}

// TestSetFloorOnlyForScoredRho pins where innerLoop prepares a ρ's rows:
// on BenchmarkGenerate's inputs, walking runSearch's ρ grid, setFloor runs
// for a ρ exactly when its t̄ interval is non-empty and its first t̄ passes
// step A, that is when the ρ scores at least one candidate, and most ρ
// values never reach it.
func TestSetFloorOnlyForScoredRho(t *testing.T) {
	for _, m := range []int{8, 16, 32, 64} {
		in := benchInput(m)
		s, _ := newSearch(in, DefaultEpsilon, nil)
		r := DefaultRounds
		ur := 0.999 / (2 * in.Alpha * float64(s.maxDeg)) // below 0.5/α on a complete graph
		scored := 0
		for ki := r - 1; ki >= 0; ki-- {
			rho := ur / tensor.Pow(1000, 1-float64(ki)/float64(r-1))
			lo, hi, ok := timeInterval(s.rows.sum, s.rows.tmax, in.Alpha, rho)
			first := ok && s.l2Floor(rho) <= s.lossLimit(lo+(hi-lo)/float64(r))
			floors := s.floors
			s.innerLoop(ki, rho, r)
			if got := s.floors - floors; got != 0 && !first || got != 1 && first {
				t.Errorf("N=%d, ρ index %d: setFloor ran %d times, first t̄ scored: %v", m, ki, got, first)
			}
			if first {
				scored++
			}
		}
		full := runSearch(in, nil)
		t.Logf("N=%d: setFloor for %d of %d ρ", m, full.floors, r)
		if full.floors != scored || full.best.TConvergence != s.best.TConvergence {
			t.Errorf("N=%d: runSearch set %d floors and found T = %v, the grid walk %d and %v",
				m, full.floors, full.best.TConvergence, scored, s.best.TConvergence)
		}
		if scored > r/2 {
			t.Errorf("N=%d: %d of %d ρ scored a candidate, want at most half", m, scored, r)
		}
	}
}

// setupSink keeps BenchmarkSearchSetup's calls from being optimized away.
var setupSink search

// BenchmarkSearchSetup measures a Generate call's fixed set-up alone,
// newSearch on benchInput, as a function of N.
func BenchmarkSearchSetup(b *testing.B) {
	for _, m := range []int{8, 16, 32, 64} {
		in := benchInput(m)
		b.Run(fmt.Sprintf("N=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				setupSink, _ = newSearch(in, DefaultEpsilon, nil)
			}
		})
	}
}

// warmCandidate returns a search over BenchmarkGenerate's input at N = m,
// set up for the (ρ, t̄) candidate Generate picks on it, and that policy.
func warmCandidate(tb testing.TB, m int) (*search, *Policy) {
	tb.Helper()
	in := benchInput(m)
	pol, err := Generate(in)
	if err != nil {
		tb.Fatal(err)
	}
	s, _ := newSearch(in, DefaultEpsilon, nil)
	s.rows.setFloor(float64(2*in.Alpha*pol.Rho) + 1e-9)
	return &s, pol
}

// BenchmarkSolveRows measures one candidate's row solves on a warm search.
func BenchmarkSolveRows(b *testing.B) {
	for _, m := range []int{8, 16, 32, 64} {
		s, pol := warmCandidate(b, m)
		b.Run(fmt.Sprintf("N=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !s.solveRows(float64(m) * pol.TBar) {
					b.Fatal("the chosen candidate is infeasible")
				}
			}
		})
	}
}

// BenchmarkBuildY measures one candidate's Y_P build on a warm search.
func BenchmarkBuildY(b *testing.B) {
	for _, m := range []int{8, 16, 32, 64} {
		s, pol := warmCandidate(b, m)
		if !s.solveRows(float64(m) * pol.TBar) {
			b.Fatal("the chosen candidate is infeasible")
		}
		b.Run(fmt.Sprintf("N=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildY(&s.y, s.p, s.nbrs, s.in.Alpha*pol.Rho, false, s.pg, s.diag)
			}
		})
	}
}

// BenchmarkDiagonalBound measures step C's diagonal bound on a warm
// search in its most expensive case, a limit just above the candidate's
// own λ₂: every row's diagonal is summed and none proves anything.
func BenchmarkDiagonalBound(b *testing.B) {
	for _, m := range []int{8, 16, 32, 64} {
		s, pol := warmCandidate(b, m)
		if !s.solveRows(float64(m) * pol.TBar) {
			b.Fatal("the chosen candidate is infeasible")
		}
		b.Run(fmt.Sprintf("N=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if s.diagExceeds(s.in.Alpha*pol.Rho, pol.Lambda2+boundMargin) {
					b.Fatal("the diagonal bound proves λ₂ above λ₂")
				}
			}
		})
	}
}

// TestCandidateAllocatesNothing pins the buffer reuse per candidate: on a
// warm search, one candidate's row solves, diagonal bound and Y build
// allocate nothing, and they rebuild the P that Generate chose.
func TestCandidateAllocatesNothing(t *testing.T) {
	m := 16
	s, pol := warmCandidate(t, m)
	allocs := testing.AllocsPerRun(20, func() {
		if !s.solveRows(float64(m) * pol.TBar) {
			t.Fatal("the chosen candidate is infeasible")
		}
		if s.diagExceeds(s.in.Alpha*pol.Rho, pol.Lambda2+boundMargin) {
			t.Fatal("the diagonal bound rejects the chosen candidate")
		}
		buildY(&s.y, s.p, s.nbrs, s.in.Alpha*pol.Rho, false, s.pg, s.diag)
	})
	if allocs != 0 {
		t.Fatalf("one candidate allocates %v times", allocs)
	}
	for i, row := range s.p {
		for j, v := range row {
			if math.Float64bits(v) != math.Float64bits(pol.P[i][j]) {
				t.Fatalf("P[%d][%d] = %v, Generate chose %v", i, j, v, pol.P[i][j])
			}
		}
	}
}
