package policy

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// solveRow solves the one row with neighbor times t through the search's
// row solver: newRowLPs, setFloor and solve.
func solveRow(t []float64, floor, target float64, p []float64) (pii float64, ok bool) {
	n := len(t)
	a := arena{f: make([]float64, 4+n+1+n), n: make([]int, n), fs: make([][]float64, 1), ns: make([][]int, 2)}
	r := newRowLPs([][]float64{t}, &a)
	r.setFloor(floor)
	return r.solve(0, target, p)
}

// TestSolveRowVertex pins the vertex solveRow picks on rows where the
// choice is delicate. The expected rows are the vertices the two-phase
// Bland simplex that solveRow replaced returned on the same input (nil:
// infeasible), so regenerated policies are unchanged.
func TestSolveRowVertex(t *testing.T) {
	tm := []float64{1, 2, 10}
	scaled := func(s float64) []float64 { return []float64{tm[0] * s, tm[1] * s, tm[2] * s} }
	cases := []struct {
		name          string
		t             []float64
		floor, target float64
		want          []float64 // neighbors, then p_ii
	}{
		// Links 0 and 1 differ by 1.3e-10 relative: the walk up from 0
		// must skip 1 and mix 0 with 2, not 1 with 2.
		{"near-tie", []float64{0.1, 0.10000000001252374, 0.312, 0.312, 0.9902247258079002, 0.312, 0.312}, 0.01, 0.2,
			[]float64{0.550293619142473, 0.01, 0.39970638085752697, 0.01, 0.01, 0.01, 0.01, 0}},
		// Link 1 is cheaper than link 0 by less than rowTol: B stays on 0.
		{"near-tie-down", []float64{0.10000000001252374, 0.1, 0.312}, 0.01, 0.05,
			[]float64{0.45879999994254117, 0.01, 0.01, 0.5212000000574588}},
		{"zero-first", []float64{0, 1, 2}, 0.05, 0.5, []float64{0.55, 0.4, 0.05, 0}},
		{"zero-middle", []float64{1, 0, 2}, 0.05, 0.5, []float64{0.4, 0.55, 0.05, 0}},
		{"zero-budget", []float64{2, 1, 0}, 0.25, 0.75, []float64{0.25, 0.25, 0.5, 0}},
		{"all-equal", []float64{3, 3, 3, 3}, 0.1, 2,
			[]float64{0.3666666666666666, 0.1, 0.1, 0.1, 0.3333333333333335}},
		{"all-equal-at-max", []float64{2, 2, 2, 2}, 0.125, 2, []float64{0.625, 0.125, 0.125, 0.125, 0}},
		{"at-min", []float64{4, 2, 8}, 0.125, 3, []float64{0.125, 0.75, 0.125, 0}},
		{"at-max", []float64{4, 2, 8}, 0.125, 6.75, []float64{0.125, 0.125, 0.75, 0}},
		{"above-max", []float64{4, 2, 8}, 0.125, 6.75 + 1e-6, nil},
		{"floors-overfill", []float64{1, 2, 3}, 0.5, 1, nil},
		{"negative-budget", []float64{1, 2, 3}, 0.1, 0.5, nil},
		{"walk-up", []float64{1, 2, 3, 5, 8}, 0.02, 6,
			[]float64{0.02, 0.02, 0.02, 0.5466666666666662, 0.3933333333333337, 0}},
		{"walk-down", []float64{8, 5, 3, 2, 1}, 0.02, 1.5,
			[]float64{0.02, 0.02, 0.02, 0.2399999999999998, 0.7000000000000001, 0}},
		// The iteration-time scales of the simplex's regression tests.
		{"scale-1", scaled(1), 0.05, 1.5, []float64{0.9, 0.05, 0.05, 0}},
		{"scale-1e-6", scaled(1e-6), 0.05, 1.5e-6, []float64{0.9, 0.05, 0.05, 0}},
		{"scale-1e-10", scaled(1e-10), 0.05, 1.5e-10, []float64{0.9, 0.05, 0.05, 0}},
		{"scale-1e-12", scaled(1e-12), 0.05, 1.5e-12, []float64{0.9, 0.05, 0.05, 0}},
		{"scale-1e6", scaled(1e6), 0.05, 1.5e6, []float64{0.9, 0.05, 0.05, 0}},
		{"scale-1e12", scaled(1e12), 0.05, 1.5e12, []float64{0.9, 0.05, 0.05, 0}},
	}
	for _, c := range cases {
		p := make([]float64, len(c.t))
		pii, ok := solveRow(c.t, c.floor, c.target, p)
		if ok != (c.want != nil) {
			t.Errorf("%s: feasible = %v, want %v", c.name, ok, c.want != nil)
			continue
		}
		if !ok {
			continue
		}
		got := append(p, pii)
		for k := range got {
			if math.Abs(got[k]-c.want[k]) > 1e-9 {
				t.Errorf("%s: row = %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}

// checkRow fails t unless p (neighbors) and pii form a feasible row of the
// Eq. (14) LP: every p_k ≥ floor − tol, p_ii ≥ −tol, Σp + p_ii = 1 and
// Σ t·p = target, each to tol.
func checkRow(t *testing.T, tm []float64, floor, target float64, p []float64, pii, tol float64) {
	t.Helper()
	sum, dot := pii, 0.0
	for k, v := range p {
		if v < floor-tol {
			t.Fatalf("p[%d] = %v below the floor %v", k, v, floor)
		}
		sum += v
		dot += tm[k] * v
	}
	if pii < -tol {
		t.Fatalf("p_ii = %v is negative", pii)
	}
	if math.Abs(sum-1) > tol {
		t.Fatalf("row sums to %v (p=%v p_ii=%v)", sum, p, pii)
	}
	if math.Abs(dot-target) > tol {
		t.Fatalf("Σ t·p = %v, want %v (p=%v)", dot, target, p)
	}
}

// TestPolicyRowShapeLP solves one worker row with 3 neighbors, times
// t = [1, 2, 10], floor 0.05 and time budget 1.5: the fast link gets the
// bulk of the mass.
func TestPolicyRowShapeLP(t *testing.T) {
	tm := []float64{1, 2, 10}
	floor, target := 0.05, 1.5
	p := make([]float64, len(tm))
	pii, ok := solveRow(tm, floor, target, p)
	if !ok {
		t.Fatal("row reported infeasible")
	}
	checkRow(t, tm, floor, target, p, pii, 1e-7)
	if p[0] < p[2] {
		t.Fatalf("fast link prob %v < slow link prob %v", p[0], p[2])
	}
}

// TestScaleInvariance solves the same row with its iteration times in
// wildly different units: the probabilities must not change.
func TestScaleInvariance(t *testing.T) {
	tm := []float64{1, 2, 10}
	solve := func(s float64) []float64 {
		t.Helper()
		row := []float64{tm[0] * s, tm[1] * s, tm[2] * s}
		p := make([]float64, len(row))
		pii, ok := solveRow(row, 0.05, 1.5*s, p)
		if !ok {
			t.Fatalf("scale %g: row reported infeasible", s)
		}
		// Check the budget in the unscaled units.
		checkRow(t, tm, 0.05, 1.5, p, pii, 1e-6)
		return append(p, pii)
	}
	ref := solve(1)
	for _, s := range []float64{1e-6, 1e-10, 1e-12, 1e6, 1e12} {
		x := solve(s)
		for i := range ref {
			if math.Abs(x[i]-ref[i]) > 1e-6 {
				t.Fatalf("scale %g: row = %v, want %v", s, x, ref)
			}
		}
	}
}

// TestInfeasibleLowerBoundsVsSum: two neighbors with floor 0.6 each
// overfill the row, whatever the budget.
func TestInfeasibleLowerBoundsVsSum(t *testing.T) {
	p := make([]float64, 2)
	for _, target := range []float64{0, 1.2, 5} {
		if _, ok := solveRow([]float64{1, 1}, 0.6, target, p); ok {
			t.Fatalf("target %v: floors 0.6+0.6 > 1 reported feasible (p=%v)", target, p)
		}
	}
}

// TestLowerBounds: with t = [2, 1], floor 0.3 and budget 1.3, the costly
// link stays at its floor and the cheap one takes the rest.
func TestLowerBounds(t *testing.T) {
	tm := []float64{2, 1}
	p := make([]float64, 2)
	pii, ok := solveRow(tm, 0.3, 1.3, p)
	if !ok {
		t.Fatal("row reported infeasible")
	}
	if math.Abs(p[0]-0.3) > 1e-8 || math.Abs(p[1]-0.7) > 1e-8 || math.Abs(pii) > 1e-8 {
		t.Fatalf("p = %v p_ii = %v, want [0.3 0.7] and 0", p, pii)
	}
	if dot := tm[0]*p[0] + tm[1]*p[1]; math.Abs(dot-1.3) > 1e-8 {
		t.Fatalf("Σ t·p = %v, want 1.3", dot)
	}
}

// TestOptimalityAgainstVertexEnumeration2D walks a fine grid of the
// feasible rows of a 2-neighbor LP and checks that none has a smaller p_ii
// than solveRow's.
func TestOptimalityAgainstVertexEnumeration2D(t *testing.T) {
	tm := []float64{3, 1}
	floor, target := 0.1, 0.5
	p := make([]float64, 2)
	pii, ok := solveRow(tm, floor, target, p)
	if !ok {
		t.Fatal("row reported infeasible")
	}
	checkRow(t, tm, floor, target, p, pii, 1e-9)
	for a := floor; a <= 1; a += 0.001 {
		b := (target - tm[0]*a) / tm[1] // the budget fixes p_1
		self := 1 - a - b
		if b < floor || self < 0 {
			continue
		}
		if self < pii-1e-6 {
			t.Fatalf("grid row (%v, %v) has p_ii %v, beats solver %v (p=%v)", a, b, self, pii, p)
		}
	}
}

// TestRandomFeasibilityProperty: on random rows whose budget comes from a
// feasible point, solveRow reports the row feasible and returns a row that
// meets every constraint.
func TestRandomFeasibilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		floor := rng.Float64() / float64(2*n)
		s := 1 - float64(n)*floor
		// A random feasible row z: floors plus a share of a fraction of S.
		tm, z := make([]float64, n), make([]float64, n)
		w, wsum := make([]float64, n), 0.0
		for k := range w {
			tm[k] = rng.Float64() * 3
			w[k] = rng.Float64()
			wsum += w[k]
		}
		share := s * (0.1 + 0.9*rng.Float64())
		target := 0.0
		for k := range z {
			z[k] = floor + share*w[k]/wsum
			target += tm[k] * z[k]
		}
		p := make([]float64, n)
		pii, ok := solveRow(tm, floor, target, p)
		if !ok {
			return false
		}
		sum, dot := pii, 0.0
		for k, v := range p {
			if v < floor-1e-7 {
				return false
			}
			sum += v
			dot += tm[k] * v
		}
		return pii >= -1e-7 && math.Abs(sum-1) <= 1e-6 && math.Abs(dot-target) <= 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// parseRow reads a fuzzed time row: space-separated finite, non-negative
// times of moderate magnitude (products and sums must not overflow).
func parseRow(s string) ([]float64, bool) {
	fields := strings.Fields(s)
	if len(fields) == 0 || len(fields) > 64 {
		return nil, false
	}
	t := make([]float64, len(fields))
	for k, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || !(v >= 0 && v <= 1e150) {
			return nil, false
		}
		t[k] = v
	}
	return t, true
}

// bruteForceRow returns the smallest p_ii over every vertex of the row LP
// on the budget plainRowBudget leaves: the 2-column bases of
// {Σ t·y = B, Σ y + p_ii = S} — two links, or one link and p_ii — plus the
// single-column supports that the bases degenerate to. Feasibility of a
// basis is decided from the signs of its solution, computed as the
// products t·S against B.
func bruteForceRow(t []float64, floor, target float64) (pii float64, feasible bool) {
	s, b, _ := plainRowBudget(t, floor, target)
	if s < 0 {
		return 0, false
	}
	best := math.Inf(1)
	for j, tj := range t {
		if tj*s == b {
			best = 0 // all of S on j
		}
		if tj > 0 && b >= 0 && b <= tj*s {
			best = min(best, s-b/tj) // y_j = B/t_j, the rest on p_ii
		}
		for _, tk := range t[j+1:] {
			lo, hi := min(tj, tk), max(tj, tk)
			if lo < hi && lo*s <= b && b <= hi*s {
				best = 0 // S mixed between j and k
			}
		}
	}
	if b == 0 {
		best = min(best, s) // everything on p_ii
	}
	return best, !math.IsInf(best, 1)
}

// FuzzSolveRow checks solveRow against its definition on arbitrary rows:
// it never panics, agrees with brute-force vertex enumeration on
// feasibility and on the optimal p_ii, and a feasible row sums to one,
// meets the floors and meets the time budget. Its feasibility, p_ii and
// row are bitwise plainSolveRow's, which finds every walk step by scanning
// the row from its start instead of following walkChains' chains.
func FuzzSolveRow(f *testing.F) {
	f.Fuzz(func(t *testing.T, times string, floor, target float64) {
		row, ok := parseRow(times)
		if !ok || !(floor >= 0 && floor <= 1) || !(math.Abs(target) <= 1e150) {
			t.Skip()
		}
		p := make([]float64, len(row))
		pii, ok := solveRow(row, floor, target, p)
		plain := make([]float64, len(row))
		plainPii, plainOK := plainSolveRow(row, floor, target, plain)
		if ok != plainOK || math.Float64bits(pii) != math.Float64bits(plainPii) {
			t.Fatalf("solveRow = (%v, %v), plainSolveRow = (%v, %v)", pii, ok, plainPii, plainOK)
		}
		for k := range p {
			if math.Float64bits(p[k]) != math.Float64bits(plain[k]) {
				t.Fatalf("p[%d] = %v, plainSolveRow gives %v", k, p[k], plain[k])
			}
		}
		want, feasible := bruteForceRow(row, floor, target)
		if ok != feasible {
			t.Fatalf("feasible = %v, brute force says %v", ok, feasible)
		}
		if !ok {
			return
		}
		s, _, tmax := plainRowBudget(row, floor, target)
		if pii < 0 || math.Abs(pii-want) > 2*rowTol*s+1e-15 {
			t.Fatalf("p_ii = %v, brute-force optimum %v", pii, want)
		}
		sum, dot := pii, 0.0
		for k, v := range p {
			if v < floor {
				t.Fatalf("p[%d] = %v below the floor %v", k, v, floor)
			}
			sum += v
			dot += row[k] * v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row sums to %v", sum)
		}
		// The budget is met to rowTol relative to the row's time scale.
		if math.Abs(dot-target) > 1e-9*max(math.Abs(target), tmax) {
			t.Fatalf("Σ t·p = %v, want %v", dot, target)
		}
	})
}
