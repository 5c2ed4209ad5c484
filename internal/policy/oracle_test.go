package policy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"netmax/internal/linalg"
	"netmax/internal/simnet"
	"netmax/internal/tensor"
)

// exhaustiveGenerate is Algorithm 3 without the λ₂ bounds and without the
// search's precomputation: it walks runSearch's (ρ, t̄) grid, solves every
// row with plainSolveRows, builds Y with plainBuildY and scores every
// feasible candidate with a full linalg.SymmetricEigenvalues. It checks
// connectivity with plainConnected and shares only newSearch's neighbor
// lists and buffers with Generate, so a disagreement points at the
// connectivity walk, the row solves, the Y build, the bounds or the
// scoring.
//
// A non-nil audit sees every feasible candidate scored once a best exists,
// with s.p holding its P, lim = λ* + boundMargin for the best so far, and
// whether the eigensolve shows it to lose.
func exhaustiveGenerate(in Input, audit func(s *search, rho, lim float64, lost bool)) (*Policy, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	rounds, eps := in.Rounds, in.Epsilon
	if rounds == 0 {
		rounds = DefaultRounds
	}
	if eps == 0 {
		eps = DefaultEpsilon
	}
	if !plainConnected(in.Adj) {
		return nil, ErrNoFeasiblePolicy
	}
	s, _ := newSearch(in, eps)
	var best *Policy
	score := func(rho, tbar, floor float64) {
		if !plainSolveRows(s.p, in, floor, float64(len(s.p))*tbar) {
			return
		}
		plainBuildY(&s.y, s.p, in.Adj, in.Alpha*rho, in.AveragingBlend, s.pg)
		eig, err := linalg.SymmetricEigenvalues(&s.y)
		l2, tconv := math.NaN(), math.NaN()
		if err == nil && len(eig) >= 2 {
			l2 = eig[1]
			tconv = tbar * tensor.Log(eps) / tensor.Log(l2)
		}
		lost := !(l2 < 1 && l2 > 0) || best != nil && !(tconv < best.TConvergence)
		if audit != nil && best != nil {
			audit(&s, rho, tensor.Exp(tbar*tensor.Log(eps)/best.TConvergence)+boundMargin, lost)
		}
		if lost {
			return
		}
		p := matrix(len(s.p))
		for i, row := range s.p {
			copy(p[i], row)
		}
		best = &Policy{P: p, Rho: rho, Lambda2: l2, TBar: tbar, TConvergence: tconv}
	}
	inner := func(rho float64) error {
		floor := 1e-4
		var lo, hi float64
		var err error
		if in.AveragingBlend {
			_, hi, err = FeasibleTimeInterval(in.Times, in.Adj, in.Alpha, 0)
			lo = hi / (10 * float64(rounds))
		} else {
			lo, hi, err = FeasibleTimeInterval(in.Times, in.Adj, in.Alpha, rho)
			floor = float64(2*in.Alpha*rho) + 1e-9
		}
		if err != nil {
			return err
		}
		delta := (hi - lo) / float64(rounds)
		for ri := 1; ri <= rounds; ri++ {
			score(rho, lo+float64(float64(ri)*delta), floor)
		}
		return nil
	}
	if in.AveragingBlend {
		if err := inner(0); err != nil {
			return nil, err
		}
	} else {
		_, ur := FeasibleRhoInterval(in.Alpha)
		if s.maxDeg > 0 {
			ur = min(ur, 0.999/(2*in.Alpha*float64(s.maxDeg)))
		}
		for ki := 0; ki < rounds; ki++ {
			_ = inner(ur / tensor.Pow(1000, 1-float64(ki)/float64(rounds-1)))
		}
	}
	if best == nil {
		return nil, ErrNoFeasiblePolicy
	}
	return best, nil
}

// plainConnected reports whether adj has at least two workers and every
// worker reaches worker 0, relaxing reachability until nothing changes.
func plainConnected(adj [][]bool) bool {
	reach := make([]bool, len(adj))
	reach[0] = true
	for changed := true; changed; {
		changed = false
		for i := range adj {
			for j, ok := range adj[i] {
				if reach[i] && ok && !reach[j] {
					reach[j], changed = true, true
				}
			}
		}
	}
	return len(adj) >= 2 && !slices.Contains(reach, false)
}

// plainSolveRows fills p with the Eq. (14) solution of every row of in at
// the given floor and target, one plainSolveRow per row from scratch, and
// reports false as soon as one row is infeasible.
func plainSolveRows(p [][]float64, in Input, floor, target float64) bool {
	for i := range p {
		row := p[i]
		clear(row)
		var t []float64
		var nbrs []int
		for j, ok := range in.Adj[i] {
			if ok && j != i {
				t, nbrs = append(t, in.Times[i][j]), append(nbrs, j)
			}
		}
		if len(nbrs) == 0 {
			row[i] = 1
			continue
		}
		x := make([]float64, len(nbrs))
		pii, ok := plainSolveRow(t, floor, target, x)
		if !ok {
			return false
		}
		for k, j := range nbrs {
			row[j] = x[k]
		}
		row[i] = pii
	}
	return true
}

// plainRowBudget returns the slack S = 1 − n·floor and the time budget
// B = target − floor·Σt that remain for one row once every neighbor has
// its floor, together with the row's largest time. A budget above t_max·S
// by at most rowTol·t_max is clamped to t_max·S.
func plainRowBudget(t []float64, floor, target float64) (s, b, tmax float64) {
	s, b = 1, target
	for _, tk := range t {
		s -= floor
		b -= float64(tk * floor)
		tmax = max(tmax, tk)
	}
	if b > tmax*s && b-float64(tmax*s) <= rowTol*tmax {
		b = tmax * s
	}
	return s, b, tmax
}

// plainSolveRow is rowLPs.solve on one row with nothing precomputed: the
// budget from plainRowBudget and every step of the vertex walk found by
// scanning the row, dividing as it goes.
func plainSolveRow(t []float64, floor, target float64, p []float64) (pii float64, ok bool) {
	s, b, tmax := plainRowBudget(t, floor, target)
	if s < 0 || b < 0 || b > tmax*s {
		return 0, false
	}
	for k := range p {
		p[k] = floor
	}
	lo, hi := 0, 0
	c, tc := 0, t[0]
	switch {
	case tc*s > b:
		for {
			k := -1
			for j, tj := range t {
				if tj/tc-1 < -rowTol {
					k = j
					break
				}
			}
			if k < 0 {
				y := min(b/tc, s)
				p[c] += y
				return s - y, true
			}
			if t[k]*s <= b {
				lo, hi = k, c
				break
			}
			c, tc = k, t[k]
		}
	case tc*s < b:
		for {
			k := -1
			for j, tj := range t {
				if (tj-tc)/tmax > rowTol {
					k = j
					break
				}
			}
			if k < 0 {
				for j, tj := range t {
					if tj*s >= b {
						k = j
						break
					}
				}
			}
			if t[k]*s >= b {
				lo, hi = c, k
				break
			}
			c, tc = k, t[k]
		}
	}
	if lo == hi {
		p[lo] += s
		return 0, true
	}
	yhi := min(max((b-float64(t[lo]*s))/(t[hi]-t[lo]), 0), s)
	p[lo] += s - yhi
	p[hi] += yhi
	return 0, true
}

// plainWeight is the blend weight w(i,m) = αρ·γ_im of NetMax's update,
// γ_im = (d_im+d_mi)/(2 p_im) (Eq. 22).
func plainWeight(p [][]float64, adj [][]bool, i, j int, ar float64) float64 {
	d := 0.0
	if adj[i][j] {
		d++
	}
	if adj[j][i] {
		d++
	}
	return ar * (d / (2 * p[i][j]))
}

// plainBuildY is buildY entry by entry: every ordered pair (i, j) sums its
// own two sides, with two weights per side, and each row's diagonal
// accumulates while its row is written.
func plainBuildY(y *linalg.Matrix, p [][]float64, adj [][]bool, ar float64, averaging bool, pg []float64) {
	m := len(p)
	for i := 0; i < m; i++ {
		diag := 1.0
		for j := 0; j < m; j++ {
			if j == i {
				continue
			}
			if averaging {
				var mass float64
				if adj[i][j] && p[i][j] > 0 {
					mass += float64(pg[i] * p[i][j])
				}
				if adj[j][i] && p[j][i] > 0 {
					mass += float64(pg[j] * p[j][i])
				}
				half := float64(mass / 2)
				y.Data[i*y.N+j] = half
				diag -= half
				continue
			}
			var first, second float64
			if adj[i][j] && p[i][j] > 0 {
				wij := plainWeight(p, adj, i, j, ar)
				first += float64(pg[i] * p[i][j] * wij)
				second += float64(pg[i] * p[i][j] * wij * wij)
				diag -= float64(2 * pg[i] * p[i][j] * wij)
			}
			if adj[j][i] && p[j][i] > 0 {
				wji := plainWeight(p, adj, j, i, ar)
				first += float64(pg[j] * p[j][i] * wji)
				second += float64(pg[j] * p[j][i] * wji * wji)
			}
			y.Data[i*y.N+j] = first - second
			diag += second
		}
		y.Data[i*y.N+i] = diag
	}
}

// checkRejected requires Generate (on in, and on in with Alive set to
// alive, or to every worker when alive is nil) and exhaustiveGenerate to
// reject in with ErrInvalidInput.
func checkRejected(t *testing.T, in Input, alive []bool) {
	t.Helper()
	if alive == nil {
		alive = make([]bool, len(in.Times))
		for i := range alive {
			alive[i] = true
		}
	}
	live := in
	live.Alive = alive
	_, gerr := Generate(in)
	_, lerr := Generate(live)
	_, xerr := exhaustiveGenerate(in, nil)
	for name, err := range map[string]error{"Generate": gerr, "Generate with Alive": lerr, "exhaustiveGenerate": xerr} {
		if !errors.Is(err, ErrInvalidInput) {
			t.Fatalf("%s: error %v, want ErrInvalidInput", name, err)
		}
	}
}

// undirected reports whether adj is symmetric.
func undirected(adj [][]bool) bool {
	for i, row := range adj {
		for j, ok := range row {
			if ok != adj[j][i] {
				return false
			}
		}
	}
	return true
}

// checkAgainstOracle requires Generate on in with Alive set to alive to
// return bitwise what exhaustiveGenerate returns on the live subgraph,
// embedded as Input.Alive documents: dead rows self-only, dead columns
// zero. A live subgraph that is not connected gets no policy.
func checkAgainstOracle(t *testing.T, in Input, alive []bool) {
	t.Helper()
	live := in
	live.Alive = alive
	got, err := Generate(live)
	m := len(in.Times)
	var idx []int
	for i := 0; i < m; i++ {
		if alive == nil || alive[i] {
			idx = append(idx, i)
		}
	}
	var want *Policy
	var werr error
	if len(idx) < 2 && alive != nil {
		werr = ErrNoFeasiblePolicy
	} else {
		sub := in
		sub.Times, sub.Adj = make([][]float64, len(idx)), make([][]bool, len(idx))
		for a, i := range idx {
			sub.Times[a], sub.Adj[a] = make([]float64, len(idx)), make([]bool, len(idx))
			for b, j := range idx {
				sub.Times[a][b], sub.Adj[a][b] = in.Times[i][j], in.Adj[i][j]
			}
		}
		want, werr = exhaustiveGenerate(sub, nil)
		if err == nil && !plainConnected(sub.Adj) {
			t.Fatal("a policy for a disconnected graph")
		}
	}
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("error %v, exhaustive search gives %v", err, werr)
	}
	if err != nil {
		return
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"Rho", got.Rho, want.Rho},
		{"Lambda2", got.Lambda2, want.Lambda2},
		{"TBar", got.TBar, want.TBar},
		{"TConvergence", got.TConvergence, want.TConvergence},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Fatalf("%s = %v, exhaustive search gives %v", f.name, f.got, f.want)
		}
	}
	if len(got.P) != m {
		t.Fatalf("policy has %d rows, want %d", len(got.P), m)
	}
	pos := make([]int, m)
	for i := range pos {
		pos[i] = -1
	}
	for a, i := range idx {
		pos[i] = a
	}
	for i, row := range got.P {
		for j, v := range row {
			var w float64
			switch {
			case pos[i] >= 0 && pos[j] >= 0:
				w = want.P[pos[i]][pos[j]]
			case i == j:
				w = 1
			}
			if math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("P[%d][%d] = %v, exhaustive search gives %v", i, j, v, w)
			}
		}
	}
}

// randomGraph returns a symmetric graph on m nodes with each edge present
// with probability density, on top of a ring when ring is set.
func randomGraph(rng *rand.Rand, m int, density float64, ring bool) [][]bool {
	adj := make([][]bool, m)
	if ring {
		adj = simnet.Ring(m)
	} else {
		for i := range adj {
			adj[i] = make([]bool, m)
		}
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if rng.Float64() < density {
				adj[i][j], adj[j][i] = true, true
			}
		}
	}
	return adj
}

// slowLinks multiplies each link's time (both directions) by 100 with
// probability frac.
func slowLinks(rng *rand.Rand, times [][]float64, frac float64) [][]float64 {
	for i := range times {
		for j := i + 1; j < len(times); j++ {
			if rng.Float64() < frac {
				times[i][j] *= 100
				times[j][i] *= 100
			}
		}
	}
	return times
}

// TestGenerateMatchesExhaustiveSearch checks that the λ₂ bounds never
// change the policy: step A's per-ρ floor, which ends a ρ's t̄ loop before
// its rows are solved, and step C's diagonal bound, which rejects a
// candidate before Y_P is built, only reject candidates the eigensolve
// shows to lose. Generate returns bitwise the exhaustive
// search's policy on full and sparse graphs, in the averaging mode, with
// dead workers and over a range of grid sizes, and the same error on a
// sparse graph that is not connected. Both reject a directed graph.
func TestGenerateMatchesExhaustiveSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for m := 2; m <= 32; m++ {
		t.Run(fmt.Sprintf("full/N=%d", m), func(t *testing.T) {
			checkAgainstOracle(t, Input{Times: hetTimes(m, int64(m)), Adj: simnet.FullyConnected(m), Alpha: 0.1}, nil)
		})
		t.Run(fmt.Sprintf("sparse/N=%d", m), func(t *testing.T) {
			times := slowLinks(rng, hetTimes(m, int64(m)), 0.2)
			checkAgainstOracle(t, Input{Times: times, Adj: randomGraph(rng, m, 0.3, m%2 == 0), Alpha: 0.05}, nil)
		})
	}
	t.Run("directed", func(t *testing.T) {
		m := 9
		adj := simnet.FullyConnected(m)
		for i := 0; i < m; i++ {
			adj[i][(i+1)%m] = false // keep only the edge (i+1) → i
		}
		in := Input{Times: hetTimes(m, 3), Adj: adj, Alpha: 0.1}
		checkRejected(t, in, nil)
		in.AveragingBlend = true
		checkRejected(t, in, nil)
	})
	for _, m := range []int{4, 12, 24} {
		t.Run(fmt.Sprintf("averaging/N=%d", m), func(t *testing.T) {
			in := Input{Times: slowLinks(rng, hetTimes(m, 5), 0.1), Adj: simnet.FullyConnected(m), Alpha: 0.1, AveragingBlend: true}
			checkAgainstOracle(t, in, nil)
			in.Adj = randomGraph(rng, m, 0.4, true)
			checkAgainstOracle(t, in, nil)
		})
	}
	for _, m := range []int{3, 8, 16} {
		t.Run(fmt.Sprintf("dead/N=%d", m), func(t *testing.T) {
			in := Input{Times: slowLinks(rng, hetTimes(m, 7), 0.1), Adj: simnet.FullyConnected(m), Alpha: 0.1}
			for trial := 0; trial < 4; trial++ {
				alive := make([]bool, m)
				for i := range alive {
					alive[i] = rng.Float64() < 0.7
				}
				checkAgainstOracle(t, in, alive)
			}
		})
	}
	// Rounds sets both of Algorithm 3's grid sizes, K and R; 1 is invalid
	// input, which both searches must report alike.
	for _, rounds := range []int{1, 2, 3, 10, 20} {
		t.Run(fmt.Sprintf("K=%d/R=%d", rounds, rounds), func(t *testing.T) {
			m := 10
			in := Input{Times: slowLinks(rng, hetTimes(m, 11), 0.15), Adj: simnet.FullyConnected(m),
				Alpha: 0.1, Rounds: rounds}
			checkAgainstOracle(t, in, nil)
			in.Adj = randomGraph(rng, m, 0.3, true)
			checkAgainstOracle(t, in, nil)
		})
	}
}

// TestGenerateBreaksTiesInGridOrder pins score's tie rule. With every time
// zero, every feasible candidate has t̄ = 0 and so T = +0, and the winner
// is decided by grid order alone: the exhaustive search, which walks the
// grid upward and keeps only strictly better candidates, picks the first
// feasible one. Generate scores the ρ grid from the cap down and must pick
// the same policy, under both blends.
func TestGenerateBreaksTiesInGridOrder(t *testing.T) {
	for _, m := range []int{2, 3, 8, 16} {
		for _, averaging := range []bool{false, true} {
			t.Run(fmt.Sprintf("N=%d/averaging=%v", m, averaging), func(t *testing.T) {
				in := Input{Times: matrix(m), Adj: simnet.FullyConnected(m), Alpha: 0.1, AveragingBlend: averaging}
				got, err := Generate(in)
				if err != nil {
					t.Fatal(err)
				}
				want, err := exhaustiveGenerate(in, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got.TConvergence != 0 {
					t.Fatalf("T = %v with every time zero", got.TConvergence)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Generate picks ρ = %v, t̄ = %v, λ₂ = %v; the exhaustive search ρ = %v, t̄ = %v, λ₂ = %v",
						got.Rho, got.TBar, got.Lambda2, want.Rho, want.TBar, want.Lambda2)
				}
			})
		}
	}
}

// FuzzGenerate checks Generate, with and without Input.Alive, against the exhaustive
// search on inputs decoded from fuzz bytes: n and rounds give N in 2..16
// and the grid size in 2..20; data, read cyclically, gives two bytes per
// worker pair (the pair's times, whether each direction is an edge, and
// whether the link is 100x slower) and then one byte per worker (dead or
// alive). flags select the averaging blend, dead workers, the rejection arm
// (a graph that may be directed, which every search must reject with
// ErrInvalidInput), all-zero times (every candidate ties at T = 0) and the
// learning rate. A graph or live subgraph that is not connected must get
// ErrNoFeasiblePolicy from every search (checkAgainstOracle).
func FuzzGenerate(f *testing.F) {
	f.Add(uint8(8), uint8(9), uint8(0), []byte{})
	f.Add(uint8(14), uint8(9), uint8(0), []byte{0xf9, 0x08, 0xfa, 0x04, 0x2b, 0x00, 0x5d, 0x00, 0x2b, 0x00, 0x03})
	f.Add(uint8(4), uint8(1), uint8(0x01), []byte{0xbd, 0x02, 0xd4, 0x00, 0x95, 0x04, 0x79, 0x03, 0x40, 0x08, 0x02})
	f.Add(uint8(6), uint8(19), uint8(0x02), []byte{0x67, 0x02, 0x3f, 0x01, 0xed, 0x00, 0xe7, 0x00, 0xb0, 0x08, 0x06})
	f.Add(uint8(5), uint8(9), uint8(0x04), []byte{0x3a, 0x04, 0x6f, 0x00, 0x7d, 0x00, 0xf0, 0x00, 0x80, 0x04, 0x06})
	f.Add(uint8(10), uint8(9), uint8(0x12), []byte{0x18, 0x00, 0x80, 0x00, 0xa4, 0x04, 0x94, 0x00, 0x2e, 0x00, 0x05})
	f.Add(uint8(7), uint8(9), uint8(0x08), []byte{0x18, 0x00, 0x80, 0x03, 0xa4, 0x04, 0x94, 0x00, 0x2e, 0x00, 0x05})
	f.Fuzz(func(t *testing.T, n, rounds, flags uint8, data []byte) {
		m := 2 + int(n)%15
		pos := 0
		next := func() byte { // cycles through data, 0 when empty
			if len(data) == 0 {
				return 0
			}
			pos++
			return data[(pos-1)%len(data)]
		}
		in := Input{
			Times: make([][]float64, m), Adj: make([][]bool, m),
			Alpha:          []float64{0.1, 0.01, 0.3, 0.05}[flags>>4&3],
			Rounds:         2 + int(rounds)%19,
			AveragingBlend: flags&1 != 0,
		}
		for i := range in.Times {
			in.Times[i], in.Adj[i] = make([]float64, m), make([]bool, m)
		}
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				tb, eb := next(), next()
				v := 1 + float64(tb)/16
				if eb&4 != 0 {
					v *= 100
				}
				in.Times[i][j], in.Times[j][i] = v, v
				if eb&8 != 0 {
					in.Times[j][i] = v * (1 + float64(tb&7)/8)
				}
				if flags&8 != 0 {
					in.Times[i][j], in.Times[j][i] = 0, 0
				}
				// Bits 0 and 1 set drop the link; in the rejection arm they
				// drop i → j and j → i on their own. An empty data stream
				// gives the full graph.
				in.Adj[i][j], in.Adj[j][i] = eb&3 != 3, eb&3 != 3
				if flags&4 != 0 {
					in.Adj[i][j], in.Adj[j][i] = eb&1 == 0, eb&2 == 0
				}
			}
		}
		var alive []bool
		if flags&2 != 0 {
			alive = make([]bool, m)
			for i := range alive {
				alive[i] = next()&3 != 0
			}
		}
		if !undirected(in.Adj) {
			checkRejected(t, in, alive)
			return
		}
		checkAgainstOracle(t, in, alive)
	})
}

// checkBuildY requires buildY, on warm scratch holding garbage, to write
// bitwise what plainBuildY writes, and yDiag to return bitwise its
// diagonal, for the input decoded from fuzz bytes: n gives N in 1..16;
// data, read cyclically, gives one byte per ordered
// pair (whether it is an edge, and p as zero, subnormal, tiny or an
// ordinary probability) and then one byte per worker (pg as zero,
// subnormal, 1/N or another value in [0, 4)). The graph is undirected: a
// pair i > j takes its edge from (j, i), and no worker is its own
// neighbor, but p may put mass anywhere. flags select the averaging blend
// and αρ; bit 1 is unused.
func checkBuildY(t *testing.T, n, flags uint8, data []byte) {
	t.Helper()
	m := 1 + int(n)%16
	pos := 0
	next := func() byte { // cycles through data, 0 when empty
		if len(data) == 0 {
			return 0
		}
		pos++
		return data[(pos-1)%len(data)]
	}
	p, adj, pg := matrix(m), make([][]bool, m), make([]float64, m)
	for i := range adj {
		adj[i] = make([]bool, m)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			b := next()
			adj[i][j] = b&1 == 0 && j > i || j < i && adj[j][i]
			k := float64(b>>3) + 1
			switch b >> 1 & 3 {
			case 1:
				p[i][j] = k * math.SmallestNonzeroFloat64
			case 2:
				p[i][j] = k * 1e-300
			case 3:
				p[i][j] = k / 32
			}
		}
	}
	for i := range pg {
		b := next()
		switch b & 3 {
		case 1:
			pg[i] = float64(b>>2) * math.SmallestNonzeroFloat64
		case 2:
			pg[i] = 1 / float64(m)
		case 3:
			pg[i] = float64(b>>2) / 16
		}
	}
	ar := []float64{0.05, 0.01, 1, 0, 3e-5, 40, 0.5, 1e-300}[flags>>2&7]
	averaging := flags&1 != 0

	got, diag := linalg.NewMatrix(m), make([]float64, m)
	for i := range got.Data {
		got.Data[i] = math.NaN()
	}
	for i := range diag {
		diag[i] = -7
	}
	nbrs := neighbors(adj)
	buildY(got, p, nbrs, ar, averaging, pg, diag)
	want := linalg.NewMatrix(m)
	plainBuildY(want, p, adj, ar, averaging, pg)
	for k, v := range got.Data {
		if math.Float64bits(v) != math.Float64bits(want.Data[k]) {
			t.Fatalf("y[%d][%d] = %v, plainBuildY gives %v", k/m, k%m, v, want.Data[k])
		}
	}
	for i := 0; i < m; i++ {
		if v, w := yDiag(p, nbrs[i], i, ar, averaging, pg), want.At(i, i); math.Float64bits(v) != math.Float64bits(w) {
			t.Fatalf("yDiag(%d) = %v, plainBuildY gives %v", i, v, w)
		}
	}
}

// TestBuildYMatchesPlain runs checkBuildY on random inputs: every size,
// undirected graph and blend mode, with zero and subnormal p and pg.
func TestBuildYMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	data := make([]byte, 300)
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(len(data))
		rng.Read(data[:n])
		checkBuildY(t, uint8(rng.Intn(256)), uint8(rng.Intn(256)), data[:n])
	}
}

// FuzzBuildY is checkBuildY on fuzzed bytes.
func FuzzBuildY(f *testing.F) {
	f.Add(uint8(7), uint8(0), []byte{})
	f.Add(uint8(15), uint8(0x02), []byte{0x07, 0x36, 0xfe, 0x1d, 0x3b, 0x0e, 0xa5})
	f.Add(uint8(9), uint8(0x03), []byte{0x02, 0x17, 0x0c, 0x96, 0x3f, 0x44})
	f.Add(uint8(4), uint8(0x14), []byte{0x02, 0x03, 0x05, 0x06, 0x0e, 0x01})
	f.Add(uint8(12), uint8(0x1e), []byte{0xf6, 0x0d, 0x7c, 0x2a, 0x99})
	f.Fuzz(checkBuildY)
}
