// Package policy implements NetMax's communication-policy generation
// (Section III-C, Algorithm 3) and the spectral machinery behind it
// (Section IV, Eq. 20-22).
//
// Given the iteration-time matrix t[i][m] collected by the Network Monitor,
// Generate searches K values of the consensus weight ρ and, for each, R
// values of the target mean iteration time t̄; every (ρ, t̄) candidate is
// turned into a concrete probability matrix P by solving the Eq. (14) row
// LP of every worker in closed form (rowLPs), scored by the predicted
// convergence time T = t̄ · ln ε / ln λ₂(Y_P), and the best-scoring policy
// is returned. λ₂ comes from a tridiagonal QL eigensolve (linalg).
//
// The graph is the paper's: d_{i,m} marks the neighbors of an undirected
// graph, so Adj must be symmetric with a false diagonal (ErrInvalidInput
// otherwise). Randomized gossip on a graph has λ₂ < 1 exactly when the
// graph is connected (Boyd et al., IEEE Trans. Inf. Theory 2006), so a
// graph with fewer than two workers or more than one component has no
// policy (ErrNoFeasiblePolicy); GenerateLive asks this of the live
// subgraph.
//
// Most candidates lose, and two closed-form lower bounds on λ₂ reject
// most of the losers before their eigensolve. Both come from the Rayleigh
// quotient at eᵢ − 1/N, which bounds λ₂ since Y_P·1 = 1 on an undirected
// graph with the search's pg = 1/N. Step A (l2Floor, one-sided blend only) bounds every candidate of
// a ρ before any row is solved and ends that ρ's t̄ loop; step C
// (diagExceeds) bounds one candidate from the diagonal of Y_P, in O(deg)
// per row, before Y_P is built. Both reject only candidates that would
// have lost, so the chosen policy is bitwise the one an eigensolve of
// every candidate picks (see score).
//
// The bounds need a good best to reject against, so the ρ grid is scored
// from the cap down, each ρ's t̄ in ascending order. λ₂ falls as ρ grows,
// so the first ρ scored usually holds the winner, and the bounds reject
// almost every later candidate. A tie in T goes to the lower grid index,
// ρ's first: the winner is the least (T, ρ index, t̄ index), the candidate
// an ascending walk that keeps only strictly better ones picks.
//
// Whatever does not depend on the candidate is computed once. Per Generate
// call: each row's neighbor times, its largest time, the sums behind
// FeasibleTimeInterval and the two chains of the row solver's vertex walk,
// in buffers cut from one allocation per element type (newSearch). Per ρ
// that scores a candidate: each row's slack and floor products. A
// candidate then only subtracts its row budgets, walks a chain and builds
// Y_P one edge at a time (buildY), into those buffers. Test-only
// plain versions that redo all of it per candidate (plainSolveRows,
// plainBuildY) check every policy bit.
package policy

import (
	"errors"
	"fmt"
	"math"

	"netmax/internal/linalg"
	"netmax/internal/tensor"
)

// Input bundles everything Algorithm 3 needs.
type Input struct {
	// Times[i][m] is the measured iteration time of worker i when pulling
	// from neighbor m (seconds); it must be finite and non-negative on every
	// edge. Entries for non-neighbors are ignored.
	Times [][]float64
	// Adj is the communication graph d[i][m]: symmetric, with no worker
	// its own neighbor. A graph that is not connected has no policy.
	Adj [][]bool
	// Alpha is the SGD learning rate α.
	Alpha float64
	// Rounds is the grid size of Algorithm 3, used for both its outer ρ
	// loop (K) and its inner t̄ loop (R). Zero defaults to DefaultRounds;
	// a negative value is invalid, and so is 1: a one-point ρ grid tries
	// only the top of the range, where the row floors 2αρ leave almost no
	// feasible policy. So is a value above MaxRounds.
	Rounds int
	// Epsilon is the convergence target ε of Eq. (9), in (0, 1). Zero
	// defaults to DefaultEpsilon.
	Epsilon float64
	// AveragingBlend selects the Section III-D extension mode: the worker
	// update is AD-PSGD's fixed averaging x_i ← (x_i+x_j)/2 instead of the
	// 1/p-scaled consensus blend. The positivity constraint on Y's entries
	// (the paper's replacement for Eq. 11) then only requires p_im > 0, so
	// the row LPs use a tiny floor instead of 2αρ, and ρ plays no role in
	// the update (a single outer iteration is searched).
	AveragingBlend bool
}

// Policy is the output of Algorithm 3.
type Policy struct {
	// P[i][m] is the probability that worker i selects neighbor m
	// (P[i][i] is the probability of skipping communication).
	P [][]float64
	// Rho is the consensus weight ρ shipped to the workers with P.
	Rho float64
	// Lambda2 is the second-largest eigenvalue of Y_P (Theorem 1).
	Lambda2 float64
	// TBar is the global mean iteration time of the chosen candidate.
	TBar float64
	// TConvergence is the predicted convergence time t̄·ln ε/ln λ₂ used as
	// the selection objective (Eq. 8).
	TConvergence float64
}

// ErrNoFeasiblePolicy is returned when the graph (for GenerateLive, the live
// subgraph) has fewer than two workers or is not connected, so that every
// policy has λ₂ = 1, or when no (ρ, t̄) candidate admits a feasible
// probability matrix; callers keep their last policy or fall back to
// Uniform.
var ErrNoFeasiblePolicy = errors.New("policy: no feasible policy found")

// ErrInvalidInput is returned, wrapped with the offending entry, when
// Generate is given a malformed Input: an empty, ragged or non-square
// Times or Adj, an Adj that is not symmetric or marks a worker its own
// neighbor, more than MaxWorkers workers, a NaN, infinite or negative
// time on an edge, a learning rate that is not a positive finite number, a
// negative Rounds, Rounds 1 or Rounds above MaxRounds, or a nonzero
// Epsilon outside (0, 1). Validate returns it for a policy no worker may
// adopt.
var ErrInvalidInput = errors.New("policy: invalid input")

// rowSumTol is how far a policy row may sum from 1 and still be adopted:
// well above the rounding of the closed-form row solves, well below any
// meaningful probability.
const rowSumTol = 1e-6

// Validate checks a policy (p, rho) received from outside the process before
// a worker of an m-worker group adopts it: p must have m rows of m entries,
// every entry finite and non-negative, every row summing to 1, and rho must
// be finite and positive. rho has no upper bound: Algorithm 3 caps it at
// 0.999/(2α·deg_max), which exceeds 1 for small α, and the blend
// coefficient is clamped to 1 anyway.
func Validate(p [][]float64, rho float64, m int) error {
	if len(p) != m {
		return fmt.Errorf("%w: policy has %d rows, want %d", ErrInvalidInput, len(p), m)
	}
	for i, row := range p {
		if len(row) != m {
			return fmt.Errorf("%w: policy row %d has %d entries, want %d", ErrInvalidInput, i, len(row), m)
		}
		sum := 0.0
		for j, v := range row {
			if !(v >= 0 && v <= math.MaxFloat64) {
				return fmt.Errorf("%w: policy p[%d][%d] = %v", ErrInvalidInput, i, j, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > rowSumTol {
			return fmt.Errorf("%w: policy row %d sums to %v", ErrInvalidInput, i, sum)
		}
	}
	if !(rho > 0 && rho <= math.MaxFloat64) {
		return fmt.Errorf("%w: rho %v", ErrInvalidInput, rho)
	}
	return nil
}

// validate checks in for ErrInvalidInput.
func (in *Input) validate() error {
	m := len(in.Times)
	if m == 0 || len(in.Adj) != m {
		return fmt.Errorf("%w: %d time rows and %d adjacency rows", ErrInvalidInput, m, len(in.Adj))
	}
	if m > MaxWorkers {
		return fmt.Errorf("%w: %d workers above the cap of %d", ErrInvalidInput, m, MaxWorkers)
	}
	if !(in.Alpha > 0) || math.IsInf(in.Alpha, 1) {
		return fmt.Errorf("%w: learning rate %v", ErrInvalidInput, in.Alpha)
	}
	if in.Rounds < 0 {
		return fmt.Errorf("%w: rounds %d; use 0 for the default or at least 2", ErrInvalidInput, in.Rounds)
	}
	if in.Rounds == 1 {
		return fmt.Errorf("%w: rounds 1 gives a one-point grid; use 0 for the default or at least 2", ErrInvalidInput)
	}
	if in.Rounds > MaxRounds {
		return fmt.Errorf("%w: rounds %d above the cap of %d", ErrInvalidInput, in.Rounds, MaxRounds)
	}
	if in.Epsilon != 0 && !(in.Epsilon > 0 && in.Epsilon < 1) {
		return fmt.Errorf("%w: epsilon %v outside (0, 1); use 0 for the default", ErrInvalidInput, in.Epsilon)
	}
	for i := 0; i < m; i++ {
		if len(in.Times[i]) != m || len(in.Adj[i]) != m {
			return fmt.Errorf("%w: row %d has %d times and %d adjacency entries, want %d",
				ErrInvalidInput, i, len(in.Times[i]), len(in.Adj[i]), m)
		}
		if in.Adj[i][i] {
			return fmt.Errorf("%w: adj[%d][%d] marks a worker its own neighbor", ErrInvalidInput, i, i)
		}
		for j, ok := range in.Adj[i] {
			if j < i && ok != in.Adj[j][i] {
				return fmt.Errorf("%w: adj[%d][%d] = %v but adj[%d][%d] = %v; the graph must be undirected",
					ErrInvalidInput, i, j, ok, j, i, in.Adj[j][i])
			}
			if t := in.Times[i][j]; ok && !(t >= 0 && t <= math.MaxFloat64) {
				return fmt.Errorf("%w: time[%d][%d] = %v on an edge", ErrInvalidInput, i, j, t)
			}
		}
	}
	return nil
}

// Uniform returns the uniform neighbor-selection policy used by AD-PSGD:
// every neighbor of i gets probability 1/deg(i), self 0.
func Uniform(adj [][]bool) [][]float64 {
	m := len(adj)
	p := make([][]float64, m)
	for i := range p {
		p[i] = make([]float64, m)
		deg := 0
		for j, ok := range adj[i] {
			if ok && j != i {
				deg++
			}
		}
		if deg == 0 {
			p[i][i] = 1
			continue
		}
		for j, ok := range adj[i] {
			if ok && j != i {
				p[i][j] = 1 / float64(deg)
			}
		}
	}
	return p
}

// AvgIterTimes returns t_i = Σ_m t[i][m]·P[i][m]·d[i][m] (Eq. 2) for every
// worker.
func AvgIterTimes(p [][]float64, times [][]float64, adj [][]bool) []float64 {
	m := len(p)
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j && adj[i][j] {
				out[i] += float64(times[i][j] * p[i][j])
			}
		}
	}
	return out
}

// GlobalStepProbs returns p_i = (1/t_i)/Σ(1/t_m) (Eq. 3): the probability
// that a given global step belongs to worker i. Workers with zero average
// iteration time (isolated or self-only) are treated as inactive.
func GlobalStepProbs(avgIterTimes []float64) []float64 {
	m := len(avgIterTimes)
	out := make([]float64, m)
	sum := 0.0
	for _, t := range avgIterTimes {
		if t > 0 {
			sum += 1 / t
		}
	}
	if sum == 0 {
		return out
	}
	for i, t := range avgIterTimes {
		if t > 0 {
			out[i] = (1 / t) / sum
		}
	}
	return out
}

// BuildY constructs Y_P = E[(D^k)ᵀD^k] per Eq. (22) for an arbitrary policy
// (not only feasible ones), using the Eq. (2)/(3) global-step probabilities
// derived from the measured iteration times. adj must be undirected, as
// Input.Adj; p's entries off its edges are ignored.
func BuildY(p [][]float64, times [][]float64, adj [][]bool, alpha, rho float64) *linalg.Matrix {
	y := linalg.NewMatrix(len(p))
	buildY(y, p, neighbors(adj), alpha*rho, false, GlobalStepProbs(AvgIterTimes(p, times, adj)), make([]float64, len(p)))
	return y
}

// BuildYAveraging constructs Y for the Section III-D extension, whose pull
// moves both endpoints to their midpoint (AD-PSGD's atomic averaging):
// D^k = I − ½uuᵀ with u = e_i − e_m. adj is as for BuildY.
func BuildYAveraging(p [][]float64, times [][]float64, adj [][]bool) *linalg.Matrix {
	y := linalg.NewMatrix(len(p))
	buildY(y, p, neighbors(adj), 0, true, GlobalStepProbs(AvgIterTimes(p, times, adj)), make([]float64, len(p)))
	return y
}

// neighbors returns each worker's neighbors in adj, in increasing order.
func neighbors(adj [][]bool) [][]int {
	nbrs := make([][]int, len(adj))
	for i, row := range adj {
		for j, ok := range row {
			if ok && j != i {
				nbrs[i] = append(nbrs[i], j)
			}
		}
	}
	return nbrs
}

// buildY writes E[(D^k)ᵀD^k] into y for global-step probabilities pg on
// the undirected graph whose neighbor lists, in increasing order, are nbrs,
// using diag (len(p) entries) as scratch. Terms with p_im = 0 contribute
// nothing (the selection event has probability zero).
//
// For NetMax's one-sided pull, with ar = αρ and the blend weight
// w_im = αρ·γ_im of D^k = I + w·e_i(e_m-e_i)ᵀ, γ_im = (d_im+d_mi)/(2 p_im)
// = 1/p_im on an edge (Eq. 22), the entries are
// y_im = Σ_{sides} pg·p·(w - w²) and
// y_ii = 1 - 2 Σ_m pg_i p_im w_im + Σ_m Σ_{sides} pg·p·w².
//
// The averaging blend's D^k = I − ½uuᵀ is symmetric and idempotent, so
// Y = E[D^k] = I − ½ Σ pg_i p_im uuᵀ, the randomized-gossip matrix of Boyd
// et al. (IEEE Trans. Inf. Theory 2006): y_im = ½(pg_i p_im + pg_m p_mi)
// and every row sums to 1.
//
// Each edge is visited once, from its lower end, with one weight per
// direction: y_im and y_mi sum the same two sides, and IEEE addition is
// commutative, so one sum gives both. Row i's diagonal still takes its
// terms in increasing m, since the edges (m, i) with m < i come before
// i's own.
func buildY(y *linalg.Matrix, p [][]float64, nbrs [][]int, ar float64, averaging bool, pg, diag []float64) {
	m := len(p)
	clear(y.Data)
	diag = diag[:m]
	for i := range diag {
		diag[i] = 1
	}
	for i, nbrs := range nbrs {
		yi, di := y.Data[i*m:(i+1)*m], diag[i]
		pi, pgi := p[i], pg[i]
		for _, j := range nbrs {
			if j < i {
				continue
			}
			pij, pji := pi[j], p[j][i]
			var v float64
			if averaging {
				var mass float64 // pg_i p_ij + pg_j p_ji: the rate of i–j pulls
				if pij > 0 {
					mass += float64(pgi * pij)
				}
				if pji > 0 {
					mass += float64(pg[j] * pji)
				}
				v = float64(mass / 2)
				di -= v
				diag[j] -= v
			} else {
				var first, second float64
				if pij > 0 { // i pulls from j
					w := ar * (1 / pij)
					f := float64(pgi * pij * w)
					first += f
					second += float64(f * w)
					// A diagonal's first-order term covers only its own pulls.
					di -= float64(2 * pgi * pij * w)
				}
				if pji > 0 {
					w := ar * (1 / pji)
					f := float64(pg[j] * pji * w)
					first += f
					second += float64(f * w)
					diag[j] -= float64(2 * pg[j] * pji * w)
				}
				v = first - second
				di += second
				diag[j] += second
			}
			yi[j] = v
			y.Data[j*m+i] = v
		}
		yi[i] = di
	}
}

// yDiag returns buildY's diagonal entry y_ii, bitwise, in O(len(nbrs)),
// where nbrs lists i's neighbors in increasing order. Each edge is taken as
// buildY takes it, lower index first, so the terms and their order are
// buildY's.
func yDiag(p [][]float64, nbrs []int, i int, ar float64, averaging bool, pg []float64) float64 {
	di := 1.0
	for _, j := range nbrs {
		lo, hi := min(i, j), max(i, j)
		plh, phl := p[lo][hi], p[hi][lo]
		if averaging {
			var mass float64
			if plh > 0 {
				mass += float64(pg[lo] * plh)
			}
			if phl > 0 {
				mass += float64(pg[hi] * phl)
			}
			di -= float64(mass / 2)
			continue
		}
		var second float64
		if plh > 0 { // lo pulls from hi
			w := ar * (1 / plh)
			second += float64(float64(pg[lo]*plh*w) * w)
			if lo == i {
				di -= float64(2 * pg[lo] * plh * w)
			}
		}
		if phl > 0 {
			w := ar * (1 / phl)
			second += float64(float64(pg[hi]*phl*w) * w)
			if hi == i {
				di -= float64(2 * pg[hi] * phl * w)
			}
		}
		di += second
	}
	return di
}

// FeasibleRhoInterval returns (Lρ, Uρ] = (0, 0.5/α] per Appendix A.
func FeasibleRhoInterval(alpha float64) (lo, hi float64) {
	return 0, 0.5 / alpha
}

// FeasibleTimeInterval returns [L, U] for t̄ given ρ per Appendix A
// (Eq. 25-28). Returns an error when L > U (no feasible mean time).
func FeasibleTimeInterval(times [][]float64, adj [][]bool, alpha, rho float64) (lo, hi float64, err error) {
	m := len(times)
	sum, top := make([]float64, m), make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i == j || !adj[i][j] {
				continue
			}
			sum[i] += times[i][j] * 2 // d_im + d_mi on an undirected graph
			if times[i][j] > top[i] {
				top[i] = times[i][j]
			}
		}
	}
	lo, hi, ok := timeInterval(sum, top, alpha, rho)
	if !ok {
		return 0, 0, fmt.Errorf("policy: infeasible time interval [%v, %v]", lo, hi)
	}
	return lo, hi, nil
}

// timeInterval is FeasibleTimeInterval on each row's Σ_m 2·t_im and
// largest t_im; ok is false when L > U.
func timeInterval(sum, top []float64, alpha, rho float64) (lo, hi float64, ok bool) {
	m := len(sum)
	lo = 0
	hi = math.Inf(1)
	for i := 0; i < m; i++ {
		li := sum[i] * alpha * rho / float64(m)
		ui := top[i] / float64(m)
		if li > lo {
			lo = li
		}
		if ui < hi {
			hi = ui
		}
	}
	return lo, hi, lo <= hi
}

// Generate runs Algorithm 3 and returns the best feasible policy. A
// malformed Input returns ErrInvalidInput. A graph with no policy (fewer
// than two workers, or not connected) or no feasible candidate returns
// ErrNoFeasiblePolicy; callers typically fall back to Uniform with a
// mid-range ρ.
func Generate(in Input) (*Policy, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	s := runSearch(in, nil)
	return s.result()
}

// Algorithm 3's defaults: the grid size K = R and the Eq. 9 convergence
// target ε.
const (
	DefaultRounds  = 10
	DefaultEpsilon = 1e-2
)

// MaxRounds caps the grid size: one regeneration scores Rounds² candidates,
// and each candidate solves every row, so an unbounded value turns a valid
// input into a run that never ends. The largest grid in use is 20.
const MaxRounds = 64

// MaxWorkers caps the worker count N of a policy, and so of every run: a
// candidate's Y build is O(N²) and its eigensolve O(N³), and every run
// holds N models. The largest group in use is 16 workers, and
// BenchmarkGenerate goes up to 64.
const MaxWorkers = 256

// runSearch scores Algorithm 3's (ρ, t̄) grid for a validated Input over
// the workers alive marks (all of them when alive is nil) and returns the
// search holding the best candidate, if any.
func runSearch(in Input, alive []bool) search {
	rounds := in.Rounds
	if rounds == 0 {
		rounds = DefaultRounds
	}
	eps := in.Epsilon
	if eps == 0 {
		eps = DefaultEpsilon
	}
	s, ok := newSearch(in, eps, alive)
	if !ok {
		return s
	}
	if in.AveragingBlend {
		// Section III-D: the blend weight is fixed at 1/2, so ρ plays no
		// role in the update and a single inner search suffices.
		s.innerLoop(0, 0, rounds)
		return s
	}
	_, ur := FeasibleRhoInterval(in.Alpha)
	// The row floors p_im >= 2αρ must fit within a probability row, which
	// caps ρ at 1/(2α·deg_max) (the paper's Eq. 33 for fully connected
	// graphs). Searching beyond that wastes the whole grid on infeasible
	// candidates, so clamp the upper end with a small safety margin.
	if cap := 0.999 / (2 * in.Alpha * float64(s.maxDeg)); cap < ur {
		ur = cap
	}
	// Log-spaced grid over (0, ur]: under extreme heterogeneity (one link
	// slowed 100x) the feasible ρ range collapses toward zero, and a
	// uniform grid like the paper's pseudo-code would need a very large K
	// to land inside it; geometric spacing covers three decades with the
	// same K. It is scored from the cap down, where the winner usually
	// lies; score's tie rule keeps the ascending walk's winner.
	const span = 1000.0
	for ki := rounds - 1; ki >= 0; ki-- {
		frac := float64(ki) / float64(rounds-1)
		s.innerLoop(ki, ur/tensor.Pow(span, 1-frac), rounds)
	}
	return s
}

// search is the state of one Generate call: the neighbor lists, the row
// LPs with their candidate-independent work done (rowLPs), and buffers for
// the candidate P, Y_P and the eigensolve, cut once from one allocation per
// element type and reused by every (ρ, t̄) candidate. The search runs over
// the live workers only, renumbered 0..n−1 in order; idx maps them back.
// Only a winning candidate's P is copied, into best, in the input's index
// space.
type search struct {
	in      Input
	eps     float64
	idx     []int // the input index of each searched worker
	nbrs    [][]int
	maxDeg  int
	minDeg  int
	rows    rowLPs
	rowP    []float64 // solve output for one row
	p       [][]float64
	pg      []float64
	y       linalg.Matrix
	diag    []float64 // buildY scratch
	eig     []float64
	eigWork []float64
	best    Policy
	found   bool
	// bestK and bestR are best's ρ and t̄ grid indices, for score's tie
	// rule. eigensolves counts the candidates that reached an eigensolve,
	// floors the ρ values that reached setFloor.
	bestK, bestR int
	eigensolves  int
	floors       int
}

// newSearch sets up the search for a validated Input over the workers alive
// marks (all of them when alive is nil), and reports whether their graph
// has a policy: at least two workers, connected. Every buffer but the best
// P, which the returned Policy keeps, is cut from one arena, sized here
// from the live graph. The best P has a row per input worker, and the rows
// of the dead select only themselves.
func newSearch(in Input, eps float64, alive []bool) (search, bool) {
	m := len(in.Times)
	live := func(i int) bool { return alive == nil || alive[i] }
	s := search{in: in, eps: eps, minDeg: m}
	n, nnz := 0, 0
	for i, row := range in.Adj {
		if !live(i) {
			continue
		}
		deg := 0
		for j, ok := range row {
			if ok && live(j) {
				deg++
			}
		}
		n++
		nnz += deg
		s.maxDeg, s.minDeg = max(s.maxDeg, deg), min(s.minDeg, deg)
	}
	a := arena{
		// Neighbor times; the row LPs' (newRowLPs); rowP; P and Y_P; pg,
		// diag, eig and eigWork.
		f: make([]float64, nnz+(4*n+s.maxDeg+1+nnz)+s.maxDeg+2*n*n+4*n),
		// idx; nbrs; the row LPs' chains; connected's queue and marks.
		n: make([]int, n+nnz+nnz+2*n),
		// Rows of the neighbor times, the row LPs' floor products and P.
		fs: make([][]float64, 3*n),
		// Rows of nbrs and the row LPs' two chains.
		ns: make([][]int, 3*n),
	}
	s.idx = take(&a.n, n)[:0]
	for i := range m {
		if live(i) {
			s.idx = append(s.idx, i)
		}
	}
	s.nbrs = take(&a.ns, n)
	flat := take(&a.n, nnz)[:0]
	for u, i := range s.idx {
		start := len(flat)
		for v, j := range s.idx {
			if in.Adj[i][j] {
				flat = append(flat, v)
			}
		}
		s.nbrs[u] = flat[start:len(flat):len(flat)]
	}
	times := takeRows(&a.f, &a.fs, s.nbrs)
	for u, nbrs := range s.nbrs {
		for k, v := range nbrs {
			times[u][k] = in.Times[s.idx[u]][s.idx[v]]
		}
	}
	s.rows = newRowLPs(times, &a)
	s.rowP = take(&a.f, s.maxDeg)
	s.p = take(&a.fs, n)
	for u := range s.p {
		s.p[u] = take(&a.f, n)
	}
	s.y = linalg.Matrix{N: n, Data: take(&a.f, n*n)}
	s.pg = take(&a.f, n)
	for u := range s.pg {
		// For a feasible P all workers share t_i = n·t̄, so p_i = 1/n.
		s.pg[u] = 1 / float64(n)
	}
	s.diag, s.eig, s.eigWork = take(&a.f, n), take(&a.f, n), take(&a.f, n)
	s.best.P = matrix(m)
	for i := range m {
		if !live(i) {
			s.best.P[i][i] = 1
		}
	}
	return s, n >= 2 && connected(s.nbrs, take(&a.n, 2*n))
}

// connected reports whether the graph with neighbor lists nbrs (at least
// one worker) is connected, by a breadth-first walk from worker 0 whose
// queue and marks are buf's 2·len(nbrs) ints, all zero.
func connected(nbrs [][]int, buf []int) bool {
	n := len(nbrs)
	queue, seen := buf[:1:n], buf[n:]
	seen[0] = 1
	for h := 0; h < len(queue); h++ {
		for _, j := range nbrs[queue[h]] {
			if seen[j] == 0 {
				seen[j] = 1
				queue = append(queue, j)
			}
		}
	}
	return len(queue) == n
}

// matrix returns an m x m zero matrix backed by one allocation.
func matrix(m int) [][]float64 {
	data := make([]float64, m*m)
	rows := make([][]float64, m)
	for i := range rows {
		rows[i] = data[i*m : (i+1)*m]
	}
	return rows
}

// innerLoop is Algorithm 3's INNERLOOP: grid over t̄ ∈ [L, U] for one ρ,
// the ki-th of the ρ grid, in ascending t̄. A ρ without a feasible t̄
// interval contributes no candidate.
func (s *search) innerLoop(ki int, rho float64, r int) {
	var lo, hi float64
	var ok bool
	floor := 1e-4 // Section III-D: only positivity is needed
	if s.in.AveragingBlend {
		// Only positivity floors apply, so the lower end of the feasible
		// interval collapses (at ρ = 0, L = 0 ≤ U, so it is never empty);
		// search from a small positive fraction of U.
		_, hi, ok = timeInterval(s.rows.sum, s.rows.tmax, s.in.Alpha, 0)
		lo = hi / (10 * float64(r))
	} else {
		lo, hi, ok = timeInterval(s.rows.sum, s.rows.tmax, s.in.Alpha, rho)
		floor = float64(2*s.in.Alpha*rho) + 1e-9 // Eq. (11) is strict; keep entries strictly above the floor
	}
	if !ok {
		return
	}
	l2Floor := s.l2Floor(rho)
	delta := (hi - lo) / float64(r)
	for ri := 1; ri <= r; ri++ {
		tbar := lo + float64(float64(ri)*delta)
		lim := s.lossLimit(tbar)
		if l2Floor > lim {
			// Step A: λ* only falls as t̄ grows (and as T_best improves),
			// so every later t̄ of this ρ loses too.
			break
		}
		if ri == 1 {
			// The first t̄ passed step A: this ρ scores a candidate.
			s.rows.setFloor(floor)
			s.floors++
		}
		s.score(ki, ri, rho, tbar, lim)
	}
}

// boundMargin is how far a λ₂ lower bound must exceed λ* to reject a
// candidate: far above the rounding of the bounds, of the eigensolve and
// of the T comparison (about N²·2⁻⁵³), so that every rejected candidate
// would also have lost the comparison, or had λ₂ ≥ 1.
const boundMargin = 1e-9

// lossLimit returns λ* + boundMargin, where λ* = ε^(t̄/T_best) is the λ₂
// below which a candidate at t̄ beats the best so far: a candidate whose
// λ₂ provably exceeds the limit loses. It is +Inf before a best exists.
func (s *search) lossLimit(tbar float64) float64 {
	if !s.found {
		return math.Inf(1)
	}
	return tensor.Exp(tbar*tensor.Log(s.eps)/s.best.TConvergence) + boundMargin
}

// l2Floor returns step A's lower bound on λ₂ for every candidate at ρ, or
// -Inf under the averaging blend, where it is not derived. With Y·1 = 1,
// the Rayleigh quotient at eᵢ − 1/N gives
// λ₂ ≥ (N·y_ii − 1)/(N − 1), and dropping y_ii's nonnegative second-order
// terms leaves y_ii ≥ 1 − 2αρ·deg_i/N. So λ₂ ≥ 1 − 2αρ·deg_min/(N − 1),
// which depends on neither P nor t̄.
func (s *search) l2Floor(rho float64) float64 {
	if s.in.AveragingBlend {
		return math.Inf(-1)
	}
	return 1 - float64(2*s.in.Alpha*rho)*float64(s.minDeg)/float64(len(s.nbrs)-1)
}

// diagExceeds is step C: it reports whether some row of the candidate in
// s.p, at αρ = ar, has (N·y_ii − 1)/(N − 1) > lim, which proves λ₂ > lim
// since Y·1 = 1. Since λ₂ ≥ min(1, that bound), it proves nothing for
// lim ≥ 1, and reports false there.
func (s *search) diagExceeds(ar, lim float64) bool {
	if !(lim < 1) {
		return false
	}
	m := len(s.p)
	thr := (1 + float64(float64(m-1)*lim)) / float64(m) // y_ii > thr ⇔ the bound exceeds lim
	for i, nbrs := range s.nbrs {
		if yDiag(s.p, nbrs, i, ar, s.in.AveragingBlend, s.pg) > thr {
			return true
		}
	}
	return false
}

// score builds the (ρ, t̄) candidate at grid indices (ki, ri), at the floor
// of the last setFloor, and keeps it if its predicted convergence time
// beats the best so far, or ties it at a lower (ki, ri) in lexicographic
// order. The winner is then the least (T, ki, ri), whatever order the grid
// is scored in: the candidate an ascending walk keeping only strictly
// better ones picks.
//
// lim is lossLimit(t̄): the candidate can win only if λ₂ < λ* < lim, so
// once its rows are solved, step C (diagExceeds) rejects it before Y_P is
// built when a row's diagonal bound exceeds lim. The bound holds with
// boundMargin to spare, so every rejected candidate would also have lost
// the T comparison (or had λ₂ ≥ 1), no tie is rejected, and the chosen
// policy is bitwise the one scoring every candidate by eigensolve would
// pick. Where the bound proves nothing, as before a best exists, the
// eigensolve runs.
func (s *search) score(ki, ri int, rho, tbar, lim float64) {
	if !s.solveRows(float64(len(s.p))*tbar) || s.diagExceeds(s.in.Alpha*rho, lim) {
		return
	}
	buildY(&s.y, s.p, s.nbrs, s.in.Alpha*rho, s.in.AveragingBlend, s.pg, s.diag)
	s.eigensolves++
	if linalg.SymmetricEigenvaluesInto(&s.y, s.eig, s.eigWork) != nil {
		return
	}
	l2 := s.eig[1]
	if l2 >= 1 || l2 <= 0 {
		return
	}
	tconv := tbar * tensor.Log(s.eps) / tensor.Log(l2)
	if s.found && !(tconv < s.best.TConvergence ||
		tconv == s.best.TConvergence && (ki < s.bestK || ki == s.bestK && ri < s.bestR)) {
		return
	}
	for u, row := range s.p {
		best := s.best.P[s.idx[u]]
		for v, x := range row {
			best[s.idx[v]] = x
		}
	}
	s.best.Rho, s.best.Lambda2, s.best.TBar, s.best.TConvergence = rho, l2, tbar, tconv
	s.bestK, s.bestR, s.found = ki, ri, true
}

// solveRows fills s.p with the Eq. (14) solution of every worker row at the
// floor of the last setFloor: minimize p_ii subject to
// Σ_m t_im p_im = target, p_im ≥ floor for neighbors and probabilities
// summing to 1. It reports false as soon as one row is infeasible.
func (s *search) solveRows(target float64) bool {
	for i, nbrs := range s.nbrs {
		row := s.p[i]
		clear(row)
		x := s.rowP[:len(nbrs)]
		pii, ok := s.rows.solve(i, target, x)
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

// result returns the best candidate, or ErrNoFeasiblePolicy.
func (s *search) result() (*Policy, error) {
	if !s.found {
		return nil, ErrNoFeasiblePolicy
	}
	pol := s.best
	return &pol, nil
}
