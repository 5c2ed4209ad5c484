package policy

// rowTol is the relative tolerance of the row solver's vertex walk: links
// whose times differ by less than this are treated as equally fast.
const rowTol = 1e-9

// rowLPs holds every worker row of the Eq. (14) LP for one Generate call,
// with the work that no (ρ, t̄) candidate changes done once: each row's
// times, its largest time t_max and Σ 2·t (FeasibleTimeInterval), and the
// steps of the vertex walk (walkSteps). setFloor adds what depends on ρ
// alone; solve then does only the t̄-dependent work of one row.
//
// With y_k = p_k − floor a row asks for the largest Σy with Σ t·y = B,
// Σy ≤ S and y ≥ 0, where S = 1 − n·floor is the slack and
// B = target − floor·Σt the time budget that remain once every neighbor
// has its floor. It is feasible iff S ≥ 0, B ≥ 0 and B ≤ t_max·S, and an
// optimal vertex has at most two non-zero y. With τ = B/S: when τ ≤ t_min,
// all of B goes on the cheapest link and p_ii = S − B/t_min; otherwise
// p_ii = 0 and S is mixed between two links whose times bracket τ.
type rowLPs struct {
	t        [][]float64 // each row's neighbor times, in neighbor order
	tmax     []float64   // each row's largest time
	tol      []float64   // rowTol·t_max: how far B may overshoot t_max·S and be clamped
	sum      []float64   // each row's Σ 2·t, behind FeasibleTimeInterval's lower end
	down, up [][]int     // walkSteps of each row

	// Set by setFloor, once per ρ.
	floor float64
	slack []float64   // S after n floors, by neighbor count n
	prod  [][]float64 // each row's float64(t_k·floor), in neighbor order
	tmaxS []float64   // each row's t_max·S
}

// newRowLPs prepares the rows whose neighbor times are rows[i]; it keeps
// rows, which must stay unchanged while the result is in use.
func newRowLPs(rows [][]float64) *rowLPs {
	m, deg := len(rows), 0
	for _, t := range rows {
		deg = max(deg, len(t))
	}
	r := &rowLPs{
		t: rows, tmax: make([]float64, m), tol: make([]float64, m), sum: make([]float64, m),
		down: carve[int](rows), up: carve[int](rows),
		slack: make([]float64, deg+1), prod: carve[float64](rows), tmaxS: make([]float64, m),
	}
	for i, t := range rows {
		for _, tk := range t {
			r.sum[i] += tk * 2 // d_im + d_mi on an undirected graph
			r.tmax[i] = max(r.tmax[i], tk)
		}
		r.tol[i] = rowTol * r.tmax[i]
		walkSteps(t, r.tmax[i], r.down[i], r.up[i])
	}
	return r
}

// carve returns slices shaped like rows, backed by one allocation.
func carve[T, U any](rows [][]U) [][]T {
	n := 0
	for _, t := range rows {
		n += len(t)
	}
	flat, out := make([]T, n), make([][]T, len(rows))
	for i, t := range rows {
		out[i], flat = flat[:len(t):len(t)], flat[len(t):]
	}
	return out
}

// walkSteps tabulates the two steps of solve's vertex walk from every start
// c: down[c] is the first k with t_k/t_c − 1 < −rowTol (a link cheaper than
// c) and up[c] the first k with (t_k − t_c)/t_max > rowTol (a link slower
// than c), or −1 where there is none. Both depend only on the row's times,
// so no candidate divides.
func walkSteps(t []float64, tmax float64, down, up []int) {
	for c, tc := range t {
		down[c], up[c] = -1, -1
		for k, tk := range t {
			if tk/tc-1 < -rowTol {
				down[c] = k
				break
			}
		}
		for k, tk := range t {
			if (tk-tc)/tmax > rowTol {
				up[c] = k
				break
			}
		}
	}
}

// setFloor prepares the rows for candidates whose neighbor probabilities
// must be at least floor: each neighbor count's slack S, computed as the
// same sequential chain 1 − floor − floor − …, and each row's floor
// products and t_max·S.
func (r *rowLPs) setFloor(floor float64) {
	r.floor = floor
	r.slack[0] = 1
	for n := 1; n < len(r.slack); n++ {
		r.slack[n] = r.slack[n-1] - floor
	}
	for i, t := range r.t {
		for k, tk := range t {
			r.prod[i][k] = float64(tk * floor)
		}
		r.tmaxS[i] = r.tmax[i] * r.slack[len(t)]
	}
}

// solve solves row i (at least one neighbor) of the Eq. (14) LP at the
// floor of the last setFloor: minimize p_ii subject to Σ_k t_k·p_k = target,
// p_k ≥ floor for every neighbor k and Σ_k p_k + p_ii = 1. It writes the
// neighbor probabilities into p (len(p) = len(t)) and returns p_ii, or
// ok=false when the row is infeasible.
//
// B is target minus the floor products, subtracted in neighbor order. A B
// above t_max·S by at most rowTol·t_max is clamped to t_max·S: on a
// homogeneous network the top t̄ of the Appendix A interval asks for
// exactly t_max·S, and rounding may overshoot it.
//
// Several pairs may bracket τ, so the optimum need not be unique. The pair
// chosen is the vertex that a two-phase simplex with Bland's rule reaches,
// so that policies do not depend on which of the optimal vertices a
// particular solver happens to return. The walk starts at c = the first
// neighbor:
//   - while t_c > τ, move to down[c], stopping at the first such k with
//     t_k ≤ τ: the pair is (k, c). If no link is cheaper than c by rowTol,
//     all of B goes on c.
//   - while t_c < τ, move to up[c], stopping at the first such k with
//     t_k ≥ τ: the pair is (c, k). If no link is slower than c by rowTol,
//     k is the first link with t_k ≥ τ.
//
// The comparisons with τ are made as t·S against B, so that S = 0 needs no
// special case.
func (r *rowLPs) solve(i int, target float64, p []float64) (pii float64, ok bool) {
	t, down, up := r.t[i], r.down[i], r.up[i]
	s, tmaxS := r.slack[len(t)], r.tmaxS[i]
	b := target
	for _, x := range r.prod[i] {
		b -= x
	}
	if b > tmaxS && b-tmaxS <= r.tol[i] {
		b = tmaxS
	}
	if s < 0 || b < 0 || b > tmaxS {
		return 0, false
	}
	for k := range p {
		p[k] = r.floor
	}
	lo, hi := 0, 0 // the mix: S − y_hi on lo, y_hi on hi
	c, tc := 0, t[0]
	switch {
	case tc*s > b:
		for {
			k := down[c]
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
			k := up[c]
			if k < 0 {
				// b ≤ tmax·s, so some link reaches τ.
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
