package policy

// rowTol is the relative tolerance of the row solver's vertex walk: links
// whose times differ by less than this are treated as equally fast.
const rowTol = 1e-9

// rowLPs holds every worker row of the Eq. (14) LP for one Generate call,
// with the work that no (ρ, t̄) candidate changes done once: each row's
// times, its largest time t_max and Σ 2·t (FeasibleTimeInterval), and the
// two chains of the vertex walk (walkChains). setFloor adds what depends
// on ρ alone; solve then does only the t̄-dependent work of one row.
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
	down, up [][]int     // walkChains of each row

	// Set by setFloor, once per ρ.
	floor float64
	slack []float64   // S after n floors, by neighbor count n
	prod  [][]float64 // each row's float64(t_k·floor), in neighbor order
	tmaxS []float64   // each row's t_max·S
}

// arena hands out the buffers of one search from one allocation per
// element type, so that a Generate call allocates a fixed handful of times
// whatever N, the graph and the grid. Each field is cut from the front.
type arena struct {
	f  []float64
	n  []int
	fs [][]float64
	ns [][]int
}

// take cuts the first n elements off *block, with capacity n.
func take[T any](block *[]T, n int) []T {
	s := (*block)[:n:n]
	*block = (*block)[n:]
	return s
}

// takeRows cuts from *flat one row of each len(rows[i]) and from *heads
// their headers: slices shaped like rows.
func takeRows[T, U any](flat *[]T, heads *[][]T, rows [][]U) [][]T {
	out := take(heads, len(rows))
	for i, r := range rows {
		out[i] = take(flat, len(r))
	}
	return out
}

// newRowLPs prepares the rows whose neighbor times are rows[i], from
// buffers cut off a: with deg the longest row, 4·len(rows) + deg + 1 +
// Σ len(rows[i]) floats, Σ len(rows[i]) ints and 1 and 2 row headers per
// row. It keeps rows, which must stay unchanged while the result is in use.
func newRowLPs(rows [][]float64, a *arena) rowLPs {
	m, maxDeg := len(rows), 0
	for _, t := range rows {
		maxDeg = max(maxDeg, len(t))
	}
	r := rowLPs{
		t: rows, tmax: take(&a.f, m), tol: take(&a.f, m), sum: take(&a.f, m), tmaxS: take(&a.f, m),
		slack: take(&a.f, maxDeg+1), prod: takeRows(&a.f, &a.fs, rows),
		down: take(&a.ns, m), up: take(&a.ns, m),
	}
	for i, t := range rows {
		sum, tmax := 0.0, 0.0
		for _, tk := range t {
			sum += tk * 2 // d_im + d_mi on an undirected graph
			tmax = max(tmax, tk)
		}
		r.sum[i], r.tmax[i], r.tol[i] = sum, tmax, rowTol*tmax
		r.down[i], r.up[i] = walkChains(t, tmax, take(&a.n, len(t)))
	}
	return r
}

// walkChains returns the two chains of solve's vertex walk from the first
// neighbor c = 0: down holds the successive steps c → k to the first k with
// t_k/t_c − 1 < −rowTol (a link cheaper than c), up the steps to the first
// k with (t_k − t_c)/t_max > rowTol (a link slower than c), each until
// there is none. Both depend only on the row's times, so no candidate
// divides. They share buf, len(t) ints: down's links are cheaper than the
// first neighbor and up's slower, so together they hold at most len(t) − 1.
//
// One forward scan finds each chain, since every step goes to a later
// index. An index before c failed the test at the link the walk stepped to
// c from, c being the first to pass it, so it fails at c too, whose time
// lies further in the chain's direction: t_k/t_c only grows as t_c falls,
// t_k − t_c only falls as t_c grows, and every rounding is monotone. c
// fails at itself.
func walkChains(t []float64, tmax float64, buf []int) (down, up []int) {
	down = buf[:0]
	for c, k := 0, 1; k < len(t); k++ {
		if t[k]/t[c]-1 < -rowTol {
			down, c = append(down, k), k
		}
	}
	down = down[:len(down):len(down)]
	up = buf[len(down):len(down)]
	for c, k := 0, 1; k < len(t); k++ {
		if (t[k]-t[c])/tmax > rowTol {
			up, c = append(up, k), k
		}
	}
	return down, up
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
//   - while t_c > τ, step to the next k of the down chain, stopping at the
//     first with t_k ≤ τ: the pair is (k, c). Past the chain's end no link
//     is cheaper than c by rowTol, and all of B goes on c.
//   - while t_c < τ, step to the next k of the up chain, stopping at the
//     first with t_k ≥ τ: the pair is (c, k). Past the chain's end no link
//     is slower than c by rowTol, and k is the first link with t_k ≥ τ.
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
	c := 0
	switch tc := t[0]; {
	case tc*s > b:
		hi = -1
		for _, k := range down {
			if t[k]*s <= b {
				lo, hi = k, c
				break
			}
			c = k
		}
		if hi < 0 {
			y := min(b/t[c], s)
			p[c] += y
			return s - y, true
		}
	case tc*s < b:
		hi = -1
		for _, k := range up {
			if t[k]*s >= b {
				lo, hi = c, k
				break
			}
			c = k
		}
		if hi < 0 {
			// b ≤ tmax·s, so some link reaches τ.
			for k, tk := range t {
				if tk*s >= b {
					lo, hi = c, k
					break
				}
			}
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
