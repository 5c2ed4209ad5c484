package policy

// rowTol is the relative tolerance of solveRow's vertex walk: links whose
// times differ by less than this are treated as equally fast.
const rowTol = 1e-9

// rowBudget returns the slack S = 1 − n·floor and the time budget
// B = target − floor·Σt that remain for one row once every neighbor has its
// floor, together with the row's largest time. A budget above t_max·S by at
// most rowTol·t_max is clamped to t_max·S: on a homogeneous network the
// top t̄ of the Appendix A interval asks for exactly t_max·S, and rounding
// may overshoot it.
func rowBudget(t []float64, floor, target float64) (s, b, tmax float64) {
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

// solveRow solves one worker row of the Eq. (14) LP in closed form:
// minimize p_ii subject to Σ_k t_k·p_k = target, p_k ≥ floor for every
// neighbor k and Σ_k p_k + p_ii = 1. It writes the neighbor probabilities
// into p (len(p) = len(t) > 0) and returns p_ii, or ok=false when the row
// is infeasible. Times must be non-negative.
//
// With y_k = p_k − floor the row asks for the largest Σy with Σ t·y = B,
// Σy ≤ S and y ≥ 0 (rowBudget). It is feasible iff S ≥ 0, B ≥ 0 and
// B ≤ t_max·S, and an optimal vertex has at most two non-zero y. With
// τ = B/S: when τ ≤ t_min, all of B goes on the cheapest link and
// p_ii = S − B/t_min; otherwise p_ii = 0 and S is mixed between two links
// whose times bracket τ.
//
// Several pairs may bracket τ, so the optimum need not be unique. The pair
// chosen is the vertex that a two-phase simplex with Bland's rule reaches,
// so that policies do not depend on which of the optimal vertices a
// particular solver happens to return. The walk starts at c = the first
// neighbor:
//   - while t_c > τ, move to the first k with t_k/t_c − 1 < −rowTol,
//     stopping at the first such k with t_k ≤ τ: the pair is (k, c). If no
//     link is cheaper than c by rowTol, all of B goes on c.
//   - while t_c < τ, move to the first k with (t_k − t_c)/t_max > rowTol,
//     stopping at the first such k with t_k ≥ τ: the pair is (c, k). If no
//     link is slower than c by rowTol, k is the first link with t_k ≥ τ.
//
// The comparisons with τ are made as t·S against B, so that S = 0 needs no
// special case.
func solveRow(t []float64, floor, target float64, p []float64) (pii float64, ok bool) {
	s, b, tmax := rowBudget(t, floor, target)
	if s < 0 || b < 0 || b > tmax*s {
		return 0, false
	}
	for k := range p {
		p[k] = floor
	}
	lo, hi := 0, 0 // the mix: S − y_hi on lo, y_hi on hi
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
