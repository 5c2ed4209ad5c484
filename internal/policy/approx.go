package policy

import (
	"errors"
	"math"

	"netmax/internal/tensor"
)

// This file implements the paper's Appendix B: the approximation-ratio
// analysis of Algorithm 3 on fully connected heterogeneous graphs.
//
// For a feasible policy with second eigenvalue λ₂ and objective
// l(λ) = t̄ · ln ε / ln λ, the paper bounds
//
//	l(λ₂)/l(λ*) ≤ (U/L) · (ln(M-1) - ln(M-3)) /
//	               (ln(1-2a+a·M) - ln(1-2a+a·(M+1)))
//
// where [L, U] is the feasible t̄ interval, M ≥ 4 the worker count, and a
// the minimum positive entry of Y_P (Eq. 38). The two spectral ingredients
// are Eq. 34 (λ₂ ≥ (M-3)/(M-1), from eigenvalue interlacing) and Eq. 35
// (the cycle-based subdominant-eigenvalue bound λ₂ ≤ (1-2a+a^{M+1})/(1-2a+a^M)).

// Lambda2LowerBound returns the Eq. 34 lower bound on the second-largest
// eigenvalue of Y_P for a fully connected graph with m > 3 workers.
func Lambda2LowerBound(m int) (float64, error) {
	if m <= 3 {
		return 0, errors.New("policy: Eq. 34 requires more than 3 workers")
	}
	return float64(m-3) / float64(m-1), nil
}

// Lambda2UpperBound returns the Eq. 35 cycle-based upper bound on λ₂ given
// the minimum positive entry a of Y_P.
func Lambda2UpperBound(a float64, m int) (float64, error) {
	if a <= 0 || a >= 1 {
		return 0, errors.New("policy: minimum entry must lie in (0,1)")
	}
	num := 1 - 2*a + tensor.Pow(a, float64(m)+1)
	den := 1 - 2*a + tensor.Pow(a, float64(m))
	if den <= 0 {
		return 0, errors.New("policy: degenerate denominator in Eq. 35")
	}
	return num / den, nil
}

// ApproximationRatio evaluates the Eq. 38 bound for a feasible-time
// interval [lo, hi], m workers and minimum positive Y_P entry a.
func ApproximationRatio(lo, hi float64, m int, a float64) (float64, error) {
	if m <= 3 {
		return 0, errors.New("policy: Eq. 38 requires more than 3 workers")
	}
	if lo <= 0 || hi < lo {
		return 0, errors.New("policy: invalid feasible interval")
	}
	lower, err := Lambda2LowerBound(m)
	if err != nil {
		return 0, err
	}
	upper, err := Lambda2UpperBound(a, m)
	if err != nil {
		return 0, err
	}
	num := -tensor.Log(lower) // ln(M-1) - ln(M-3)
	den := -tensor.Log(upper) // ln(1-2a+aM) - ln(1-2a+a(M+1))
	if den <= 0 {
		return 0, errors.New("policy: Eq. 35 bound is not contracting")
	}
	return (hi / lo) * num / den, nil
}

// MinPositiveEntry returns the smallest strictly positive entry of Y_P
// built for the given feasible policy — the `a` of Appendix B.
func MinPositiveEntry(p *Policy, times [][]float64, adj [][]bool, alpha float64) float64 {
	y := BuildY(p.P, times, adj, alpha, p.Rho)
	minV := math.Inf(1)
	for _, v := range y.Data {
		if v > 1e-12 && v < minV {
			minV = v
		}
	}
	if math.IsInf(minV, 1) {
		return 0
	}
	return minV
}

// CertifyApproximation checks the Appendix B guarantee for a generated
// policy on a fully connected graph: the policy's realized objective
// l(λ₂) = t̄·ln ε/ln λ₂ (its TConvergence) must not exceed ratio times the
// analytical lower bound L·ln ε / ln((M-3)/(M-1)), both at DefaultEpsilon
// (ln ε cancels from the check). It returns the realized objective, the
// lower bound, and the certified ratio.
func CertifyApproximation(p *Policy, times [][]float64, adj [][]bool, alpha float64) (objective, lowerBound, ratio float64, err error) {
	m := len(p.P)
	lo, hi, err := FeasibleTimeInterval(times, adj, alpha, p.Rho)
	if err != nil {
		return 0, 0, 0, err
	}
	a := MinPositiveEntry(p, times, adj, alpha)
	ratio, err = ApproximationRatio(lo, hi, m, a)
	if err != nil {
		return 0, 0, 0, err
	}
	lowerL2, err := Lambda2LowerBound(m)
	if err != nil {
		return 0, 0, 0, err
	}
	objective = p.TConvergence
	lowerBound = lo * logEpsilon / tensor.Log(lowerL2)
	if objective > ratio*lowerBound*(1+1e-9) {
		return objective, lowerBound, ratio, errors.New("policy: Appendix B bound violated")
	}
	return objective, lowerBound, ratio, nil
}
