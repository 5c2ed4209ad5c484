package linalg

import "math"

// hypot is math.Hypot as amd64 computes it: max·√(1 + (min/max)²), with the
// square rounded on its own. math.Hypot runs assembly on amd64 and Go
// elsewhere, and on arm64 the compiler fuses that Go's q*q + 1 into one
// multiply-add, which moves the eigensolve's last bits. Owning the
// operations keeps λ₂ the same on every architecture.
//
// Special cases, as in math.Hypot: +Inf if either argument is ±Inf, else
// NaN if either is NaN, and 0 if both are zero.
func hypot(p, q float64) float64 {
	p, q = math.Abs(p), math.Abs(q)
	switch {
	case math.IsInf(p, 1) || math.IsInf(q, 1):
		return math.Inf(1)
	case math.IsNaN(p) || math.IsNaN(q):
		return math.NaN()
	}
	if p < q {
		p, q = q, p
	}
	if p == 0 {
		return 0
	}
	q /= p
	return p * math.Sqrt(1+float64(q*q))
}
