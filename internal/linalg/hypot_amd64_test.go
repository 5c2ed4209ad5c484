package linalg

import (
	"math"
	"testing"
)

// TestHypotMatchesAmd64 checks hypot bitwise against math.Hypot, which on
// amd64 is the assembly hypot copies, over zeros, subnormals, infinities,
// NaNs and extreme ratios, in every sign and argument order.
func TestHypotMatchesAmd64(t *testing.T) {
	var vals []float64
	for _, v := range []float64{
		0, math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64,
		0x1p-1022 / 3, 0x1p-1022, 1e-300, 1e-160, 1e-8, 0.1, 0.5,
		1, 1 + 0x1p-52, 2, 3, 4, 5, 12, 13, 1e8, 1e160, 1e300,
		math.MaxFloat64 / 2, math.MaxFloat64,
		math.Inf(1), math.NaN(),
	} {
		vals = append(vals, v, -v)
	}
	for _, p := range vals {
		for _, q := range vals {
			got, want := hypot(p, q), math.Hypot(p, q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("hypot(%g, %g) = %g (%#x), math.Hypot = %g (%#x)",
					p, q, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
