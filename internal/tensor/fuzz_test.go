package tensor

import (
	"math"
	"testing"
)

// fuzzSpecials are the operand values a fuzz byte below 16 selects: signed
// zeros, subnormals, the extremes, infinities and NaN.
var fuzzSpecials = [16]float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -3,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	1e-300, 1e300,
}

// fuzzValue maps one fuzz byte to an operand value: a special below 16,
// otherwise an eighth-step value in [-15, 15].
func fuzzValue(c byte) float64 {
	if int(c) < len(fuzzSpecials) {
		return fuzzSpecials[c]
	}
	return float64(int(c)-136) / 8
}

// ieeeMatMul is the plain IEEE triple loop: every term is added, in
// ascending p, to an accumulator that starts at +0.
func ieeeMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.Data[i*k+p] * b.Data[p*n+j]
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

// sameBits reports whether got and want agree bit for bit, except that any
// NaN matches any NaN: IEEE 754 leaves NaN payloads and signs to the
// hardware's operand order, which a register-tiled kernel need not share.
func sameBits(got, want *Tensor) bool {
	for i, w := range want.Data {
		g := got.Data[i]
		if math.IsNaN(w) && math.IsNaN(g) {
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// FuzzMatMul checks MatMulInto, MatMulTransBInto and MatMulTransAInto
// against ieeeMatMul, and ieeeMatMul against serialMatMul, the
// zero-skipping loop, whenever b is finite. The first three bytes give
// m, k, n ≤ 9, so every tile remainder is reached; each further byte is
// one entry of a, then of b (missing entries are 0).
func FuzzMatMul(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		m, k, n := int(data[0]%10), int(data[1]%10), int(data[2]%10)
		vals := data[3:]
		next := func() float64 {
			if len(vals) == 0 {
				return 0
			}
			v := fuzzValue(vals[0])
			vals = vals[1:]
			return v
		}
		a, b := New(m, k), New(k, n)
		for i := range a.Data {
			a.Data[i] = next()
		}
		finiteB := true
		for i := range b.Data {
			b.Data[i] = next()
			finiteB = finiteB && !math.IsInf(b.Data[i], 0) && !math.IsNaN(b.Data[i])
		}
		want := ieeeMatMul(a, b)
		if finiteB {
			if old := serialMatMul(a, b); !sameBits(old, want) {
				t.Fatalf("zero-skipping loop %v differs from IEEE loop %v for finite b", old.Data, want.Data)
			}
		}
		at, bt := Transpose(a), Transpose(b)
		got := map[string]*Tensor{
			"MatMulInto":       MatMulInto(Full(7, m, n), a, b),
			"MatMulTransBInto": MatMulTransBInto(Full(7, m, n), a, bt),
			"MatMulTransAInto": MatMulTransAInto(Full(7, m, n), at, b),
		}
		for name, g := range got {
			if !sameBits(g, want) {
				t.Fatalf("%s: %v, IEEE loop %v (a=%v b=%v)", name, g.Data, want.Data, a.Data, b.Data)
			}
		}
	})
}
