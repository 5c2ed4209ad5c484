package tensor

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// expSpecials are the lanes a fuzz byte below 32 selects: the kernel's
// range edges, the 1 + x cut-off, the overflow and underflow thresholds,
// signed zeros, infinities and NaN.
var expSpecials = [32]float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	708, -708, math.Nextafter(708, 1000), math.Nextafter(-708, -1000),
	expNearZero, -expNearZero, math.Nextafter(expNearZero, 0), math.Nextafter(-expNearZero, 0),
	0x1p-29, -0x1p-40, math.SmallestNonzeroFloat64,
	709.782712893384, 709.79, -745.1332191019411, -745.14, -720, 800, -800,
	0.5 * math.Ln2, -0.5 * math.Ln2, 1, -1, 1e-300, -30, 30, math.MaxFloat64, -math.MaxFloat64,
}

// expFuzzValue maps two fuzz bytes to an Exp argument: a special when the
// first is below 32, otherwise the pair read as a signed 16-bit integer over
// 40, which lies in ±820, beyond the kernel's ±708 about one time in seven.
func expFuzzValue(hi, lo byte) float64 {
	if int(hi) < len(expSpecials) {
		return expSpecials[hi]
	}
	return float64(int16(uint16(hi)<<8|uint16(lo))) / 40
}

// FuzzExp runs ExpInto with useAVX2 off and on and requires Exp's bits in
// every element, except that any NaN matches any NaN. The first byte gives
// n ≤ 37 elements, so every tail length follows every body length; the
// second an offset 0–3 of both operands in their buffers, so the vectors
// start at every alignment, and whether dst is src itself. Further bytes,
// two per element and repeated as needed, are the arguments. The buffer
// around each operand must keep its guard bits.
func FuzzExp(f *testing.F) {
	f.Add([]byte{37, 1, 200, 1, 30, 2, 100, 7, 5, 0, 4, 0, 210, 9, 40, 40})
	f.Add([]byte{8, 6, 9, 0, 10, 0, 11, 0, 12, 0, 13, 0, 14, 0, 15, 0, 16, 0})
	f.Add([]byte{16, 3, 5, 0, 6, 0, 7, 0, 8, 0, 20, 0, 21, 0, 22, 0, 200, 0})
	f.Add([]byte{4, 0, 0, 0, 1, 0, 2, 0, 3, 0})
	f.Add([]byte{0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, off, alias := int(data[0]%38), int(data[1]%4), data[1]&4 != 0
		vals := data[2:]
		src := make([]float64, n)
		for i := range src {
			if len(vals) > 1 {
				j := 2 * i % (len(vals) - 1)
				src[i] = expFuzzValue(vals[j], vals[j+1])
			}
		}
		for _, kern := range elementwiseKernels() {
			in, out := guarded(src, off), guarded(src, off)
			if alias {
				out = in
			}
			withKernel(kern, func() { ExpInto(out.op, in.op) })
			for _, b := range []guardedVec{in, out} {
				if !b.intact() {
					t.Fatalf("ExpInto on %v wrote outside its operands (n=%d offset=%d alias=%v)", kern, n, off, alias)
				}
			}
			for i, x := range src {
				got, want := out.op[i], Exp(x)
				if !(math.IsNaN(got) && math.IsNaN(want)) && math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("ExpInto on %v: element %d of %d, Exp(%v) = %v, want %v (offset=%d alias=%v)",
						kern, i, n, x, got, want, off, alias)
				}
			}
			if !alias {
				for i, x := range src {
					if math.Float64bits(in.op[i]) != math.Float64bits(x) {
						t.Fatalf("ExpInto on %v changed its source at %d", kern, i)
					}
				}
			}
		}
	})
}

// TestExpIntoMatchesExp checks the kernel bitwise against Exp over a long
// vector of softmax-like arguments (logit minus row maximum) with the
// specials mixed in.
func TestExpIntoMatchesExp(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, 100_003)
	for i := range src {
		switch {
		case i%97 == 0:
			src[i] = expSpecials[rng.Intn(len(expSpecials))]
		case i%2 == 0:
			src[i] = -30 * rng.Float64()
		default:
			src[i] = float64(1600*rng.Float64()) - 800
		}
	}
	for _, kern := range elementwiseKernels() {
		dst := make([]float64, len(src))
		withKernel(kern, func() { ExpInto(dst, src) })
		for i, x := range src {
			if want := Exp(x); !(math.IsNaN(want) && math.IsNaN(dst[i])) && math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("%v: ExpInto gives %v at %v, Exp %v", kern, dst[i], x, want)
			}
		}
	}
}

// ulps returns how many float64 values lie between a and b, which must
// have the same sign; an exact match, infinities included, is 0.
func ulps(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x > y {
		return x - y
	}
	return y - x
}

// within1ULP reports whether got is within 1 ulp of want, NaN matching
// NaN.
func within1ULP(got, want float64) bool {
	if math.IsNaN(want) || math.IsNaN(got) {
		return math.IsNaN(want) && math.IsNaN(got)
	}
	if got == want {
		return true
	}
	return math.Signbit(got) == math.Signbit(want) && ulps(got, want) <= 1
}

// bigLn2 is ln 2 to 100 digits.
const bigLn2 = "0.6931471805599453094172321214581765680755001343602552541206800094933936219696947156058633269964186875"

// expReference returns e**x correctly rounded to float64, for |x| ≤ 708:
// x = k·ln2 + r in 200-bit arithmetic, e**r from its Taylor series, and
// the 2**k scale exact.
func expReference(x float64) float64 {
	const prec = 200
	ln2, _, _ := big.ParseFloat(bigLn2, 10, prec, big.ToNearestEven)
	k := math.Round(x / math.Ln2)
	r := new(big.Float).SetPrec(prec).SetFloat64(x)
	r.Sub(r, new(big.Float).SetPrec(prec).Mul(ln2, big.NewFloat(k)))
	sum := new(big.Float).SetPrec(prec).SetInt64(1)
	term := new(big.Float).SetPrec(prec).SetInt64(1)
	for n := int64(1); n < 60; n++ {
		term.Mul(term, r)
		term.Quo(term, new(big.Float).SetPrec(prec).SetInt64(n))
		sum.Add(sum, term)
	}
	sum.SetMantExp(sum, int(k))
	v, _ := sum.Float64()
	return v
}

// TestTranscendentalsWithin1ULP checks Exp within 1 ulp of e**x, and
// Exp, Log and Pow against the standard library's on random arguments
// across their ranges and on the special cases.
//
// math.Exp is no tighter reference: it is itself within about 1 ulp of
// e**x, so the two can round to opposite sides of it and lie 2 ulps apart
// (183 of 1.5 million arguments in [−708, 708] on an FMA CPU), and amd64's
// assembly overflows to +Inf from about 709.47 where e**x is still finite.
// Log gives math.Log's bits on every normal argument tried, but amd64's
// math.Log does not normalize subnormal arguments (math.Log(5e-324) is
// −709.09, not −744.44), so those are checked through
// Log(x·2^54) − 54·ln 2. Pow's integral powers multiply as math.Pow's do,
// with the same bits; a fraction of y goes through Exp and Log, whose
// differences from math's the later products and the reciprocal can grow:
// over 1.4 million arguments with |y| ≤ 30 they reached 5 ulps.
func TestTranscendentalsWithin1ULP(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		x := float64(1416*rng.Float64()) - 708
		if i%2 == 0 {
			x = -30 * rng.Float64()
		}
		if got, want := Exp(x), expReference(x); ulps(got, want) > 1 {
			t.Fatalf("Exp(%v) = %v, e**x rounds to %v", x, got, want)
		}
	}
	specials := []float64{0, math.Copysign(0, -1), 1, -1, 2, 0.5, -0.5, 3, -3, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, math.MaxFloat64, 1e-310, 709.79, -745.2, 1 << 53, 1<<63 + 1<<11}
	for _, x := range specials {
		if got, want := Exp(x), math.Exp(x); !within1ULP(got, want) {
			t.Errorf("Exp(%v) = %v, math.Exp %v", x, got, want)
		}
		if x != 0 && math.Abs(x) < 0x1p-1022 {
			if got, want := Log(x), math.Log(x*0x1p54)-54*math.Ln2; math.Abs(got-want) > 1e-13 {
				t.Errorf("Log(%v) = %v, want %v", x, got, want)
			}
		} else if got, want := Log(x), math.Log(x); !within1ULP(got, want) {
			t.Errorf("Log(%v) = %v, math.Log %v", x, got, want)
		}
		for _, y := range specials {
			if got, want := Pow(x, y), math.Pow(x, y); !within1ULP(got, want) {
				t.Errorf("Pow(%v, %v) = %v, math.Pow %v", x, y, got, want)
			}
		}
	}
	for i := 0; i < 100_000; i++ {
		x := float64(1416*rng.Float64()) - 708
		if got, want := Exp(x), math.Exp(x); !within1ULP(got, want) && ulps(got, want) > 2 {
			t.Fatalf("Exp(%v) = %v, math.Exp %v, more than 2 ulps apart", x, got, want)
		}
		p := math.Ldexp(float64(rng.Float64())+0.5, rng.Intn(2046)-1021)
		if got, want := Log(p), math.Log(p); !within1ULP(got, want) {
			t.Fatalf("Log(%v) = %v, math.Log %v", p, got, want)
		}
		base, e, tol := 10*rng.Float64(), float64(60*rng.Float64())-30, uint64(6)
		if i%2 == 0 {
			base, e, tol = -base, math.Round(e), 1
		}
		if got, want := Pow(base, e), math.Pow(base, e); !within1ULP(got, want) && ulps(got, want) > tol {
			t.Fatalf("Pow(%v, %v) = %v, math.Pow %v, more than %d ulps apart", base, e, got, want, tol)
		}
	}
}

// benchExpArgs are the arguments of one eval forward's softmax: 400 rows
// of 10 logits minus their row maximum.
func benchExpArgs() []float64 {
	rng := rand.New(rand.NewSource(3))
	src := make([]float64, 400*10)
	for i := range src {
		src[i] = -12 * rng.Float64()
	}
	return src
}

// BenchmarkExp times ExpInto over benchExpArgs on each kernel this
// machine runs ("go" is Exp element by element, "avx2" the assembly), and
// math.Exp for reference.
func BenchmarkExp(b *testing.B) {
	src := benchExpArgs()
	dst := make([]float64, len(src))
	for _, kern := range elementwiseKernels() {
		b.Run(kern.name, func(b *testing.B) {
			withKernel(kern, func() {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ExpInto(dst, src)
				}
			})
		})
	}
	b.Run("math", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, x := range src {
				dst[j] = math.Exp(x)
			}
		}
	})
}

func TestExpIntoAllocatesNothing(t *testing.T) {
	src := benchExpArgs()
	dst := make([]float64, len(src))
	for _, kern := range elementwiseKernels() {
		withKernel(kern, func() {
			if n := testing.AllocsPerRun(10, func() { ExpInto(dst, src) }); n != 0 {
				t.Errorf("ExpInto on %v allocates %v times, want 0", kern, n)
			}
		})
	}
}
