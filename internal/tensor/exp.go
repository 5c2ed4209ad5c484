package tensor

import "math"

// Exp, Log and Pow are the repository's own transcendental functions. The
// standard library's are not the same function on every CPU: on amd64
// math.Exp runs fused multiply-add assembly where the CPU has FMA and other
// assembly where it does not, arm64 has assembly of its own, and the
// compiler may fuse the portable Go version's products. Their last bits
// reach the loss curves and the policy search, so a result file would
// depend on the machine. These are ports of the fdlibm algorithms of Go's
// portable math/exp.go, log.go and pow.go with every product rounded on its
// own (float64(x*y)), so they give the same bits everywhere. The helpers
// they call from math (Frexp, Ldexp, Modf, Sqrt, Abs) are exact or
// correctly rounded, so they carry no CPU dependence.
//
// ExpInto applies Exp to a whole vector. On AVX2 CPUs its assembly
// (exp_amd64.s) runs four lanes to a register with the scalar's IEEE
// operations in the scalar's order, so it gives Exp's bits.

const (
	ln2Hi = 6.93147180369123816490e-01
	ln2Lo = 1.90821492927058770002e-10
	log2e = 1.44269504088896338700e+00

	// expNearZero is the magnitude below which Exp returns 1 + x.
	expNearZero = 1.0 / (1 << 28)
	// expLaneMax bounds the inputs the vector kernel computes: for
	// |x| ≤ expLaneMax the result is a normal number, so scaling by 2^k is
	// an add to the exponent bits. Other lanes, NaN among them, run Exp.
	expLaneMax = 708

	expP1 = 1.66666666666666657415e-01
	expP2 = -2.77777777770155933842e-03
	expP3 = 6.61375632143793436117e-05
	expP4 = -1.65339022054652515390e-06
	expP5 = 4.13813679705723846039e-08
)

// Exp returns e**x. Special cases: Exp(+Inf) = +Inf, Exp(NaN) = NaN,
// Exp(-Inf) = 0; very large arguments overflow to +Inf and very small ones
// underflow to 0. The result is within 1 ulp of e**x.
//
// The argument is reduced as x = k·ln2 + r with |r| ≤ ln2/2, r = hi − lo
// for extra precision; e**r comes from a rational approximation and the
// result is e**r scaled by 2**k.
func Exp(x float64) float64 {
	const (
		overflow  = 7.09782712893383973096e+02
		underflow = -7.45133219101941108420e+02
	)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > overflow:
		return math.Inf(1)
	case x < underflow:
		return 0
	case -expNearZero < x && x < expNearZero:
		return 1 + x
	}
	var k int
	switch {
	case x < 0:
		k = int(float64(log2e*x) - 0.5)
	case x > 0:
		k = int(float64(log2e*x) + 0.5)
	}
	hi := x - float64(float64(k)*ln2Hi)
	lo := float64(float64(k) * ln2Lo)
	r := hi - lo
	t := float64(r * r)
	p := expP4 + float64(t*expP5)
	p = expP3 + float64(t*p)
	p = expP2 + float64(t*p)
	p = expP1 + float64(t*p)
	c := r - float64(t*p)
	y := 1 - ((lo - float64(r*c)/(2-c)) - hi)
	// y is within a factor √2 of 1. Where y·2**k is normal, scaling is an
	// add to the exponent field; math.Ldexp takes the subnormal and
	// overflowing results.
	b := math.Float64bits(y)
	if e := int(b>>52&0x7FF) + k; 0 < e && e < 0x7FF {
		return math.Float64frombits(b + uint64(k)<<52)
	}
	return math.Ldexp(y, k)
}

// ExpInto writes Exp(src[i]) into dst[i] for every i. dst must be at
// least as long as src; it may be src itself but must not overlap it
// otherwise. Where the CPU has AVX2 the assembly runs four elements at a
// time with Exp's bits; a group of four holding a NaN or an element beyond
// ±708 runs Exp instead, as does the tail.
func ExpInto(dst, src []float64) {
	dst = dst[:len(src)]
	i := 0
	if useAVX2 {
		for n := len(src) &^ 3; i < n; {
			i += expAVX2(dst[i:n], src[i:n], &expLanes)
			if i < n {
				expGo(dst[i:i+4], src[i:i+4])
				i += 4
			}
		}
	}
	expGo(dst[i:], src[i:])
}

func expGo(dst, src []float64) {
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = Exp(x)
	}
}

// expLanes holds the constants of the vector kernel, each repeated in the
// four lanes of a YMM register so that the assembly can take it as a
// memory operand. The order is the kernel's (exp_amd64.s).
var expLanes = func() (c [15][4]float64) {
	for i, v := range [...]float64{
		math.Float64frombits(1<<63 - 1), // |x| mask
		math.Float64frombits(1 << 63),   // sign mask
		expLaneMax, expNearZero, 0.5, log2e, ln2Hi, ln2Lo,
		expP5, expP4, expP3, expP2, expP1, 1, 2,
	} {
		c[i] = [4]float64{v, v, v, v}
	}
	return c
}()

// Log returns the natural logarithm of x. Special cases: Log(+Inf) = +Inf,
// Log(0) = -Inf, Log(x < 0) = NaN, Log(NaN) = NaN. The result is within
// 1 ulp of ln x.
//
// x is reduced to 2**k·(1+f) with √2/2 < 1+f < √2; with s = f/(2+f),
// log(1+f) = 2s + s·R(s²) for a minimax polynomial R.
func Log(x float64) float64 {
	const (
		l1 = 6.666666666666735130e-01
		l2 = 3.999999999940941908e-01
		l3 = 2.857142874366239149e-01
		l4 = 2.222219843214978396e-01
		l5 = 1.818357216161805012e-01
		l6 = 1.531383769920937332e-01
		l7 = 1.479819860511658591e-01
	)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case x < 0:
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	}
	f1, ki := math.Frexp(x)
	if f1 < math.Sqrt2/2 {
		f1 *= 2
		ki--
	}
	f := f1 - 1
	k := float64(ki)
	s := f / (2 + f)
	s2 := float64(s * s)
	s4 := float64(s2 * s2)
	t1 := float64(s2 * (l1 + float64(s4*(l3+float64(s4*(l5+float64(s4*l7)))))))
	t2 := float64(s4 * (l2 + float64(s4*(l4+float64(s4*l6)))))
	rr := t1 + t2
	hfsq := float64(float64(0.5*f) * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+rr)) + float64(k*ln2Lo))) - f)
}

// Pow returns x**y, with the special cases of math.Pow. The fractional
// part of y goes through Exp and Log; the integral part multiplies in
// successive squarings of x, keeping the powers of two apart.
func Pow(x, y float64) float64 {
	switch {
	case y == 0 || x == 1:
		return 1
	case y == 1:
		return x
	case math.IsNaN(x) || math.IsNaN(y):
		return math.NaN()
	case x == 0:
		switch {
		case y < 0:
			if math.Signbit(x) && isOddInt(y) {
				return math.Inf(-1)
			}
			return math.Inf(1)
		case y > 0:
			if math.Signbit(x) && isOddInt(y) {
				return x
			}
			return 0
		}
	case math.IsInf(y, 0):
		switch {
		case x == -1:
			return 1
		case (math.Abs(x) < 1) == math.IsInf(y, 1):
			return 0
		default:
			return math.Inf(1)
		}
	case math.IsInf(x, 0):
		if math.IsInf(x, -1) {
			return Pow(1/x, -y) // Pow(-0, -y)
		}
		switch {
		case y < 0:
			return 0
		case y > 0:
			return math.Inf(1)
		}
	case y == 0.5:
		return math.Sqrt(x)
	case y == -0.5:
		return 1 / math.Sqrt(x)
	}

	yi, yf := math.Modf(math.Abs(y))
	if yf != 0 && x < 0 {
		return math.NaN()
	}
	if yi >= 1<<63 {
		// A large even integer: the result overflows or underflows for
		// every x but -1 (x == 1 returned above).
		switch {
		case x == -1:
			return 1
		case (math.Abs(x) < 1) == (y > 0):
			return 0
		default:
			return math.Inf(1)
		}
	}

	// The result is a1·2**ae.
	a1 := 1.0
	ae := 0
	if yf != 0 {
		if yf > 0.5 {
			yf--
			yi++
		}
		a1 = Exp(float64(yf * Log(x)))
	}
	x1, xe := math.Frexp(x)
	for i := int64(yi); i != 0; i >>= 1 {
		if xe < -1<<12 || 1<<12 < xe {
			// xe would overflow the shift below; ae already bounds the
			// result beyond float64's exponent range, so Ldexp gives 0 or
			// Inf.
			ae += xe
			break
		}
		if i&1 == 1 {
			a1 = float64(a1 * x1)
			ae += xe
		}
		x1 = float64(x1 * x1)
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	if y < 0 {
		a1 = 1 / a1
		ae = -ae
	}
	return math.Ldexp(a1, ae)
}

// isOddInt reports whether x is an odd integer. Beyond 2**53 every float64
// is even.
func isOddInt(x float64) bool {
	if math.Abs(x) >= 1<<53 {
		return false
	}
	xi, xf := math.Modf(x)
	return xf == 0 && int64(xi)&1 == 1
}
