package tensor

import (
	"fmt"
	"math"
)

// useAVX2 selects the assembly kernels, and useAVX512, which implies it,
// the AVX-512 gemm. Both are set once, from what the CPU and the operating
// system report, and only tests flip them, to run every kernel this CPU
// has on the same inputs.
var (
	useAVX2   = haveAVX2()
	useAVX512 = useAVX2 && haveAVX512()
)

// avx512OK reports, from CPUID leaf 7's EBX and XCR0, whether the CPU has
// AVX-512F and the operating system saves its state: the opmask registers
// and both halves of the ZMM state (bits 5–7 of XCR0), besides the XMM and
// YMM state (bits 1 and 2).
func avx512OK(ebx7, xcr0 uint32) bool {
	const avx512f, zmmState = 1 << 16, 0xE6
	return ebx7&avx512f != 0 && xcr0&zmmState == zmmState
}

// The bits of gemm's epilogue, ep: what every kernel does to each output
// lane after the lane's k products and before its store. epReLU and
// epGate are the two gates and exclude each other.
const (
	// epBias adds b's row k: b is (k+1)×n, its last row the bias.
	epBias = 1 << iota
	// epReLU gates the lane on itself: it keeps the lane where it is > 0
	// and writes +0 where it is ≤ 0 or NaN.
	epReLU
	// epGate gates the lane on gate's element at the same row and column:
	// it keeps the lane where that element is > 0 and writes +0 where it
	// is ≤ 0 or NaN. gate has out's m×n shape.
	epGate
)

// gemm is the one matmul kernel every product goes through:
//
//	out[i,j] = Σ_p a[i·aRowStride + p·aColStride] · b[p·n + j]
//
// for i < m, j < n, p < k, followed by the epilogue ep. b is k×n (with
// epBias (k+1)×n) in its natural row-major layout and out is m×n; a is
// read through strides, so both a natural m×k operand (k, 1) and the
// transpose of a k×m one (1, m) need no copy. out is overwritten. Every
// output element is one accumulator that starts at +0 and adds its k
// products in ascending p, on every kernel: the assembly gives each vector
// lane its own output element and multiplies and adds in separate
// instructions, never fused. With epBias the lane then adds b[k, j], the
// (k+1)-th term of a ones column, which gives a row add's bits after the
// product; then the gate, if any, keeps the lane or writes +0. On AVX-512F
// CPUs gemmAVX512 runs, eight lanes to a register; elsewhere on AVX2 CPUs
// gemmAVX2, four.
func gemm(out, a, b, gate []float64, m, k, n, aRowStride, aColStride, ep int) {
	rowsB := k
	if ep&epBias != 0 {
		rowsB++
	}
	if len(out) < m*n || len(b) < rowsB*n ||
		(m > 0 && k > 0 && len(a) <= (m-1)*aRowStride+(k-1)*aColStride) ||
		(ep&epGate != 0 && len(gate) < m*n) {
		panic(fmt.Sprintf("tensor: gemm operands too short for %dx%dx%d", m, k, n))
	}
	if ep&epReLU != 0 && ep&epGate != 0 {
		panic("tensor: gemm with two gates")
	}
	if m == 0 || n == 0 {
		return
	}
	if useAVX512 {
		gemmAVX512(out, a, b, gate, m, k, n, aRowStride, aColStride, ep)
		return
	}
	if useAVX2 {
		gemmAVX2(out, a, b, gate, m, k, n, aRowStride, aColStride, ep)
		return
	}
	gemmGo(out, a, b, gate, m, k, n, aRowStride, aColStride, ep)
}

// gemmGo is the portable kernel and the assembly's oracle: each row of out
// starts at +0 and takes b's rows, scaled by a broadcast entry of a, in
// ascending p, then the epilogue. Each product is rounded on its own, so
// no architecture may fuse it into the add. The gates are bit masks, not
// branches, so mixed-sign data costs no mispredictions.
func gemmGo(out, a, b, gate []float64, m, k, n, aRowStride, aColStride, ep int) {
	for i := 0; i < m; i++ {
		o := out[i*n:][:n]
		clear(o)
		for p := 0; p < k; p++ {
			x := a[i*aRowStride+p*aColStride]
			for j, y := range b[p*n:][:n] {
				o[j] += float64(x * y)
			}
		}
		if ep&epBias != 0 {
			for j, y := range b[k*n:][:n] {
				o[j] += y
			}
		}
		var g []float64 // the gate row, if any: o itself for ReLU
		switch {
		case ep&epReLU != 0:
			g = o
		case ep&epGate != 0:
			g = gate[i*n:][:n]
		}
		for j, x := range g {
			o[j] = math.Float64frombits(math.Float64bits(o[j]) & positiveMask(math.Float64bits(x)))
		}
	}
}

// positiveMask returns all ones if the float64 with bit pattern b is > 0,
// and all zeros if it is ≤ 0 or NaN, without a branch. Read as an int64 s,
// such a float is exactly 0 < s ≤ +Inf's bits: then -s and s-(+Inf bits)-1
// are both negative, while for zeros, negatives and NaNs one of them is
// not, so the AND of their sign bits is the mask.
func positiveMask(b uint64) uint64 {
	const posInf = 0x7FF0000000000000
	s := int64(b)
	return uint64((-s & (s - posInf - 1)) >> 63)
}
