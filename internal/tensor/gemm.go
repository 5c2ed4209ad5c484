package tensor

import "fmt"

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

// gemm is the one matmul kernel every product goes through:
//
//	out[i,j] = Σ_p a[i·aRowStride + p·aColStride] · b[p·n + j]
//
// for i < m, j < n, p < k. b is k×n in its natural row-major layout and
// out is m×n; a is read through strides, so both a natural m×k operand
// (k, 1) and the transpose of a k×m one (1, m) need no copy. out is
// overwritten. Every output element is one accumulator that starts at +0
// and adds its k products in ascending p, on both kernels: the assembly
// gives each vector lane its own output element and multiplies and adds
// in separate instructions, never fused. On AVX-512F CPUs gemmAVX512 runs,
// eight lanes to a register; elsewhere on AVX2 CPUs gemmAVX2, four.
func gemm(out, a, b []float64, m, k, n, aRowStride, aColStride int) {
	if len(out) < m*n || len(b) < k*n ||
		(m > 0 && k > 0 && len(a) <= (m-1)*aRowStride+(k-1)*aColStride) {
		panic(fmt.Sprintf("tensor: gemm operands too short for %dx%dx%d", m, k, n))
	}
	if m == 0 || n == 0 {
		return
	}
	if useAVX512 {
		gemmAVX512(out, a, b, m, k, n, aRowStride, aColStride)
		return
	}
	if useAVX2 {
		gemmAVX2(out, a, b, m, k, n, aRowStride, aColStride)
		return
	}
	gemmGo(out, a, b, m, k, n, aRowStride, aColStride)
}

// gemmGo is the portable kernel and the assembly's oracle: each row of out
// starts at +0 and takes b's rows, scaled by a broadcast entry of a, in
// ascending p. Each product is rounded on its own, so no architecture may
// fuse it into the add.
func gemmGo(out, a, b []float64, m, k, n, aRowStride, aColStride int) {
	for i := 0; i < m; i++ {
		o := out[i*n:][:n]
		clear(o)
		for p := 0; p < k; p++ {
			x := a[i*aRowStride+p*aColStride]
			for j, y := range b[p*n:][:n] {
				o[j] += float64(x * y)
			}
		}
	}
}
