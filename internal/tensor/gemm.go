package tensor

import "fmt"

// useAVX2 selects the assembly kernel. It is set once, from what the CPU
// and the operating system report, and only tests flip it, to run the
// pure-Go kernel on the same inputs.
var useAVX2 = haveAVX2()

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
// in separate instructions, never fused.
func gemm(out, a, b []float64, m, k, n, aRowStride, aColStride int) {
	if len(out) < m*n || len(b) < k*n ||
		(m > 0 && k > 0 && len(a) <= (m-1)*aRowStride+(k-1)*aColStride) {
		panic(fmt.Sprintf("tensor: gemm operands too short for %dx%dx%d", m, k, n))
	}
	if m == 0 || n == 0 {
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
