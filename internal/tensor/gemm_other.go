//go:build !amd64

package tensor

func haveAVX2() bool { return false }

func haveAVX512() bool { return false }

func gemmAVX2(out, a, b, gate []float64, m, k, n, aRowStride, aColStride, ep int) { noAVX2() }

func gemmAVX512(out, a, b, gate []float64, m, k, n, aRowStride, aColStride, ep int) { noAVX2() }

func noAVX2() { panic("tensor: no x86 vector kernel on this architecture") }

func transposeAVX2(dst, a []float64, m, n, dstStride int) { noAVX2() }
