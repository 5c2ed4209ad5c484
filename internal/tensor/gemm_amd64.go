package tensor

// gemmAVX2 and gemmAVX512 are gemm's assembly kernels (gemm_amd64.s and
// gemm_avx512_amd64.s). The caller checks the operand lengths, that m
// and n are positive and that ep holds at most one gate.
//
//go:noescape
func gemmAVX2(out, a, b, gate []float64, m, k, n, aRowStride, aColStride, ep int)

//go:noescape
func gemmAVX512(out, a, b, gate []float64, m, k, n, aRowStride, aColStride, ep int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// haveAVX2 reports whether the CPU has AVX2 and the operating system saves
// the YMM registers across context switches (OSXSAVE set, and XCR0 enabling
// both the XMM and the YMM state).
func haveAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// haveAVX512 reports whether the CPU has AVX-512F and the operating system
// saves the opmask and ZMM registers (avx512OK). gemm asks it only where
// haveAVX2 holds, which has checked CPUID's leaf count and OSXSAVE.
func haveAVX512() bool {
	_, ebx, _, _ := cpuid(7, 0)
	xcr0, _ := xgetbv()
	return avx512OK(ebx, xcr0)
}

// transposeAVX2 is TransposeInto's kernel (transpose_amd64.s): it writes
// the transpose of the first m rows of the m×n matrix a into dst, whose
// rows are dstStride long, in 4×4 tiles and, past the last multiple of 4
// columns, a 4×2 and a 4×1 tile. m is a multiple of 4; the caller checks
// the lengths and transposes the remaining rows.
//
//go:noescape
func transposeAVX2(dst, a []float64, m, n, dstStride int)
