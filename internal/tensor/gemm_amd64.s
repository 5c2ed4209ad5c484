#include "textflag.h"
#include "gemm_amd64.h"

// gemmAVX2 walks out in row pairs. When m is odd, the last row runs as a
// pair of two copies of itself: both row strides are zeroed, so both
// halves read the same row of a and store the same values to the same
// row of out. In a pair, column blocks of 16, 8 and 4 doubles keep their
// accumulators in YMM registers; a block of 2 uses XMM and a block of 1 a
// scalar. When exactly ten columns are left, the blocks of 8 and 2 run
// together as one block of 10. A block's accumulators start at +0 (VXORPD) and stay in
// registers for the whole pass over p. Each step broadcasts a[i, p],
// multiplies it by b[p, j:] into a temporary and adds the temporary to the
// accumulator, with the accumulator as first source. Multiply and add are
// separate instructions, never a fused multiply-add, so every lane does
// the same IEEE operations in the same order as gemmGo.
//
// After the pass, and before the stores, the epilogue ep runs on the
// accumulators, as gemmGo's does: with EP_BIAS each lane adds b's row k,
// on which R14 sits when the pass ends; with EP_RELU, VMAXPD against +0
// keeps the lane where it is > 0 and gives +0 where it is ≤ 0 or NaN
// (VMAXPD returns its second source when either is NaN or both are
// zero); with EP_GATE the lane is ANDed with the mask of an ordered
// compare of gate's element at the same row and column against +0.
//
// General registers:
//
//	SI  out, at the current row       DX  b
//	DI  a, at the current row         R8  rows left
//	R9  k                             R10 n
//	R11 aRowStride in bytes           R12 aColStride in bytes
//	R13 n in bytes (b's row stride)   R15 out's row stride in bytes
//	AX  a[i, p], then gate at the current row
//	R14 b[p, j], then b[k, j]         BX  column j
//	CX  p steps left, then scratch
//
// R11 and R15 are zero for the last row of an odd m.
//
// Vector registers: up to 8 accumulators in Y0–Y7 (4 per row), the two
// rows' a[i, p] broadcast into Y8 and Y9, b[p, j:] in Y10–Y13, products
// in Y12–Y15. The epilogue keeps +0 in Y15 and a gate mask in Y14.

// The epilogue's steps on one accumulator: BIAS adds the bias row's
// columns at byte offset off, RELU gates the lanes on themselves, GATE on
// the gate row g at byte offset off. The S forms are the scalar ones.
#define BIAS(off, acc) VADDPD off(R14), acc, acc
#define RELU(acc) VMAXPD Y15, acc, acc
#define GATE(off, g, acc) \
	VCMPPD ORDERED_LT, off(g)(BX*8), Y15, Y14; \
	VANDPD Y14, acc, acc
#define XRELU(acc) VMAXPD X15, acc, acc
#define XGATE(off, g, acc) \
	VCMPPD ORDERED_LT, off(g)(BX*8), X15, X14; \
	VANDPD X14, acc, acc
#define SBIAS(acc) VADDSD (R14), acc, acc
#define SRELU(acc) VMAXSD X15, acc, acc
#define SGATE(g, acc) \
	VCMPSD ORDERED_LT, (g)(BX*8), X15, X14; \
	VANDPD X14, acc, acc

// func gemmAVX2(out, a, b, gate []float64, m, k, n, aRowStride, aColStride, ep int)
TEXT ·gemmAVX2(SB), NOSPLIT, $0-144
	MOVQ out_base+0(FP), SI
	MOVQ a_base+24(FP), DI
	MOVQ b_base+48(FP), DX
	MOVQ m+96(FP), R8
	MOVQ k+104(FP), R9
	MOVQ n+112(FP), R10
	MOVQ aRowStride+120(FP), R11
	SHLQ $3, R11
	MOVQ aColStride+128(FP), R12
	SHLQ $3, R12
	LEAQ (R10*8), R13
	MOVQ R13, R15

pair:
	CMPQ R8, $1
	JNE  cols
	XORQ R11, R11
	XORQ R15, R15

cols:
	XORQ BX, BX

cols16:
	LEAQ 16(BX), CX
	CMPQ CX, R10
	JGT  cols8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	BLOCK(epi16)

loop16:
	VMOVUPD      (R14), Y10
	VMOVUPD      32(R14), Y11
	VMOVUPD      64(R14), Y12
	VMOVUPD      96(R14), Y13
	VBROADCASTSD (AX), Y8
	VBROADCASTSD (AX)(R11*1), Y9
	VMULPD       Y10, Y8, Y14
	VADDPD       Y14, Y0, Y0
	VMULPD       Y11, Y8, Y15
	VADDPD       Y15, Y1, Y1
	VMULPD       Y12, Y8, Y14
	VADDPD       Y14, Y2, Y2
	VMULPD       Y13, Y8, Y15
	VADDPD       Y15, Y3, Y3
	VMULPD       Y10, Y9, Y14
	VADDPD       Y14, Y4, Y4
	VMULPD       Y11, Y9, Y15
	VADDPD       Y15, Y5, Y5
	VMULPD       Y12, Y9, Y14
	VADDPD       Y14, Y6, Y6
	VMULPD       Y13, Y9, Y15
	VADDPD       Y15, Y7, Y7
	STEP
	JNZ          loop16

epi16:
	TESTQ EP_BIAS, ep+136(FP)
	JZ    relu16
	BIAS(0, Y0)
	BIAS(32, Y1)
	BIAS(64, Y2)
	BIAS(96, Y3)
	BIAS(0, Y4)
	BIAS(32, Y5)
	BIAS(64, Y6)
	BIAS(96, Y7)

relu16:
	VXORPD Y15, Y15, Y15
	TESTQ  EP_RELU, ep+136(FP)
	JZ     gate16
	RELU(Y0)
	RELU(Y1)
	RELU(Y2)
	RELU(Y3)
	RELU(Y4)
	RELU(Y5)
	RELU(Y6)
	RELU(Y7)
	JMP    store16

gate16:
	TESTQ EP_GATE, ep+136(FP)
	JZ    store16
	GATEROW
	GATE(0, AX, Y0)
	GATE(32, AX, Y1)
	GATE(64, AX, Y2)
	GATE(96, AX, Y3)
	ADDQ  R15, AX
	GATE(0, AX, Y4)
	GATE(32, AX, Y5)
	GATE(64, AX, Y6)
	GATE(96, AX, Y7)

store16:
	LEAQ    (SI)(R15*1), CX
	VMOVUPD Y0, (SI)(BX*8)
	VMOVUPD Y1, 32(SI)(BX*8)
	VMOVUPD Y2, 64(SI)(BX*8)
	VMOVUPD Y3, 96(SI)(BX*8)
	VMOVUPD Y4, (CX)(BX*8)
	VMOVUPD Y5, 32(CX)(BX*8)
	VMOVUPD Y6, 64(CX)(BX*8)
	VMOVUPD Y7, 96(CX)(BX*8)
	ADDQ    $16, BX
	JMP     cols16

cols8:
	LEAQ 10(BX), CX
	CMPQ CX, R10
	JEQ  cols10
	LEAQ 8(BX), CX
	CMPQ CX, R10
	JGT  cols4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	BLOCK(epi8)

loop8:
	VMOVUPD      (R14), Y10
	VMOVUPD      32(R14), Y11
	VBROADCASTSD (AX), Y8
	VBROADCASTSD (AX)(R11*1), Y9
	VMULPD       Y10, Y8, Y12
	VADDPD       Y12, Y0, Y0
	VMULPD       Y11, Y8, Y13
	VADDPD       Y13, Y1, Y1
	VMULPD       Y10, Y9, Y14
	VADDPD       Y14, Y2, Y2
	VMULPD       Y11, Y9, Y15
	VADDPD       Y15, Y3, Y3
	STEP
	JNZ          loop8

epi8:
	TESTQ EP_BIAS, ep+136(FP)
	JZ    relu8
	BIAS(0, Y0)
	BIAS(32, Y1)
	BIAS(0, Y2)
	BIAS(32, Y3)

relu8:
	VXORPD Y15, Y15, Y15
	TESTQ  EP_RELU, ep+136(FP)
	JZ     gate8
	RELU(Y0)
	RELU(Y1)
	RELU(Y2)
	RELU(Y3)
	JMP    store8

gate8:
	TESTQ EP_GATE, ep+136(FP)
	JZ    store8
	GATEROW
	GATE(0, AX, Y0)
	GATE(32, AX, Y1)
	ADDQ  R15, AX
	GATE(0, AX, Y2)
	GATE(32, AX, Y3)

store8:
	LEAQ    (SI)(R15*1), CX
	VMOVUPD Y0, (SI)(BX*8)
	VMOVUPD Y1, 32(SI)(BX*8)
	VMOVUPD Y2, (CX)(BX*8)
	VMOVUPD Y3, 32(CX)(BX*8)
	ADDQ    $8, BX

cols4:
	LEAQ 4(BX), CX
	CMPQ CX, R10
	JGT  cols2
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	BLOCK(epi4)

loop4:
	VMOVUPD      (R14), Y10
	VBROADCASTSD (AX), Y8
	VBROADCASTSD (AX)(R11*1), Y9
	VMULPD       Y10, Y8, Y12
	VADDPD       Y12, Y0, Y0
	VMULPD       Y10, Y9, Y13
	VADDPD       Y13, Y1, Y1
	STEP
	JNZ          loop4

epi4:
	TESTQ EP_BIAS, ep+136(FP)
	JZ    relu4
	BIAS(0, Y0)
	BIAS(0, Y1)

relu4:
	VXORPD Y15, Y15, Y15
	TESTQ  EP_RELU, ep+136(FP)
	JZ     gate4
	RELU(Y0)
	RELU(Y1)
	JMP    store4

gate4:
	TESTQ EP_GATE, ep+136(FP)
	JZ    store4
	GATEROW
	GATE(0, AX, Y0)
	ADDQ  R15, AX
	GATE(0, AX, Y1)

store4:
	LEAQ    (SI)(R15*1), CX
	VMOVUPD Y0, (SI)(BX*8)
	VMOVUPD Y1, (CX)(BX*8)
	ADDQ    $4, BX

cols2:
	LEAQ 2(BX), CX
	CMPQ CX, R10
	JGT  cols1
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	BLOCK(epi2)

loop2:
	VMOVUPD  (R14), X10
	VMOVDDUP (AX), X8
	VMOVDDUP (AX)(R11*1), X9
	VMULPD   X10, X8, X12
	VADDPD   X12, X0, X0
	VMULPD   X10, X9, X13
	VADDPD   X13, X1, X1
	STEP
	JNZ      loop2

epi2:
	TESTQ EP_BIAS, ep+136(FP)
	JZ    relu2
	BIAS(0, X0)
	BIAS(0, X1)

relu2:
	VXORPD X15, X15, X15
	TESTQ  EP_RELU, ep+136(FP)
	JZ     gate2
	XRELU(X0)
	XRELU(X1)
	JMP    store2

gate2:
	TESTQ EP_GATE, ep+136(FP)
	JZ    store2
	GATEROW
	XGATE(0, AX, X0)
	ADDQ  R15, AX
	XGATE(0, AX, X1)

store2:
	LEAQ    (SI)(R15*1), CX
	VMOVUPD X0, (SI)(BX*8)
	VMOVUPD X1, (CX)(BX*8)
	ADDQ    $2, BX

cols1:
	CMPQ BX, R10
	JGE  nextpair
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	BLOCK(epi1)

loop1:
	VMOVSD (R14), X10
	VMOVSD (AX), X8
	VMOVSD (AX)(R11*1), X9
	VMULSD X10, X8, X12
	VADDSD X12, X0, X0
	VMULSD X10, X9, X13
	VADDSD X13, X1, X1
	STEP
	JNZ    loop1

epi1:
	TESTQ EP_BIAS, ep+136(FP)
	JZ    relu1
	SBIAS(X0)
	SBIAS(X1)

relu1:
	VXORPD X15, X15, X15
	TESTQ  EP_RELU, ep+136(FP)
	JZ     gate1
	SRELU(X0)
	SRELU(X1)
	JMP    store1

gate1:
	TESTQ EP_GATE, ep+136(FP)
	JZ    store1
	GATEROW
	SGATE(AX, X0)
	ADDQ  R15, AX
	SGATE(AX, X1)

store1:
	LEAQ   (SI)(R15*1), CX
	VMOVSD X0, (SI)(BX*8)
	VMOVSD X1, (CX)(BX*8)

nextpair:
	LEAQ (DI)(R11*2), DI
	LEAQ (SI)(R15*2), SI
	SUBQ $2, R8
	JGT  pair
	VZEROUPPER
	RET

// The last ten columns run as one block of 8 and one of 2 in a single
// pass over p: six accumulators, so the 2-wide tail does not take a pass
// of its own.
cols10:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD X4, X4, X4
	VXORPD X5, X5, X5
	BLOCK(epi10)

loop10:
	VMOVUPD      (R14), Y10
	VMOVUPD      32(R14), Y11
	VMOVUPD      64(R14), X12
	VBROADCASTSD (AX), Y8
	VBROADCASTSD (AX)(R11*1), Y9
	VMULPD       Y10, Y8, Y13
	VADDPD       Y13, Y0, Y0
	VMULPD       Y11, Y8, Y14
	VADDPD       Y14, Y1, Y1
	VMULPD       X12, X8, X15
	VADDPD       X15, X4, X4
	VMULPD       Y10, Y9, Y13
	VADDPD       Y13, Y2, Y2
	VMULPD       Y11, Y9, Y14
	VADDPD       Y14, Y3, Y3
	VMULPD       X12, X9, X15
	VADDPD       X15, X5, X5
	STEP
	JNZ          loop10

epi10:
	TESTQ EP_BIAS, ep+136(FP)
	JZ    relu10
	BIAS(0, Y0)
	BIAS(32, Y1)
	BIAS(64, X4)
	BIAS(0, Y2)
	BIAS(32, Y3)
	BIAS(64, X5)

relu10:
	VXORPD Y15, Y15, Y15
	TESTQ  EP_RELU, ep+136(FP)
	JZ     gate10
	RELU(Y0)
	RELU(Y1)
	XRELU(X4)
	RELU(Y2)
	RELU(Y3)
	XRELU(X5)
	JMP    store10

gate10:
	TESTQ EP_GATE, ep+136(FP)
	JZ    store10
	GATEROW
	GATE(0, AX, Y0)
	GATE(32, AX, Y1)
	XGATE(64, AX, X4)
	ADDQ  R15, AX
	GATE(0, AX, Y2)
	GATE(32, AX, Y3)
	XGATE(64, AX, X5)

store10:
	LEAQ    (SI)(R15*1), CX
	VMOVUPD Y0, (SI)(BX*8)
	VMOVUPD Y1, 32(SI)(BX*8)
	VMOVUPD X4, 64(SI)(BX*8)
	VMOVUPD Y2, (CX)(BX*8)
	VMOVUPD Y3, 32(CX)(BX*8)
	VMOVUPD X5, 64(CX)(BX*8)
	JMP     nextpair

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
