#include "textflag.h"

// The softmax kernels (softmax.go). Each runs the first m rows of its
// operands, m a multiple of 4, one group of four rows at a time with the
// row as the lane: lane r of a YMM register belongs to row 4g + r. A group
// of four rows in e holds its n columns one after another, four lanes to a
// column. Each lane does the IEEE operations of the Go loops in
// softmax.go in the same order. In Go's operand order "VSUBPD Y1, Y2, Y3"
// is Y3 = Y2 − Y1, "VDIVPD Y1, Y2, Y3" is Y3 = Y2 / Y1 and
// "VMAXPD Y1, Y2, Y3" is Y3 = Y2 > Y1 ? Y2 : Y1: with the column in Y2
// that is the Go loop's if v > m { m = v }, since VMAXPD returns its
// second source (Y1) when the two compare equal or either is NaN.
//
// Row-major operands (logits, grad) are reached through a column pointer
// p at row 4g: rows 4g+1, 4g+2 and 4g+3 are p + R10, p + 2·R10 and
// p + R11, with R10 the row stride in bytes and R11 three times it.

// GATHER loads column p of the group's four rows into v, lane r from row
// 4g + r: VBROADCASTSD is a plain load, and each blend takes one lane.
#define GATHER(p, v, t) \
	VBROADCASTSD (p), v;          \
	VBROADCASTSD (p)(R10*1), t;   \
	VBLENDPD     $2, t, v, v;     \
	VBROADCASTSD (p)(R10*2), t;   \
	VBLENDPD     $4, t, v, v;     \
	VBROADCASTSD (p)(R11*1), t;   \
	VBLENDPD     $8, t, v, v

// SCATTER stores lane r of v (whose low half is x) to column p of row
// 4g + r; X15 is scratch.
#define SCATTER(v, x, p) \
	VMOVSD       x, (p);          \
	VMOVHPD      x, (p)(R10*1);   \
	VEXTRACTF128 $1, v, X15;      \
	VMOVSD       X15, (p)(R10*2); \
	VMOVHPD      X15, (p)(R11*1)

// func softmaxShiftAVX2(e, logits []float64, m, n int)
//
// Per group: the first pass gathers each column of the logits, stores it
// to e and folds the row maxima into Y0, starting from column 0; the
// second subtracts them from every column of e in place.
TEXT ·softmaxShiftAVX2(SB), NOSPLIT, $0-64
	MOVQ e_base+0(FP), DI
	MOVQ logits_base+24(FP), SI
	MOVQ m+48(FP), R8
	MOVQ n+56(FP), R9
	LEAQ (R9*8), R10
	LEAQ (R10)(R10*2), R11

shiftgroup:
	TESTQ R8, R8
	JZ    shiftdone
	MOVQ  SI, AX // column pointer into the logits
	MOVQ  DI, BX // column pointer into e
	MOVQ  R9, CX
	GATHER(AX, Y0, Y1)
	VMOVUPD Y0, (BX)
	JMP   maxnext

maxloop:
	GATHER(AX, Y2, Y1)
	VMOVUPD Y2, (BX)
	VMAXPD  Y0, Y2, Y0 // m = v > m ? v : m

maxnext:
	ADDQ $8, AX
	ADDQ $32, BX
	DECQ CX
	JNZ  maxloop

	MOVQ DI, BX
	MOVQ R9, CX

subloop:
	VMOVUPD (BX), Y2
	VSUBPD  Y0, Y2, Y2 // v − m
	VMOVUPD Y2, (BX)
	ADDQ    $32, BX
	DECQ    CX
	JNZ     subloop

	MOVQ BX, DI
	LEAQ (SI)(R10*4), SI
	SUBQ $4, R8
	JMP  shiftgroup

shiftdone:
	VZEROUPPER
	RET

// func softmaxSumAVX2(sums, e []float64, m, n int)
//
// Per group: the four row sums start at +0 and add the group's columns of
// e in order.
TEXT ·softmaxSumAVX2(SB), NOSPLIT, $0-64
	MOVQ sums_base+0(FP), DI
	MOVQ e_base+24(FP), SI
	MOVQ m+48(FP), R8
	MOVQ n+56(FP), R9

sumgroup:
	TESTQ  R8, R8
	JZ     sumdone
	VXORPD Y0, Y0, Y0
	MOVQ   R9, CX

sumloop:
	VADDPD (SI), Y0, Y0 // sum + e
	ADDQ   $32, SI
	DECQ   CX
	JNZ    sumloop

	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	SUBQ    $4, R8
	JMP     sumgroup

sumdone:
	VZEROUPPER
	RET

// func softmaxGradAVX2(grad, e, sums []float64, m, n int, scale float64)
//
// Per group and column: e / sum, then times scale, stored to the column
// of the group's four rows of grad.
TEXT ·softmaxGradAVX2(SB), NOSPLIT, $0-96
	MOVQ         grad_base+0(FP), DI
	MOVQ         e_base+24(FP), SI
	MOVQ         sums_base+48(FP), DX
	MOVQ         m+72(FP), R8
	MOVQ         n+80(FP), R9
	VBROADCASTSD scale+88(FP), Y14
	LEAQ         (R9*8), R10
	LEAQ         (R10)(R10*2), R11

gradgroup:
	TESTQ   R8, R8
	JZ      graddone
	VMOVUPD (DX), Y0 // the four row sums
	MOVQ    DI, AX   // column pointer into grad
	MOVQ    R9, CX

gradloop:
	VMOVUPD (SI), Y1
	VDIVPD  Y0, Y1, Y1  // e / sum
	VMULPD  Y14, Y1, Y1 // p · scale
	SCATTER(Y1, X1, AX)
	ADDQ    $32, SI
	ADDQ    $8, AX
	DECQ    CX
	JNZ     gradloop

	ADDQ $32, DX
	LEAQ (DI)(R10*4), DI
	SUBQ $4, R8
	JMP  gradgroup

graddone:
	VZEROUPPER
	RET
