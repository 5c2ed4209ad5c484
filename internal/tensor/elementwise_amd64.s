#include "textflag.h"

// The element-wise kernels. Each takes four lanes to a YMM register and
// does, per lane, the IEEE operations of its Go loop in elementwise.go in
// the same order: products and sums are separate VMULPD and VADDPD/VSUBPD
// instructions, never a fused multiply-add, and every sum and product
// takes the Go loop's left operand as its first source. In Go's operand
// order "VSUBPD Y1, Y2, Y3" is Y3 = Y2 − Y1.
//
// The flat kernels run len&^3 elements of their slices, 16 at a time in
// four independent register groups and then 4 at a time; AX is the
// element, CX the element count and R8 the part of it a multiple of 16.
// The row kernel, sumRowsAVX2, runs columns 0 to n&^1 − 1 of m rows in
// column blocks of 16, 8, 4 and 2, each block going down the rows; the
// block of 2 uses XMM registers. The caller runs the last column of an
// odd n.

// FLAT loads the element count of the slice at arg into CX, rounded down
// to a multiple of 4, and its multiple of 16 into R8, and zeroes AX.
#define FLAT(arg) \
	MOVQ arg, CX;  \
	ANDQ $-4, CX;  \
	MOVQ CX, R8;   \
	ANDQ $-16, R8; \
	XORQ AX, AX

// SGD4 steps the four lanes at byte offset off: params at SI, grads at DX
// and velocity at DI, indexed by AX; lr, momentum and decay are broadcast
// in Y13, Y14 and Y15.
#define SGD4(off, x, g, t) \
	VMOVUPD off(SI)(AX*8), x;      \ // x
	VMOVUPD off(DX)(AX*8), g;      \ // g
	VMULPD  x, Y15, t;             \ // decay·x
	VADDPD  t, g, g;               \ // g' = g + decay·x
	VMULPD  off(DI)(AX*8), Y14, t; \ // momentum·vel
	VMULPD  g, Y13, g;             \ // lr·g'
	VSUBPD  g, t, t;               \ // vel = momentum·vel − lr·g'
	VMOVUPD t, off(DI)(AX*8);      \
	VADDPD  t, x, x;               \ // x + vel
	VMOVUPD x, off(SI)(AX*8)

// func sgdStepAVX2(params, grads, velocity []float64, lr, momentum, decay float64)
TEXT ·sgdStepAVX2(SB), NOSPLIT, $0-96
	MOVQ         params_base+0(FP), SI
	MOVQ         grads_base+24(FP), DX
	MOVQ         velocity_base+48(FP), DI
	VBROADCASTSD lr+72(FP), Y13
	VBROADCASTSD momentum+80(FP), Y14
	VBROADCASTSD decay+88(FP), Y15
	FLAT(params_len+8(FP))
	CMPQ         AX, R8
	JGE          sgd4

sgd16:
	SGD4(0, Y0, Y1, Y2)
	SGD4(32, Y3, Y4, Y5)
	SGD4(64, Y6, Y7, Y8)
	SGD4(96, Y9, Y10, Y11)
	ADDQ $16, AX
	CMPQ AX, R8
	JLT  sgd16

sgd4:
	CMPQ AX, CX
	JGE  sgddone
	SGD4(0, Y0, Y1, Y2)
	ADDQ $4, AX
	JMP  sgd4

sgddone:
	VZEROUPPER
	RET

// BLEND4 blends the four lanes at byte offset off: p at SI and v at DX,
// indexed by AX; c is broadcast in Y15.
#define BLEND4(off, x, d) \
	VMOVUPD off(SI)(AX*8), x; \ // x
	VMOVUPD off(DX)(AX*8), d; \ // v
	VSUBPD  x, d, d;          \ // v − x
	VMULPD  d, Y15, d;        \ // c·(v − x)
	VADDPD  d, x, x;          \ // x + c·(v − x)
	VMOVUPD x, off(SI)(AX*8)

// func blendAVX2(p, v []float64, c float64)
TEXT ·blendAVX2(SB), NOSPLIT, $0-56
	MOVQ         p_base+0(FP), SI
	MOVQ         v_base+24(FP), DX
	VBROADCASTSD c+48(FP), Y15
	FLAT(p_len+8(FP))
	CMPQ         AX, R8
	JGE          blend4

blend16:
	BLEND4(0, Y0, Y1)
	BLEND4(32, Y2, Y3)
	BLEND4(64, Y4, Y5)
	BLEND4(96, Y6, Y7)
	ADDQ $16, AX
	CMPQ AX, R8
	JLT  blend16

blend4:
	CMPQ AX, CX
	JGE  blenddone
	BLEND4(0, Y0, Y1)
	ADDQ $4, AX
	JMP  blend4

blenddone:
	VZEROUPPER
	RET

// ADDSCALED4 adds c times the four lanes of src at byte offset off from DX
// to those of dst at SI, indexed by AX; c is broadcast in Y15.
#define ADDSCALED4(off, x, d) \
	VMOVUPD off(SI)(AX*8), x;      \ // dst
	VMULPD  off(DX)(AX*8), Y15, d; \ // c·src
	VADDPD  d, x, x;               \ // dst + c·src
	VMOVUPD x, off(SI)(AX*8)

// func addScaledAVX2(dst, src []float64, c float64)
TEXT ·addScaledAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), SI
	MOVQ         src_base+24(FP), DX
	VBROADCASTSD c+48(FP), Y15
	FLAT(dst_len+8(FP))
	CMPQ         AX, R8
	JGE          addscaled4

addscaled16:
	ADDSCALED4(0, Y0, Y1)
	ADDSCALED4(32, Y2, Y3)
	ADDSCALED4(64, Y4, Y5)
	ADDSCALED4(96, Y6, Y7)
	ADDQ $16, AX
	CMPQ AX, R8
	JLT  addscaled16

addscaled4:
	CMPQ AX, CX
	JGE  addscaleddone
	ADDSCALED4(0, Y0, Y1)
	ADDQ $4, AX
	JMP  addscaled4

addscaleddone:
	VZEROUPPER
	RET

// The row kernel's general registers:
//
//	SI  a             DI  dst
//	R8  m             R9  a's row stride in bytes
//	R10 n&^1          BX  the block's first column
//	R11 a at the current row, column BX
//	CX  rows left

// ROWS loads the registers from the row kernel's m and n arguments and
// zeroes BX.
#define ROWS(marg, narg) \
	MOVQ marg, R8;   \
	MOVQ narg, R9;   \
	MOVQ R9, R10;    \
	ANDQ $-2, R10;   \
	SHLQ $3, R9;     \
	XORQ BX, BX

// BLOCK jumps to next unless a block of width columns fits at column
// BX, then points R11 at a's first row, column BX, and loads the row
// count, skipping the row loop to done when it is zero.
#define BLOCK(width, next, done) \
	LEAQ  width(BX), CX;   \
	CMPQ  CX, R10;         \
	JGT   next;            \
	LEAQ  (SI)(BX*8), R11; \
	MOVQ  R8, CX;          \
	TESTQ CX, CX;          \
	JLE   done

// func sumRowsAVX2(dst, a []float64, m, n int)
//
// Each block keeps its column sums in Y0–Y3 while it goes down the rows.
// Each sum starts at +0 and adds the rows in order, as sumRowsGo's
// dst[j] += x does.
TEXT ·sumRowsAVX2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	ROWS(m+48(FP), n+56(FP))

sum16:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	BLOCK(16, sum8, store16)

sumrows16:
	VADDPD (R11), Y0, Y0
	VADDPD 32(R11), Y1, Y1
	VADDPD 64(R11), Y2, Y2
	VADDPD 96(R11), Y3, Y3
	ADDQ   R9, R11
	DECQ   CX
	JNZ    sumrows16

store16:
	VMOVUPD Y0, (DI)(BX*8)
	VMOVUPD Y1, 32(DI)(BX*8)
	VMOVUPD Y2, 64(DI)(BX*8)
	VMOVUPD Y3, 96(DI)(BX*8)
	ADDQ    $16, BX
	JMP     sum16

sum8:
	BLOCK(8, sum4, store8)

sumrows8:
	VADDPD (R11), Y0, Y0
	VADDPD 32(R11), Y1, Y1
	ADDQ   R9, R11
	DECQ   CX
	JNZ    sumrows8

store8:
	VMOVUPD Y0, (DI)(BX*8)
	VMOVUPD Y1, 32(DI)(BX*8)
	ADDQ    $8, BX
	VXORPD  Y0, Y0, Y0

sum4:
	BLOCK(4, sum2, store4)

sumrows4:
	VADDPD (R11), Y0, Y0
	ADDQ   R9, R11
	DECQ   CX
	JNZ    sumrows4

store4:
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ    $4, BX

sum2:
	VXORPD X0, X0, X0
	BLOCK(2, sumdone, store2)

sumrows2:
	VADDPD (R11), X0, X0
	ADDQ   R9, R11
	DECQ   CX
	JNZ    sumrows2

store2:
	VMOVUPD X0, (DI)(BX*8)

sumdone:
	VZEROUPPER
	RET
