#include "textflag.h"

// gemmAVX512 is gemmAVX2 on 512-bit registers. It walks out in the same
// row pairs, the last row of an odd m running as a pair of two copies of
// itself; when n is 10, rows go four at a time first (quad10). In a pair,
// column blocks of 24, 16 and 8 doubles keep their accumulators in ZMM
// registers, eight lanes to a register. Blocks of 24 run while more than
// 16 columns are left, and the last block is the narrowest that covers
// the rest. The last register of such a block is masked by K1: its loads
// of b zero the lanes past n (VMOVUPD.Z) and its stores leave out's
// columns past n alone, so no load or store reaches past a row's last
// column; a block with 24 or more columns left has K1 all ones. A
// partially masked load costs more than an XMM one, so when exactly 18 or
// 10 columns are left, the block's last two columns run in XMM registers
// instead (cols18, cols10).
//
// Every lane adds a[i, p] · b[p, j] in ascending p to an accumulator that
// starts at +0 (VPXORQ), multiplying into a temporary and adding the
// temporary with the accumulator as first source, in separate
// instructions, as gemmAVX2 and gemmGo do, so the three kernels agree bit
// for bit. A masked-off lane computes with b's zero but is never stored.
//
// General registers are gemmAVX2's:
//
//	SI  out, at the current row       DX  b
//	DI  a, at the current row         R8  rows left
//	R9  k                             R10 n
//	R11 aRowStride in bytes           R12 aColStride in bytes
//	R13 n in bytes (b's row stride)   R15 out's row stride in bytes
//	AX  a[i, p], or scratch for K1    R14 b[p, j]
//	BX  column j, or a[i+2, p] in quad10
//	CX  columns left, then p steps left, then scratch
//
// Vector registers in a pair: up to 6 accumulators in Z0–Z5 (3 per row),
// the two rows' a[i, p] broadcast into Z8 and Z9, b[p, j:] in Z10–Z12,
// products in Z16–Z18 (the XMM columns' in the next free XMM registers).

// LANES sets K1 to the low min(CX-skip, 8) bits: the lanes of a block's
// last register, whose first column is skip columns into the block.
#define LANES(skip) \
	SUBQ    $skip, CX; \
	MOVQ    $8, AX;    \
	CMPQ    CX, AX;    \
	CMOVQGT AX, CX;    \
	MOVQ    $1, AX;    \
	SHLQ    CX, AX;    \
	DECQ    AX;        \
	KMOVW   AX, K1

// BLOCK points AX and R14 at p = 0 for column j and loads the step count;
// a k of zero skips the loop and stores the +0 accumulators.
#define BLOCK(done) \
	MOVQ  DI, AX;          \
	LEAQ  (DX)(BX*8), R14; \
	MOVQ  R9, CX;          \
	TESTQ CX, CX;          \
	JZ    done

#define STEP \
	ADDQ R12, AX;  \
	ADDQ R13, R14; \
	DECQ CX

// func gemmAVX512(out, a, b []float64, m, k, n, aRowStride, aColStride int)
TEXT ·gemmAVX512(SB), NOSPLIT, $0-112
	MOVQ out_base+0(FP), SI
	MOVQ a_base+24(FP), DI
	MOVQ b_base+48(FP), DX
	MOVQ m+72(FP), R8
	MOVQ k+80(FP), R9
	MOVQ n+88(FP), R10
	MOVQ aRowStride+96(FP), R11
	SHLQ $3, R11
	MOVQ aColStride+104(FP), R12
	SHLQ $3, R12
	LEAQ (R10*8), R13
	MOVQ R13, R15

rows:
	CMPQ R10, $10
	JNE  pair
	CMPQ R8, $4
	JGE  quad10

pair:
	CMPQ R8, $1
	JNE  cols
	XORQ R11, R11
	XORQ R15, R15

cols:
	XORQ BX, BX

next:
	MOVQ R10, CX
	SUBQ BX, CX
	JLE  nextpair
	CMPQ CX, $18
	JEQ  cols18
	CMPQ CX, $16
	JGT  cols24
	CMPQ CX, $10
	JEQ  cols10
	CMPQ CX, $8
	JGT  cols16

cols8:
	LANES(0)
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	BLOCK(store8)

loop8:
	VMOVUPD.Z    (R14), K1, Z10
	VBROADCASTSD (AX), Z8
	VBROADCASTSD (AX)(R11*1), Z9
	VMULPD       Z10, Z8, Z16
	VADDPD       Z16, Z0, Z0
	VMULPD       Z10, Z9, Z17
	VADDPD       Z17, Z1, Z1
	STEP
	JNZ          loop8

store8:
	LEAQ    (SI)(R15*1), CX
	VMOVUPD Z0, K1, (SI)(BX*8)
	VMOVUPD Z1, K1, (CX)(BX*8)
	JMP     nextpair

cols16:
	LANES(8)
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	BLOCK(store16)

loop16:
	VMOVUPD      (R14), Z10
	VMOVUPD.Z    64(R14), K1, Z11
	VBROADCASTSD (AX), Z8
	VBROADCASTSD (AX)(R11*1), Z9
	VMULPD       Z10, Z8, Z16
	VADDPD       Z16, Z0, Z0
	VMULPD       Z11, Z8, Z17
	VADDPD       Z17, Z1, Z1
	VMULPD       Z10, Z9, Z16
	VADDPD       Z16, Z2, Z2
	VMULPD       Z11, Z9, Z17
	VADDPD       Z17, Z3, Z3
	STEP
	JNZ          loop16

store16:
	LEAQ    (SI)(R15*1), CX
	VMOVUPD Z0, (SI)(BX*8)
	VMOVUPD Z1, K1, 64(SI)(BX*8)
	VMOVUPD Z2, (CX)(BX*8)
	VMOVUPD Z3, K1, 64(CX)(BX*8)
	JMP     nextpair

cols24:
	LANES(16)
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	BLOCK(store24)

loop24:
	VMOVUPD      (R14), Z10
	VMOVUPD      64(R14), Z11
	VMOVUPD.Z    128(R14), K1, Z12
	VBROADCASTSD (AX), Z8
	VBROADCASTSD (AX)(R11*1), Z9
	VMULPD       Z10, Z8, Z16
	VADDPD       Z16, Z0, Z0
	VMULPD       Z11, Z8, Z17
	VADDPD       Z17, Z1, Z1
	VMULPD       Z12, Z8, Z18
	VADDPD       Z18, Z2, Z2
	VMULPD       Z10, Z9, Z16
	VADDPD       Z16, Z3, Z3
	VMULPD       Z11, Z9, Z17
	VADDPD       Z17, Z4, Z4
	VMULPD       Z12, Z9, Z18
	VADDPD       Z18, Z5, Z5
	STEP
	JNZ          loop24

store24:
	LEAQ    (SI)(R15*1), CX
	VMOVUPD Z0, (SI)(BX*8)
	VMOVUPD Z1, 64(SI)(BX*8)
	VMOVUPD Z2, K1, 128(SI)(BX*8)
	VMOVUPD Z3, (CX)(BX*8)
	VMOVUPD Z4, 64(CX)(BX*8)
	VMOVUPD Z5, K1, 128(CX)(BX*8)
	ADDQ    $24, BX
	JMP     next

// The last ten columns of a pair: eight in ZMM and two in XMM.
cols10:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	BLOCK(store10)

loop10:
	VMOVUPD      (R14), Z10
	VMOVUPD      64(R14), X11
	VBROADCASTSD (AX), Z8
	VBROADCASTSD (AX)(R11*1), Z9
	VMULPD       Z10, Z8, Z16
	VADDPD       Z16, Z0, Z0
	VMULPD       X11, X8, X12
	VADDPD       X12, X2, X2
	VMULPD       Z10, Z9, Z17
	VADDPD       Z17, Z1, Z1
	VMULPD       X11, X9, X13
	VADDPD       X13, X3, X3
	STEP
	JNZ          loop10

store10:
	LEAQ    (SI)(R15*1), CX
	VMOVUPD Z0, (SI)(BX*8)
	VMOVUPD X2, 64(SI)(BX*8)
	VMOVUPD Z1, (CX)(BX*8)
	VMOVUPD X3, 64(CX)(BX*8)
	JMP     nextpair

// The last eighteen columns of a pair: sixteen in ZMM and two in XMM.
cols18:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VXORPD X2, X2, X2
	VXORPD X5, X5, X5
	BLOCK(store18)

loop18:
	VMOVUPD      (R14), Z10
	VMOVUPD      64(R14), Z11
	VMOVUPD      128(R14), X12
	VBROADCASTSD (AX), Z8
	VBROADCASTSD (AX)(R11*1), Z9
	VMULPD       Z10, Z8, Z16
	VADDPD       Z16, Z0, Z0
	VMULPD       Z11, Z8, Z17
	VADDPD       Z17, Z1, Z1
	VMULPD       X12, X8, X13
	VADDPD       X13, X2, X2
	VMULPD       Z10, Z9, Z16
	VADDPD       Z16, Z3, Z3
	VMULPD       Z11, Z9, Z17
	VADDPD       Z17, Z4, Z4
	VMULPD       X12, X9, X14
	VADDPD       X14, X5, X5
	STEP
	JNZ          loop18

store18:
	LEAQ    (SI)(R15*1), CX
	VMOVUPD Z0, (SI)(BX*8)
	VMOVUPD Z1, 64(SI)(BX*8)
	VMOVUPD X2, 128(SI)(BX*8)
	VMOVUPD Z3, (CX)(BX*8)
	VMOVUPD Z4, 64(CX)(BX*8)
	VMOVUPD X5, 128(CX)(BX*8)
	JMP     nextpair

// When n is 10, four rows at a time run cols10's block, with eight
// accumulators (Z0–Z3, X4–X7) where a pair has four: rows i and i+1 read
// a through AX, rows i+2 and i+3 through BX.
quad10:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VXORPD X4, X4, X4
	VXORPD X5, X5, X5
	VXORPD X6, X6, X6
	VXORPD X7, X7, X7
	XORQ   BX, BX
	BLOCK(storeq10)
	LEAQ   (DI)(R11*2), BX

loopq10:
	VMOVUPD      (R14), Z10
	VMOVUPD      64(R14), X11
	VBROADCASTSD (AX), Z8
	VBROADCASTSD (AX)(R11*1), Z9
	VBROADCASTSD (BX), Z12
	VBROADCASTSD (BX)(R11*1), Z13
	VMULPD       Z10, Z8, Z16
	VADDPD       Z16, Z0, Z0
	VMULPD       X11, X8, X14
	VADDPD       X14, X4, X4
	VMULPD       Z10, Z9, Z17
	VADDPD       Z17, Z1, Z1
	VMULPD       X11, X9, X15
	VADDPD       X15, X5, X5
	VMULPD       Z10, Z12, Z18
	VADDPD       Z18, Z2, Z2
	VMULPD       X11, X12, X14
	VADDPD       X14, X6, X6
	VMULPD       Z10, Z13, Z19
	VADDPD       Z19, Z3, Z3
	VMULPD       X11, X13, X15
	VADDPD       X15, X7, X7
	ADDQ         R12, BX
	STEP
	JNZ          loopq10

storeq10:
	LEAQ    (SI)(R15*1), CX
	VMOVUPD Z0, (SI)
	VMOVUPD X4, 64(SI)
	VMOVUPD Z1, (CX)
	VMOVUPD X5, 64(CX)
	LEAQ    (SI)(R15*2), SI
	LEAQ    (SI)(R15*1), CX
	VMOVUPD Z2, (SI)
	VMOVUPD X6, 64(SI)
	VMOVUPD Z3, (CX)
	VMOVUPD X7, 64(CX)
	LEAQ    (DI)(R11*4), DI
	LEAQ    (SI)(R15*2), SI
	SUBQ    $4, R8
	JGT     rows
	VZEROUPPER
	RET

nextpair:
	LEAQ (DI)(R11*2), DI
	LEAQ (SI)(R15*2), SI
	SUBQ $2, R8
	JGT  rows
	VZEROUPPER
	RET
