#include "textflag.h"
#include "gemm_amd64.h"

// gemmAVX512 is gemmAVX2 on 512-bit registers. It walks out four rows at
// a time while four or more are left, and the one to three rows left over
// in gemmAVX2's row pairs, the last row of an odd count running as a pair
// of two copies of itself. Column blocks of 24, 16 and 8 doubles keep
// their accumulators in ZMM registers, eight lanes to a register: 12, 8 or
// 4 of them for four rows, each row of b loaded once for all four. Blocks
// of 24 run while more than 16 columns are left, and the last block is the
// narrowest that covers the rest. The last register of such a block is
// masked by K1: its loads of b zero the lanes past n (VMOVUPD.Z) and its
// stores leave out's columns past n alone, so no load or store reaches
// past a row's last column; a block with 24 or more columns left has K1
// all ones. A partially masked load costs more than an XMM one, so where
// a pair has exactly 18 or 10 columns left, the block's last two columns
// run in XMM registers instead (cols18, cols10), and when n is 10 the
// rows go four at a time through the same 8+2 split (quad10). When n is
// 18 every row goes in pairs: four rows of a masked 24-column block took
// 1.12× the time of the pairs' 16+2 split on a 16×16×18 product.
//
// Every lane adds a[i, p] · b[p, j] in ascending p to an accumulator that
// starts at +0 (VPXORQ), multiplying into a temporary and adding the
// temporary with the accumulator as first source, in separate
// instructions, as gemmAVX2 and gemmGo do, so the three kernels agree bit
// for bit. A masked-off lane computes with b's zero but is never stored.
//
// After a block's pass over p, and before its stores, the epilogue ep
// runs on the accumulators, as gemmGo's does: with EP_BIAS each lane adds
// b's row k, on which R14 sits when the pass ends, loaded once for all
// the block's rows; with EP_RELU, VMAXPD against +0 keeps the lane where
// it is > 0 and gives +0 where it is ≤ 0 or NaN (VMAXPD returns its second
// source when either is NaN or both are zero); with EP_GATE the lane is
// kept where gate's element at the same row and column is > 0 and zeroed
// elsewhere (an ordered compare into K2, then a zeroing move). A masked
// register reads neither the bias nor the gate past a row's last column.
//
// General registers are gemmAVX2's:
//
//	SI  out, at the current row       DX  b
//	DI  a, at the current row         R8  rows left
//	R9  k                             R10 n
//	R11 aRowStride in bytes           R12 aColStride in bytes
//	R13 n in bytes (b's and out's row stride)
//	R15 out's row stride in a pair (zero for the last row of an odd
//	    count), or a[i+2, p] in four rows
//	AX  a[i, p], or scratch for K1, or gate at the current row
//	R14 b[p, j], then b[k, j]         BX  column j
//	CX  columns left, then p steps left, then scratch
//
// Vector registers: row r of a block keeps its accumulators from Z(3r)
// on; b[p, j:] is in Z12–Z14 (its XMM columns in X13 or X14), and then
// the bias row; products are in Z20–Z23. Rows whose block has XMM
// columns take a[i, p] broadcast in low registers, which the XMM
// multiplies can read, and the others in Z16–Z19. Z31 holds +0.

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

// QBLOCK is BLOCK for four rows: it also points R15 at row i+2 of a.
#define QBLOCK(epi) \
	LEAQ (DI)(R11*2), R15; \
	BLOCK(epi)

// MULADD adds b times the broadcast bc to acc, through the product t.
#define MULADD(b, bc, t, acc) \
	VMULPD b, bc, t; \
	VADDPD t, acc, acc

// GATEZ keeps acc's lanes where the gate at byte offset off from row g,
// column BX, is > 0, and zeroes the rest. GATEK does so for a register
// masked by K1, and GATEX for an XMM accumulator (zacc is its ZMM name),
// reading the gate's two columns into X15.
#define GATEZ(off, g, acc) \
	VCMPPD    ORDERED_LT, off(g)(BX*8), Z31, K2; \
	VMOVAPD.Z acc, K2, acc

#define GATEK(off, g, acc) \
	VMOVUPD.Z off(g)(BX*8), K1, Z20;  \
	VCMPPD    ORDERED_LT, Z20, Z31, K2; \
	VMOVAPD.Z acc, K2, acc

#define GATEX(off, g, zacc) \
	VMOVUPD   off(g)(BX*8), X15;      \
	VCMPPD    ORDERED_LT, Z15, Z31, K2; \
	VMOVAPD.Z zacc, K2, zacc

// The row macros run one step of the epilogue, or the stores, on one row
// of a block of one, two or three registers (ZMM names throughout; an XMM
// column pair is the low lanes of its ZMM register). BIAS adds the bias
// row loaded into Z12–Z14; RELU gates the lanes on themselves; GATE gates
// them on the gate row g, its last register masked (K) or XMM (X); STORE
// writes them to out's row o.
#define BIAS1(a) VADDPD Z12, a, a
#define BIAS2(a, b) BIAS1(a); VADDPD Z13, b, b
#define BIAS3(a, b, c) BIAS2(a, b); VADDPD Z14, c, c

#define RELU1(a) VMAXPD Z31, a, a
#define RELU2(a, b) RELU1(a); RELU1(b)
#define RELU3(a, b, c) RELU2(a, b); RELU1(c)

#define GATE1K(g, a) GATEK(0, g, a)
#define GATE2K(g, a, b) GATEZ(0, g, a); GATEK(64, g, b)
#define GATE3K(g, a, b, c) GATEZ(0, g, a); GATEZ(64, g, b); GATEK(128, g, c)
#define GATE2X(g, a, b) GATEZ(0, g, a); GATEX(64, g, b)
#define GATE3X(g, a, b, c) GATEZ(0, g, a); GATEZ(64, g, b); GATEX(128, g, c)

#define STORE1K(o, a) VMOVUPD a, K1, (o)(BX*8)
#define STORE2K(o, a, b) VMOVUPD a, (o)(BX*8); VMOVUPD b, K1, 64(o)(BX*8)
#define STORE3K(o, a, b, c) VMOVUPD a, (o)(BX*8); VMOVUPD b, 64(o)(BX*8); VMOVUPD c, K1, 128(o)(BX*8)
#define STORE2X(o, a, xb) VMOVUPD a, (o)(BX*8); VMOVUPD xb, 64(o)(BX*8)
#define STORE3X(o, a, b, xc) VMOVUPD a, (o)(BX*8); VMOVUPD b, 64(o)(BX*8); VMOVUPD xc, 128(o)(BX*8)

// func gemmAVX512(out, a, b, gate []float64, m, k, n, aRowStride, aColStride, ep int)
TEXT ·gemmAVX512(SB), NOSPLIT, $0-144
	MOVQ   out_base+0(FP), SI
	MOVQ   a_base+24(FP), DI
	MOVQ   b_base+48(FP), DX
	MOVQ   m+96(FP), R8
	MOVQ   k+104(FP), R9
	MOVQ   n+112(FP), R10
	MOVQ   aRowStride+120(FP), R11
	SHLQ   $3, R11
	MOVQ   aColStride+128(FP), R12
	SHLQ   $3, R12
	LEAQ   (R10*8), R13
	VPXORQ Z31, Z31, Z31

rows:
	CMPQ R8, $4
	JLT  pair
	CMPQ R10, $10
	JEQ  quad10
	CMPQ R10, $18
	JEQ  pair
	XORQ BX, BX

qnext:
	MOVQ R10, CX
	SUBQ BX, CX
	JLE  nextquad
	CMPQ CX, $16
	JGT  quad24
	CMPQ CX, $8
	JGT  quad16

	LANES(0)
	VPXORQ Z0, Z0, Z0
	VPXORQ Z3, Z3, Z3
	VPXORQ Z6, Z6, Z6
	VPXORQ Z9, Z9, Z9
	QBLOCK(epiq8)

loopq8:
	VMOVUPD.Z    (R14), K1, Z12
	VBROADCASTSD (AX), Z16
	VBROADCASTSD (AX)(R11*1), Z17
	VBROADCASTSD (R15), Z18
	VBROADCASTSD (R15)(R11*1), Z19
	MULADD(Z12, Z16, Z20, Z0)
	MULADD(Z12, Z17, Z21, Z3)
	MULADD(Z12, Z18, Z22, Z6)
	MULADD(Z12, Z19, Z23, Z9)
	ADDQ         R12, R15
	STEP
	JNZ          loopq8

epiq8:
	TESTQ     EP_BIAS, ep+136(FP)
	JZ        reluq8
	VMOVUPD.Z (R14), K1, Z12
	BIAS1(Z0)
	BIAS1(Z3)
	BIAS1(Z6)
	BIAS1(Z9)

reluq8:
	TESTQ EP_RELU, ep+136(FP)
	JZ    gateq8
	RELU1(Z0)
	RELU1(Z3)
	RELU1(Z6)
	RELU1(Z9)
	JMP   storeq8

gateq8:
	TESTQ EP_GATE, ep+136(FP)
	JZ    storeq8
	GATEROW
	GATE1K(AX, Z0)
	ADDQ  R13, AX
	GATE1K(AX, Z3)
	ADDQ  R13, AX
	GATE1K(AX, Z6)
	ADDQ  R13, AX
	GATE1K(AX, Z9)

storeq8:
	MOVQ SI, CX
	STORE1K(CX, Z0)
	ADDQ R13, CX
	STORE1K(CX, Z3)
	ADDQ R13, CX
	STORE1K(CX, Z6)
	ADDQ R13, CX
	STORE1K(CX, Z9)
	JMP  nextquad

quad16:
	LANES(8)
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	QBLOCK(epiq16)

loopq16:
	VMOVUPD      (R14), Z12
	VMOVUPD.Z    64(R14), K1, Z13
	VBROADCASTSD (AX), Z16
	VBROADCASTSD (AX)(R11*1), Z17
	VBROADCASTSD (R15), Z18
	VBROADCASTSD (R15)(R11*1), Z19
	MULADD(Z12, Z16, Z20, Z0)
	MULADD(Z13, Z16, Z21, Z1)
	MULADD(Z12, Z17, Z22, Z3)
	MULADD(Z13, Z17, Z23, Z4)
	MULADD(Z12, Z18, Z20, Z6)
	MULADD(Z13, Z18, Z21, Z7)
	MULADD(Z12, Z19, Z22, Z9)
	MULADD(Z13, Z19, Z23, Z10)
	ADDQ         R12, R15
	STEP
	JNZ          loopq16

epiq16:
	TESTQ     EP_BIAS, ep+136(FP)
	JZ        reluq16
	VMOVUPD   (R14), Z12
	VMOVUPD.Z 64(R14), K1, Z13
	BIAS2(Z0, Z1)
	BIAS2(Z3, Z4)
	BIAS2(Z6, Z7)
	BIAS2(Z9, Z10)

reluq16:
	TESTQ EP_RELU, ep+136(FP)
	JZ    gateq16
	RELU2(Z0, Z1)
	RELU2(Z3, Z4)
	RELU2(Z6, Z7)
	RELU2(Z9, Z10)
	JMP   storeq16

gateq16:
	TESTQ EP_GATE, ep+136(FP)
	JZ    storeq16
	GATEROW
	GATE2K(AX, Z0, Z1)
	ADDQ  R13, AX
	GATE2K(AX, Z3, Z4)
	ADDQ  R13, AX
	GATE2K(AX, Z6, Z7)
	ADDQ  R13, AX
	GATE2K(AX, Z9, Z10)

storeq16:
	MOVQ SI, CX
	STORE2K(CX, Z0, Z1)
	ADDQ R13, CX
	STORE2K(CX, Z3, Z4)
	ADDQ R13, CX
	STORE2K(CX, Z6, Z7)
	ADDQ R13, CX
	STORE2K(CX, Z9, Z10)
	JMP  nextquad

quad24:
	LANES(16)
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	QBLOCK(epiq24)

loopq24:
	VMOVUPD      (R14), Z12
	VMOVUPD      64(R14), Z13
	VMOVUPD.Z    128(R14), K1, Z14
	VBROADCASTSD (AX), Z16
	VBROADCASTSD (AX)(R11*1), Z17
	VBROADCASTSD (R15), Z18
	VBROADCASTSD (R15)(R11*1), Z19
	MULADD(Z12, Z16, Z20, Z0)
	MULADD(Z13, Z16, Z21, Z1)
	MULADD(Z14, Z16, Z22, Z2)
	MULADD(Z12, Z17, Z23, Z3)
	MULADD(Z13, Z17, Z20, Z4)
	MULADD(Z14, Z17, Z21, Z5)
	MULADD(Z12, Z18, Z22, Z6)
	MULADD(Z13, Z18, Z23, Z7)
	MULADD(Z14, Z18, Z20, Z8)
	MULADD(Z12, Z19, Z21, Z9)
	MULADD(Z13, Z19, Z22, Z10)
	MULADD(Z14, Z19, Z23, Z11)
	ADDQ         R12, R15
	STEP
	JNZ          loopq24

epiq24:
	TESTQ     EP_BIAS, ep+136(FP)
	JZ        reluq24
	VMOVUPD   (R14), Z12
	VMOVUPD   64(R14), Z13
	VMOVUPD.Z 128(R14), K1, Z14
	BIAS3(Z0, Z1, Z2)
	BIAS3(Z3, Z4, Z5)
	BIAS3(Z6, Z7, Z8)
	BIAS3(Z9, Z10, Z11)

reluq24:
	TESTQ EP_RELU, ep+136(FP)
	JZ    gateq24
	RELU3(Z0, Z1, Z2)
	RELU3(Z3, Z4, Z5)
	RELU3(Z6, Z7, Z8)
	RELU3(Z9, Z10, Z11)
	JMP   storeq24

gateq24:
	TESTQ EP_GATE, ep+136(FP)
	JZ    storeq24
	GATEROW
	GATE3K(AX, Z0, Z1, Z2)
	ADDQ  R13, AX
	GATE3K(AX, Z3, Z4, Z5)
	ADDQ  R13, AX
	GATE3K(AX, Z6, Z7, Z8)
	ADDQ  R13, AX
	GATE3K(AX, Z9, Z10, Z11)

storeq24:
	MOVQ SI, CX
	STORE3K(CX, Z0, Z1, Z2)
	ADDQ R13, CX
	STORE3K(CX, Z3, Z4, Z5)
	ADDQ R13, CX
	STORE3K(CX, Z6, Z7, Z8)
	ADDQ R13, CX
	STORE3K(CX, Z9, Z10, Z11)
	ADDQ $24, BX
	JMP  qnext

// When n is 10, four rows run cols10's block, eight columns in a ZMM
// register and two in an XMM one per row.
quad10:
	XORQ   BX, BX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z3, Z3, Z3
	VPXORQ Z6, Z6, Z6
	VPXORQ Z9, Z9, Z9
	VXORPD X1, X1, X1
	VXORPD X4, X4, X4
	VXORPD X7, X7, X7
	VXORPD X10, X10, X10
	QBLOCK(epiq10)

loopq10:
	VMOVUPD      (R14), Z12
	VMOVUPD      64(R14), X13
	VBROADCASTSD (AX), Z2
	VBROADCASTSD (AX)(R11*1), Z5
	VBROADCASTSD (R15), Z8
	VBROADCASTSD (R15)(R11*1), Z11
	MULADD(Z12, Z2, Z20, Z0)
	MULADD(X13, X2, X14, X1)
	MULADD(Z12, Z5, Z21, Z3)
	MULADD(X13, X5, X15, X4)
	MULADD(Z12, Z8, Z22, Z6)
	MULADD(X13, X8, X14, X7)
	MULADD(Z12, Z11, Z23, Z9)
	MULADD(X13, X11, X15, X10)
	ADDQ         R12, R15
	STEP
	JNZ          loopq10

epiq10:
	TESTQ   EP_BIAS, ep+136(FP)
	JZ      reluq10
	VMOVUPD (R14), Z12
	VMOVUPD 64(R14), X13
	BIAS2(Z0, Z1)
	BIAS2(Z3, Z4)
	BIAS2(Z6, Z7)
	BIAS2(Z9, Z10)

reluq10:
	TESTQ EP_RELU, ep+136(FP)
	JZ    gateq10
	RELU2(Z0, Z1)
	RELU2(Z3, Z4)
	RELU2(Z6, Z7)
	RELU2(Z9, Z10)
	JMP   storeq10

gateq10:
	TESTQ EP_GATE, ep+136(FP)
	JZ    storeq10
	GATEROW
	GATE2X(AX, Z0, Z1)
	ADDQ  R13, AX
	GATE2X(AX, Z3, Z4)
	ADDQ  R13, AX
	GATE2X(AX, Z6, Z7)
	ADDQ  R13, AX
	GATE2X(AX, Z9, Z10)

storeq10:
	MOVQ SI, CX
	STORE2X(CX, Z0, X1)
	ADDQ R13, CX
	STORE2X(CX, Z3, X4)
	ADDQ R13, CX
	STORE2X(CX, Z6, X7)
	ADDQ R13, CX
	STORE2X(CX, Z9, X10)

nextquad:
	LEAQ (DI)(R11*4), DI
	LEAQ (SI)(R13*4), SI
	SUBQ $4, R8
	JGT  rows
	VZEROUPPER
	RET

pair:
	MOVQ R13, R15
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

	LANES(0)
	VPXORQ Z0, Z0, Z0
	VPXORQ Z3, Z3, Z3
	BLOCK(epi8)

loop8:
	VMOVUPD.Z    (R14), K1, Z12
	VBROADCASTSD (AX), Z16
	VBROADCASTSD (AX)(R11*1), Z17
	MULADD(Z12, Z16, Z20, Z0)
	MULADD(Z12, Z17, Z21, Z3)
	STEP
	JNZ          loop8

epi8:
	TESTQ     EP_BIAS, ep+136(FP)
	JZ        relu8
	VMOVUPD.Z (R14), K1, Z12
	BIAS1(Z0)
	BIAS1(Z3)

relu8:
	TESTQ EP_RELU, ep+136(FP)
	JZ    gate8
	RELU1(Z0)
	RELU1(Z3)
	JMP   store8

gate8:
	TESTQ EP_GATE, ep+136(FP)
	JZ    store8
	GATEROW
	GATE1K(AX, Z0)
	ADDQ  R15, AX
	GATE1K(AX, Z3)

store8:
	LEAQ (SI)(R15*1), CX
	STORE1K(SI, Z0)
	STORE1K(CX, Z3)
	JMP  nextpair

cols16:
	LANES(8)
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	BLOCK(epi16)

loop16:
	VMOVUPD      (R14), Z12
	VMOVUPD.Z    64(R14), K1, Z13
	VBROADCASTSD (AX), Z16
	VBROADCASTSD (AX)(R11*1), Z17
	MULADD(Z12, Z16, Z20, Z0)
	MULADD(Z13, Z16, Z21, Z1)
	MULADD(Z12, Z17, Z22, Z3)
	MULADD(Z13, Z17, Z23, Z4)
	STEP
	JNZ          loop16

epi16:
	TESTQ     EP_BIAS, ep+136(FP)
	JZ        relu16
	VMOVUPD   (R14), Z12
	VMOVUPD.Z 64(R14), K1, Z13
	BIAS2(Z0, Z1)
	BIAS2(Z3, Z4)

relu16:
	TESTQ EP_RELU, ep+136(FP)
	JZ    gate16
	RELU2(Z0, Z1)
	RELU2(Z3, Z4)
	JMP   store16

gate16:
	TESTQ EP_GATE, ep+136(FP)
	JZ    store16
	GATEROW
	GATE2K(AX, Z0, Z1)
	ADDQ  R15, AX
	GATE2K(AX, Z3, Z4)

store16:
	LEAQ (SI)(R15*1), CX
	STORE2K(SI, Z0, Z1)
	STORE2K(CX, Z3, Z4)
	JMP  nextpair

cols24:
	LANES(16)
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	BLOCK(epi24)

loop24:
	VMOVUPD      (R14), Z12
	VMOVUPD      64(R14), Z13
	VMOVUPD.Z    128(R14), K1, Z14
	VBROADCASTSD (AX), Z16
	VBROADCASTSD (AX)(R11*1), Z17
	MULADD(Z12, Z16, Z20, Z0)
	MULADD(Z13, Z16, Z21, Z1)
	MULADD(Z14, Z16, Z22, Z2)
	MULADD(Z12, Z17, Z23, Z3)
	MULADD(Z13, Z17, Z20, Z4)
	MULADD(Z14, Z17, Z21, Z5)
	STEP
	JNZ          loop24

epi24:
	TESTQ     EP_BIAS, ep+136(FP)
	JZ        relu24
	VMOVUPD   (R14), Z12
	VMOVUPD   64(R14), Z13
	VMOVUPD.Z 128(R14), K1, Z14
	BIAS3(Z0, Z1, Z2)
	BIAS3(Z3, Z4, Z5)

relu24:
	TESTQ EP_RELU, ep+136(FP)
	JZ    gate24
	RELU3(Z0, Z1, Z2)
	RELU3(Z3, Z4, Z5)
	JMP   store24

gate24:
	TESTQ EP_GATE, ep+136(FP)
	JZ    store24
	GATEROW
	GATE3K(AX, Z0, Z1, Z2)
	ADDQ  R15, AX
	GATE3K(AX, Z3, Z4, Z5)

store24:
	LEAQ (SI)(R15*1), CX
	STORE3K(SI, Z0, Z1, Z2)
	STORE3K(CX, Z3, Z4, Z5)
	ADDQ $24, BX
	JMP  next

// The last ten columns of a pair: eight in ZMM and two in XMM.
cols10:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z3, Z3, Z3
	VXORPD X1, X1, X1
	VXORPD X4, X4, X4
	BLOCK(epi10)

loop10:
	VMOVUPD      (R14), Z12
	VMOVUPD      64(R14), X13
	VBROADCASTSD (AX), Z6
	VBROADCASTSD (AX)(R11*1), Z7
	MULADD(Z12, Z6, Z20, Z0)
	MULADD(X13, X6, X8, X1)
	MULADD(Z12, Z7, Z21, Z3)
	MULADD(X13, X7, X9, X4)
	STEP
	JNZ          loop10

epi10:
	TESTQ   EP_BIAS, ep+136(FP)
	JZ      relu10
	VMOVUPD (R14), Z12
	VMOVUPD 64(R14), X13
	BIAS2(Z0, Z1)
	BIAS2(Z3, Z4)

relu10:
	TESTQ EP_RELU, ep+136(FP)
	JZ    gate10
	RELU2(Z0, Z1)
	RELU2(Z3, Z4)
	JMP   store10

gate10:
	TESTQ EP_GATE, ep+136(FP)
	JZ    store10
	GATEROW
	GATE2X(AX, Z0, Z1)
	ADDQ  R15, AX
	GATE2X(AX, Z3, Z4)

store10:
	LEAQ (SI)(R15*1), CX
	STORE2X(SI, Z0, X1)
	STORE2X(CX, Z3, X4)
	JMP  nextpair

// The last eighteen columns of a pair: sixteen in ZMM and two in XMM.
cols18:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VXORPD X2, X2, X2
	VXORPD X5, X5, X5
	BLOCK(epi18)

loop18:
	VMOVUPD      (R14), Z12
	VMOVUPD      64(R14), Z13
	VMOVUPD      128(R14), X14
	VBROADCASTSD (AX), Z6
	VBROADCASTSD (AX)(R11*1), Z7
	MULADD(Z12, Z6, Z20, Z0)
	MULADD(Z13, Z6, Z21, Z1)
	MULADD(X14, X6, X8, X2)
	MULADD(Z12, Z7, Z22, Z3)
	MULADD(Z13, Z7, Z23, Z4)
	MULADD(X14, X7, X9, X5)
	STEP
	JNZ          loop18

epi18:
	TESTQ   EP_BIAS, ep+136(FP)
	JZ      relu18
	VMOVUPD (R14), Z12
	VMOVUPD 64(R14), Z13
	VMOVUPD 128(R14), X14
	BIAS3(Z0, Z1, Z2)
	BIAS3(Z3, Z4, Z5)

relu18:
	TESTQ EP_RELU, ep+136(FP)
	JZ    gate18
	RELU3(Z0, Z1, Z2)
	RELU3(Z3, Z4, Z5)
	JMP   store18

gate18:
	TESTQ EP_GATE, ep+136(FP)
	JZ    store18
	GATEROW
	GATE3X(AX, Z0, Z1, Z2)
	ADDQ  R15, AX
	GATE3X(AX, Z3, Z4, Z5)

store18:
	LEAQ (SI)(R15*1), CX
	STORE3X(SI, Z0, Z1, X2)
	STORE3X(CX, Z3, Z4, X5)

nextpair:
	LEAQ (DI)(R11*2), DI
	LEAQ (SI)(R15*2), SI
	SUBQ $2, R8
	JGT  rows
	VZEROUPPER
	RET
