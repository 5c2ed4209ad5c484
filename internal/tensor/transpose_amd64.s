#include "textflag.h"

// func transposeAVX2(dst, a []float64, m, n, dstStride int)
//
// The kernel walks a (m×n) in groups of four rows and each group in tiles
// of four columns. A 4×4 tile (rows i..i+3, columns j..j+3) is four row
// loads, four unpacks that pair up the rows' even and odd columns within
// each 128-bit half, and four half swaps that join the halves into the
// tile's columns, stored as rows j..j+3 of dst at columns i..i+3. The last
// n mod 4 columns of a group take a 4×2 tile in XMM registers and a 4×1
// one. Only data moves, so every value keeps its bits. In Go's operand
// order "VUNPCKLPD Y1, Y0, Y4" is Y4 = [Y0[0], Y1[0], Y0[2], Y1[2]], and
// "VPERM2F128 $0x20, Y6, Y4, Y0" takes the low halves of Y4 and Y6 in
// that order, $0x31 their high halves.
//
// General registers: SI a at row i, DI dst at column i, AX a[i, j],
// BX dst[j, i], R8 rows left, CX columns left, R9 n, R10 a's row stride in
// bytes and R12 three times it, R11 dst's row stride in bytes and R13
// three times it.
TEXT ·transposeAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ m+48(FP), R8
	MOVQ n+56(FP), R9
	LEAQ (R9*8), R10
	LEAQ (R10)(R10*2), R12
	MOVQ dstStride+64(FP), R11
	SHLQ $3, R11
	LEAQ (R11)(R11*2), R13

rows:
	TESTQ R8, R8
	JZ    done
	MOVQ  SI, AX
	MOVQ  DI, BX
	MOVQ  R9, CX

tile:
	CMPQ CX, $4
	JLT  edge2
	VMOVUPD    (AX), Y0
	VMOVUPD    (AX)(R10*1), Y1
	VMOVUPD    (AX)(R10*2), Y2
	VMOVUPD    (AX)(R12*1), Y3
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VMOVUPD    Y0, (BX)
	VMOVUPD    Y1, (BX)(R11*1)
	VMOVUPD    Y2, (BX)(R11*2)
	VMOVUPD    Y3, (BX)(R13*1)
	ADDQ       $32, AX
	LEAQ       (BX)(R11*4), BX
	SUBQ       $4, CX
	JMP        tile

edge2:
	CMPQ        CX, $2
	JLT         edge1
	VMOVUPD     (AX), X0
	VMOVUPD     (AX)(R10*1), X1
	VMOVUPD     (AX)(R10*2), X2
	VMOVUPD     (AX)(R12*1), X3
	VUNPCKLPD   X1, X0, X4
	VUNPCKHPD   X1, X0, X5
	VUNPCKLPD   X3, X2, X6
	VUNPCKHPD   X3, X2, X7
	VINSERTF128 $1, X6, Y4, Y4
	VINSERTF128 $1, X7, Y5, Y5
	VMOVUPD     Y4, (BX)
	VMOVUPD     Y5, (BX)(R11*1)
	ADDQ        $16, AX
	LEAQ        (BX)(R11*2), BX
	SUBQ        $2, CX

edge1:
	TESTQ       CX, CX
	JZ          nextrows
	VMOVSD      (AX), X0
	VMOVHPD     (AX)(R10*1), X0, X0
	VMOVSD      (AX)(R10*2), X1
	VMOVHPD     (AX)(R12*1), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	VMOVUPD     Y0, (BX)

nextrows:
	LEAQ (SI)(R10*4), SI
	ADDQ $32, DI
	SUBQ $4, R8
	JMP  rows

done:
	VZEROUPPER
	RET
