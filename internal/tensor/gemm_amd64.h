// Macros that gemm_amd64.s and gemm_avx512_amd64.s share. Both kernels
// keep a[i, p] in AX, b[p, j] in R14 and the p steps left in CX during a
// block's pass over p; j is BX, and the argument frame is gemm's.

// The bits of gemm's epilogue ep (gemm.go).
#define EP_BIAS $1
#define EP_RELU $2
#define EP_GATE $4

// ORDERED_LT is VCMPPD's predicate LT_OQ: true where the first source is
// less than the second and neither is NaN. In Go's operand order
// "VCMPPD ORDERED_LT, g, zero, mask" sets mask where +0 < g.
#define ORDERED_LT $0x11

// BLOCK points AX and R14 at p = 0 for column j and loads the step count;
// a k of zero skips the pass to the epilogue, whose bias row is then b's
// row 0.
#define BLOCK(epi) \
	MOVQ  DI, AX;          \
	LEAQ  (DX)(BX*8), R14; \
	MOVQ  R9, CX;          \
	TESTQ CX, CX;          \
	JZ    epi

#define STEP \
	ADDQ R12, AX;  \
	ADDQ R13, R14; \
	DECQ CX

// GATEROW points AX at gate's current row: out's row SI, moved to gate.
#define GATEROW \
	MOVQ gate_base+72(FP), AX; \
	SUBQ out_base+0(FP), AX;   \
	ADDQ SI, AX
