#include "textflag.h"

// func expAVX2(dst, src []float64, c *[15][4]float64) int
//
// expAVX2 writes Exp(src[i]) into dst[i], four lanes to a YMM register,
// from the start of src through its last full group of four. It returns
// the number of elements written: len(src)&^3, or the index of the first
// group holding a NaN or an element beyond ±708, which it leaves to the
// caller unwritten. Each lane does Exp's IEEE operations (exp.go) in the
// same order, with multiply and add in separate instructions, never fused:
// k = trunc(log2e·x ± 0.5) with the sign of x, hi = x − k·ln2Hi,
// lo = k·ln2Lo, r = hi − lo, the polynomial in t = r·r, the divide, and
// 2^k added to the exponent bits, which is exact because the result is
// normal. Lanes with |x| < 2^−28 take 1 + x instead. In Go's operand order
// "VSUBPD Y1, Y2, Y3" is Y3 = Y2 − Y1 and "VDIVPD Y1, Y2, Y3" is
// Y3 = Y2 / Y1.
//
// c holds the constants, each in four lanes (expLanes in exp.go), at these
// byte offsets from R9:
#define ABS 0(R9)
#define SIGN 32(R9)
#define LIMIT 64(R9)
#define NEARZERO 96(R9)
#define HALF 128(R9)
#define LOG2E 160(R9)
#define LN2HI 192(R9)
#define LN2LO 224(R9)
#define P5 256(R9)
#define P4 288(R9)
#define P3 320(R9)
#define P2 352(R9)
#define P1 384(R9)
#define ONE 416(R9)
#define TWO 448(R9)

// NLE_UQ is VCMPPD's predicate "not less than or equal, unordered": true
// where the first source exceeds the second or either is NaN. LT_OQ is
// "less than, ordered".
#define NLE_UQ $0x16
#define LT_OQ $0x11

// TRUNCATE is VROUNDPD's mode that rounds toward zero, as Go's int(x).
#define TRUNCATE $3

TEXT ·expAVX2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ c+48(FP), R9
	MOVQ src_len+32(FP), CX
	ANDQ $-4, CX
	XORQ AX, AX

loop:
	CMPQ     AX, CX
	JGE      done
	VMOVUPD  (SI)(AX*8), Y0         // x
	VANDPD   ABS, Y0, Y1            // |x|
	VCMPPD   NLE_UQ, LIMIT, Y1, Y2  // NaN or |x| > 708
	VPTEST   Y2, Y2
	JNZ      done
	VCMPPD   LT_OQ, NEARZERO, Y1, Y1 // |x| < 2^−28
	VANDPD   SIGN, Y0, Y2
	VORPD    HALF, Y2, Y2           // ±0.5 with the sign of x
	VMULPD   LOG2E, Y0, Y3          // log2e·x
	VADDPD   Y2, Y3, Y3             // log2e·x ± 0.5
	VROUNDPD TRUNCATE, Y3, Y3       // k
	VMULPD   LN2HI, Y3, Y4          // k·ln2Hi
	VSUBPD   Y4, Y0, Y4             // hi = x − k·ln2Hi
	VMULPD   LN2LO, Y3, Y5          // lo = k·ln2Lo
	VSUBPD   Y5, Y4, Y6             // r = hi − lo
	VMULPD   Y6, Y6, Y7             // t = r·r
	VMULPD   P5, Y7, Y8             // t·P5
	VADDPD   P4, Y8, Y8             // p = P4 + t·P5
	VMULPD   Y8, Y7, Y8             // t·p
	VADDPD   P3, Y8, Y8             // p = P3 + t·p
	VMULPD   Y8, Y7, Y8             // t·p
	VADDPD   P2, Y8, Y8             // p = P2 + t·p
	VMULPD   Y8, Y7, Y8             // t·p
	VADDPD   P1, Y8, Y8             // p = P1 + t·p
	VMULPD   Y8, Y7, Y8             // t·p
	VSUBPD   Y8, Y6, Y8             // c = r − t·p
	VMULPD   Y8, Y6, Y7             // r·c
	VMOVUPD  TWO, Y9
	VSUBPD   Y8, Y9, Y9             // 2 − c
	VDIVPD   Y9, Y7, Y7             // r·c / (2 − c)
	VSUBPD   Y7, Y5, Y7             // lo − r·c/(2 − c)
	VSUBPD   Y4, Y7, Y7             // (lo − r·c/(2 − c)) − hi
	VMOVUPD  ONE, Y9
	VSUBPD   Y7, Y9, Y7             // y = 1 − ((lo − r·c/(2 − c)) − hi)
	VCVTPD2DQY Y3, X3               // k as int32
	VPMOVSXDQ X3, Y3                // k as int64
	VPSLLQ   $52, Y3, Y3            // k in the exponent field
	VPADDQ   Y3, Y7, Y7             // y·2^k
	VADDPD   ONE, Y0, Y9            // 1 + x
	VBLENDVPD Y1, Y9, Y7, Y7        // 1 + x where |x| < 2^−28
	VMOVUPD  Y7, (DI)(AX*8)
	ADDQ     $4, AX
	JMP      loop

done:
	MOVQ AX, ret+56(FP)
	VZEROUPPER
	RET
