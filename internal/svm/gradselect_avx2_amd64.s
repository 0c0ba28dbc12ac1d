//go:build amd64 && !purego

#include "textflag.h"

// gradSelectConsts: the lane indices 0–7 as int64, the int64 8, −Inf, +Inf
// and four float64 sign bits.
DATA gradSelectConsts<>+0(SB)/8, $0
DATA gradSelectConsts<>+8(SB)/8, $1
DATA gradSelectConsts<>+16(SB)/8, $2
DATA gradSelectConsts<>+24(SB)/8, $3
DATA gradSelectConsts<>+32(SB)/8, $4
DATA gradSelectConsts<>+40(SB)/8, $5
DATA gradSelectConsts<>+48(SB)/8, $6
DATA gradSelectConsts<>+56(SB)/8, $7
DATA gradSelectConsts<>+64(SB)/8, $8
DATA gradSelectConsts<>+72(SB)/8, $0xfff0000000000000
DATA gradSelectConsts<>+80(SB)/8, $0x7ff0000000000000
DATA gradSelectConsts<>+88(SB)/8, $0x8000000000000000
DATA gradSelectConsts<>+96(SB)/8, $0x8000000000000000
DATA gradSelectConsts<>+104(SB)/8, $0x8000000000000000
DATA gradSelectConsts<>+112(SB)/8, $0x8000000000000000
GLOBL gradSelectConsts<>(SB), RODATA|NOPTR, $120

// LOADQ and STOREQ move the quad of elements t..t+3 at byte offset off from
// base. The tail's MLOADQ and MSTOREQ move only the lanes of the mask in Y12
// and touch no memory of the others (they load as zero).
#define LOADQ(off, base, r) VMOVUPD off(base)(AX*8), r
#define STOREQ(off, base, r) VMOVUPD r, off(base)(AX*8)
#define MLOADQ(off, base, r) VMASKMOVPD off(base)(AX*8), Y12, r
#define MSTOREQ(off, base, r) VMASKMOVPD r, Y12, off(base)(AX*8)

// UPDATE is one quad of gradSelectGo's arithmetic, one rounded instruction
// per Go operation, in its order and with its operand order — each
// instruction's first source is the operand Go's code has first, so that
// even a NaN meeting a NaN gives Go's bits: g = ((rowI·ydAi) + (rowJ·ydAj))
// ·label + grad is stored, and Y8 becomes v = g·(−label).
#define UPDATE(LOAD, STORE, off) \
	LOAD(off, SI, Y8); \
	VMULPD Y15, Y8, Y8; \
	LOAD(off, DX, Y9); \
	VMULPD Y14, Y9, Y9; \
	VADDPD Y9, Y8, Y8; \
	LOAD(off, R8, Y9); \
	VMULPD Y9, Y8, Y8; \
	LOAD(off, DI, Y10); \
	VADDPD Y10, Y8, Y8; \
	STORE(off, DI, Y8); \
	VXORPD gradSelectConsts<>+88(SB), Y9, Y9; \
	VMULPD Y9, Y8, Y8

// TRACK folds the candidates in Y9, of lane indices idx, into a running
// extreme ext and its indices at: where "candidate pred ext" holds — an
// ordered compare, so never for a NaN — the candidate and its index replace
// them. Within a lane the first index to reach the extreme stays, as in the
// serial scan. The tail's compare is restricted to the lanes of its mask.
#define TRACK(pred, ext, at, idx) \
	VCMPPD $pred, ext, Y9, Y10; \
	VBLENDVPD Y10, Y9, ext, ext; \
	VBLENDVPD Y10, idx, at, at

#define MTRACK(pred, ext, at, idx) \
	VCMPPD $pred, ext, Y9, Y10; \
	VANDPD Y12, Y10, Y10; \
	VBLENDVPD Y10, Y9, ext, ext; \
	VBLENDVPD Y10, idx, at, at

// QUAD runs the quad at byte offset off into one accumulator set: the update
// with its store, then v + upPen into the up maxima (_CMP_GT_OQ) and v +
// lowPen into the low minima (_CMP_LT_OQ). MQUAD is the tail's masked QUAD.
#define QUAD(off, idx, mx, imx, mn, imn) \
	UPDATE(LOADQ, STOREQ, off); \
	LOADQ(off, R9, Y9); \
	VADDPD Y8, Y9, Y9; \
	TRACK(0x1e, mx, imx, idx); \
	LOADQ(off, R10, Y9); \
	VADDPD Y8, Y9, Y9; \
	TRACK(0x11, mn, imn, idx)

#define MQUAD(idx, mx, imx, mn, imn) \
	UPDATE(MLOADQ, MSTOREQ, 0); \
	MLOADQ(0, R9, Y9); \
	VADDPD Y8, Y9, Y9; \
	MTRACK(0x1e, mx, imx, idx); \
	MLOADQ(0, R10, Y9); \
	VADDPD Y8, Y9, Y9; \
	MTRACK(0x11, mn, imn, idx)

// MERGE takes, lane by lane, the candidate (ob, ib) over (oa, ia) where
// "ob pred oa" holds, or where the two are equal and ib < ia: the extreme by
// value and on a tie the smaller index, the serial scan's first index to
// reach it. No lane holds a NaN, and a lane that never took a candidate
// holds ∓Inf with index −1.
#define MERGE(pred, oa, ia, ob, ib) \
	VCMPPD $pred, oa, ob, Y8; \
	VCMPPD $0x00, oa, ob, Y9; \
	VPCMPGTQ ib, ia, Y10; \
	VANDPD Y10, Y9, Y9; \
	VORPD Y9, Y8, Y8; \
	VBLENDVPD Y8, ob, oa, oa; \
	VBLENDVPD Y8, ib, ia, ia

// func gradSelectAVX2(grad, rowI, rowJ, labels, upPen, lowPen *float64, n int, ydAi, ydAj float64) (ni, nj int, maxUp, minLow float64)
//
// gradSelectGo over n elements, four lanes per instruction, eight elements
// per trip: elements 8k..8k+3 go to accumulator set A (Y0 the up maxima, Y1
// their indices, Y2 the low minima, Y3 theirs) and 8k+4..8k+7 to set B
// (Y4–Y7), so two compare→blend chains run side by side. The last n mod 8
// elements are at most two masked quads, one per set. Every lane sees
// ascending indices. At the end the sets merge lane by lane, then the two
// halves, then the two neighbours of lane 0. Y15 and Y14 hold ydAi and ydAj,
// Y11 and Y13 the indices of set A's and set B's next quads, Y12 the int64 8
// (in the tail, the mask), Y8–Y10 temporaries. No fused multiply-add, and
// no legacy-SSE instruction before VZEROUPPER: one MOVQ into X12 in the tail
// made a call 2–4× slower on a Xeon (family 6 model 207), a state-transition
// stall each time.
TEXT ·gradSelectAVX2(SB), NOSPLIT, $0-104
	MOVQ grad+0(FP), DI
	MOVQ rowI+8(FP), SI
	MOVQ rowJ+16(FP), DX
	MOVQ labels+24(FP), R8
	MOVQ upPen+32(FP), R9
	MOVQ lowPen+40(FP), R10
	MOVQ n+48(FP), CX
	VBROADCASTSD ydAi+56(FP), Y15
	VBROADCASTSD ydAj+64(FP), Y14
	VMOVDQU gradSelectConsts<>+0(SB), Y11
	VMOVDQU gradSelectConsts<>+32(SB), Y13
	VPBROADCASTQ gradSelectConsts<>+64(SB), Y12
	VBROADCASTSD gradSelectConsts<>+72(SB), Y0
	VBROADCASTSD gradSelectConsts<>+80(SB), Y2
	VMOVAPD Y0, Y4
	VMOVAPD Y2, Y6
	VPCMPEQQ Y1, Y1, Y1 // index −1
	VMOVDQA Y1, Y3
	VMOVDQA Y1, Y5
	VMOVDQA Y1, Y7
	XORQ AX, AX         // t
	MOVQ CX, BX         // elements left
	CMPQ BX, $8
	JLT  tail

	PCALIGN $32
octet:
	QUAD(0, Y11, Y0, Y1, Y2, Y3)
	QUAD(32, Y13, Y4, Y5, Y6, Y7)
	VPADDQ Y12, Y11, Y11
	VPADDQ Y12, Y13, Y13
	ADDQ $8, AX
	SUBQ $8, BX
	CMPQ BX, $8
	JGE  octet

tail:
	TESTQ BX, BX
	JE    merge
	VMOVQ CX, X12
	VPBROADCASTQ X12, Y12
	VPCMPGTQ Y11, Y12, Y12 // lanes whose index is below n
	MQUAD(Y11, Y0, Y1, Y2, Y3)
	CMPQ  BX, $4
	JLE   merge
	ADDQ  $4, AX
	VMOVQ CX, X12
	VPBROADCASTQ X12, Y12
	VPCMPGTQ Y13, Y12, Y12
	MQUAD(Y13, Y4, Y5, Y6, Y7)

merge:
	MERGE(0x1e, Y0, Y1, Y4, Y5)
	MERGE(0x11, Y2, Y3, Y6, Y7)
	VPERM2F128 $0x01, Y0, Y0, Y4 // halves swapped
	VPERM2F128 $0x01, Y1, Y1, Y5
	VPERM2F128 $0x01, Y2, Y2, Y6
	VPERM2F128 $0x01, Y3, Y3, Y7
	MERGE(0x1e, Y0, Y1, Y4, Y5)
	MERGE(0x11, Y2, Y3, Y6, Y7)
	VPERMILPD $0x05, Y0, Y4 // neighbours swapped
	VPERMILPD $0x05, Y1, Y5
	VPERMILPD $0x05, Y2, Y6
	VPERMILPD $0x05, Y3, Y7
	MERGE(0x1e, Y0, Y1, Y4, Y5)
	MERGE(0x11, Y2, Y3, Y6, Y7)
	VMOVQ  X1, ni+72(FP)
	VMOVQ  X3, nj+80(FP)
	VMOVSD X0, maxUp+88(FP)
	VMOVSD X2, minLow+96(FP)
	VZEROUPPER
	RET
