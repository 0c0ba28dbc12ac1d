//go:build amd64 && !purego

#include "textflag.h"

// Only AVX-512F instructions appear here: no AVX-512VL form of a 256-bit
// instruction (so no Y16-Y31), no AVX-512DQ (VXORPD, VANDPD and
// VINSERTF64X2 on Z registers), and no fused multiply-add.

// permAVX512 holds the two VPERMT2PD index vectors of pairArgsAVX512's
// combine: lanes 0-1 and 4-5 of each 128-bit pair (the first table's, then
// the second's), and lanes 2-3 and 6-7.
DATA ·permAVX512+0(SB)/8, $0
DATA ·permAVX512+8(SB)/8, $1
DATA ·permAVX512+16(SB)/8, $8
DATA ·permAVX512+24(SB)/8, $9
DATA ·permAVX512+32(SB)/8, $4
DATA ·permAVX512+40(SB)/8, $5
DATA ·permAVX512+48(SB)/8, $12
DATA ·permAVX512+56(SB)/8, $13
DATA ·permAVX512+64(SB)/8, $2
DATA ·permAVX512+72(SB)/8, $3
DATA ·permAVX512+80(SB)/8, $10
DATA ·permAVX512+88(SB)/8, $11
DATA ·permAVX512+96(SB)/8, $6
DATA ·permAVX512+104(SB)/8, $7
DATA ·permAVX512+112(SB)/8, $14
DATA ·permAVX512+120(SB)/8, $15
GLOBL ·permAVX512(SB), RODATA|NOPTR, $128

// func pairArgsAVX512(mat *float64, groups, cols int, u, v, xn *float64, nU, nV, negGamma float64, aU, aV *float64)
//
// pairArgsAVX2's result for 8·groups consecutive rows, eight rows per trip
// and both support vectors in one register: Zr holds row r's four chains
// against u in lanes 0-3 and its four against v in lanes 4-7, each lane the
// scalar a_l (or b_l) chain — VMULPD then VADDPD, the rounded multiply and
// the rounded add, of elements i ≡ l (mod 4) in stride order. Per column
// quad, u and v are loaded once into the low and high half of Z8 and each
// row's quad is broadcast to both halves, so one multiply and one add do
// what two do in pairArgsAVX2. The column tail folds into lanes 0 and 4
// alone through a merge-masked add (K1), the other lanes kept. Per four
// rows, VUNPCKLPD/VUNPCKHPD and VPERMT2PD turn Z0-Z3 (or Z4-Z7) into s0, s1,
// s2 and s3 — rows against u in the low half, against v in the high half —
// combined left to right as ((s0+s1)+s2)+s3; then d+d, the expansion
// against xn+nU and xn+nV, the clamp (VMAXPD with the argument its second
// source, which it returns for a NaN and for two zeros, as
// "if a < 0 { a = 0 }" does) and the scaling, the low half stored to aU and
// the high half to aV.
TEXT ·pairArgsAVX512(SB), NOSPLIT, $0-88
	MOVQ mat+0(FP), SI
	MOVQ groups+8(FP), R11
	MOVQ cols+16(FP), R12
	MOVQ u+24(FP), R13
	MOVQ v+32(FP), R14
	MOVQ xn+40(FP), R8
	MOVQ aU+72(FP), R15
	MOVQ aV+80(FP), DI
	MOVQ R12, DX
	SHLQ $3, DX            // bytes from a row to the next
	LEAQ (DX)(DX*2), CX    // and to the third after it
	VBROADCASTSD negGamma+64(FP), Z14
	VBROADCASTSD nU+48(FP), Y13
	VBROADCASTSD nV+56(FP), Y12
	VINSERTF64X4 $1, Y12, Z13, Z13 // nU ×4 | nV ×4
	VPXORQ Z15, Z15, Z15   // the clamp's zero
	VMOVUPD ·permAVX512+0(SB), Z24
	VMOVUPD ·permAVX512+64(SB), Z25
	MOVL $0x11, AX
	KMOVW AX, K1           // lanes 0 and 4: the tail's chains

argsgroup:
	TESTQ R11, R11
	JE    argsdone
	MOVQ  R13, R9          // u cursor
	MOVQ  R14, R10         // v cursor
	MOVQ  R12, BX          // columns remaining
	LEAQ  (SI)(DX*4), AX   // row 4
	VPXORQ Z0, Z0, Z0      // row 0 · u | row 0 · v
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7      // row 7 · u | row 7 · v
	CMPQ BX, $4
	JLT  argstail

	PCALIGN $32
argsquad:
	VMOVUPD (R9), Y8
	VINSERTF64X4 $1, (R10), Z8, Z8 // u quad | v quad
	VBROADCASTF64X4 (SI), Z16
	VMULPD  Z16, Z8, Z16
	VADDPD  Z16, Z0, Z0
	VBROADCASTF64X4 (SI)(DX*1), Z17
	VMULPD  Z17, Z8, Z17
	VADDPD  Z17, Z1, Z1
	VBROADCASTF64X4 (SI)(DX*2), Z18
	VMULPD  Z18, Z8, Z18
	VADDPD  Z18, Z2, Z2
	VBROADCASTF64X4 (SI)(CX*1), Z19
	VMULPD  Z19, Z8, Z19
	VADDPD  Z19, Z3, Z3
	VBROADCASTF64X4 (AX), Z20
	VMULPD  Z20, Z8, Z20
	VADDPD  Z20, Z4, Z4
	VBROADCASTF64X4 (AX)(DX*1), Z21
	VMULPD  Z21, Z8, Z21
	VADDPD  Z21, Z5, Z5
	VBROADCASTF64X4 (AX)(DX*2), Z22
	VMULPD  Z22, Z8, Z22
	VADDPD  Z22, Z6, Z6
	VBROADCASTF64X4 (AX)(CX*1), Z23
	VMULPD  Z23, Z8, Z23
	VADDPD  Z23, Z7, Z7
	ADDQ    $32, SI
	ADDQ    $32, AX
	ADDQ    $32, R9
	ADDQ    $32, R10
	SUBQ    $4, BX
	CMPQ    BX, $4
	JGE     argsquad

argstail:
	TESTQ BX, BX
	JE    argscombine
	VMOVSD (R9), X8
	VMOVSD (R10), X9
	VINSERTF64X4 $1, Y9, Z8, Z8 // u element in lane 0, v in lane 4, zeros elsewhere
	VBROADCASTSD (SI), Z16
	VMULPD  Z16, Z8, Z16
	VADDPD  Z16, Z0, K1, Z0    // lanes 0 and 4 += x·u, x·v; the rest kept
	VBROADCASTSD (SI)(DX*1), Z17
	VMULPD  Z17, Z8, Z17
	VADDPD  Z17, Z1, K1, Z1
	VBROADCASTSD (SI)(DX*2), Z18
	VMULPD  Z18, Z8, Z18
	VADDPD  Z18, Z2, K1, Z2
	VBROADCASTSD (SI)(CX*1), Z19
	VMULPD  Z19, Z8, Z19
	VADDPD  Z19, Z3, K1, Z3
	VBROADCASTSD (AX), Z20
	VMULPD  Z20, Z8, Z20
	VADDPD  Z20, Z4, K1, Z4
	VBROADCASTSD (AX)(DX*1), Z21
	VMULPD  Z21, Z8, Z21
	VADDPD  Z21, Z5, K1, Z5
	VBROADCASTSD (AX)(DX*2), Z22
	VMULPD  Z22, Z8, Z22
	VADDPD  Z22, Z6, K1, Z6
	VBROADCASTSD (AX)(CX*1), Z23
	VMULPD  Z23, Z8, Z23
	VADDPD  Z23, Z7, K1, Z7
	ADDQ   $8, SI
	ADDQ   $8, AX
	ADDQ   $8, R9
	ADDQ   $8, R10
	DECQ   BX
	JMP    argstail

argscombine:
	// Rows a, b, c, d = 0-3: in each 128-bit pair, lanes of two rows.
	VUNPCKLPD Z1, Z0, Z8       // a0 b0 a2 b2 | (v) a0 b0 a2 b2
	VUNPCKHPD Z1, Z0, Z9       // a1 b1 a3 b3 | ...
	VUNPCKLPD Z3, Z2, Z10      // c0 d0 c2 d2 | ...
	VUNPCKHPD Z3, Z2, Z11      // c1 d1 c3 d3 | ...
	VMOVAPD   Z8, Z16
	VPERMT2PD Z10, Z24, Z16    // s0: a0 b0 c0 d0 | a0 b0 c0 d0
	VPERMT2PD Z10, Z25, Z8     // s2
	VMOVAPD   Z9, Z17
	VPERMT2PD Z11, Z24, Z17    // s1
	VPERMT2PD Z11, Z25, Z9     // s3
	VADDPD  Z17, Z16, Z16
	VADDPD  Z8, Z16, Z16
	VADDPD  Z9, Z16, Z16       // d = ((s0+s1)+s2)+s3: four rows · u | · v
	VADDPD  Z16, Z16, Z16      // d+d
	VBROADCASTF64X4 (R8), Z17  // xn of the four rows, in both halves
	VADDPD  Z13, Z17, Z17      // xn+nU | xn+nV
	VSUBPD  Z16, Z17, Z16      // (xn+n) - (d+d)
	VMAXPD  Z16, Z15, Z16      // the argument is the second source
	VMULPD  Z14, Z16, Z16
	VEXTRACTF64X4 $0, Z16, (R15)
	VEXTRACTF64X4 $1, Z16, (DI)
	// The same for rows 4-7.
	VUNPCKLPD Z5, Z4, Z8
	VUNPCKHPD Z5, Z4, Z9
	VUNPCKLPD Z7, Z6, Z10
	VUNPCKHPD Z7, Z6, Z11
	VMOVAPD   Z8, Z16
	VPERMT2PD Z10, Z24, Z16
	VPERMT2PD Z10, Z25, Z8
	VMOVAPD   Z9, Z17
	VPERMT2PD Z11, Z24, Z17
	VPERMT2PD Z11, Z25, Z9
	VADDPD  Z17, Z16, Z16
	VADDPD  Z8, Z16, Z16
	VADDPD  Z9, Z16, Z16
	VADDPD  Z16, Z16, Z16
	VBROADCASTF64X4 32(R8), Z17
	VADDPD  Z13, Z17, Z17
	VSUBPD  Z16, Z17, Z16
	VMAXPD  Z16, Z15, Z16
	VMULPD  Z14, Z16, Z16
	VEXTRACTF64X4 $0, Z16, 32(R15)
	VEXTRACTF64X4 $1, Z16, 32(DI)
	LEAQ    (AX)(CX*1), SI     // AX is at row 5: past the group's last three rows
	ADDQ    $64, R8
	ADDQ    $64, R15
	ADDQ    $64, DI
	DECQ    R11
	JMP     argsgroup

argsdone:
	VZEROUPPER
	RET

// func foldAVX512(out, eA, eB *float64, octs int, cA, cB float64)
//
// foldAVX2 eight rows at a time: out[r] = (out[r] + cA·eA[r]) + cB·eB[r]
// over 8·octs elements, foldGo's two rounded products and two rounded sums
// in its order.
TEXT ·foldAVX512(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ eA+8(FP), SI
	MOVQ eB+16(FP), DX
	MOVQ octs+24(FP), CX
	VBROADCASTSD cA+32(FP), Z2
	VBROADCASTSD cB+40(FP), Z3
	TESTQ CX, CX
	JLE  folddone

foldoct:
	VMULPD  (SI), Z2, Z0
	VADDPD  (DI), Z0, Z0       // out + cA*eA
	VMULPD  (DX), Z3, Z1
	VADDPD  Z1, Z0, Z0         // + cB*eB
	VMOVUPD Z0, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $64, DI
	DECQ    CX
	JNE     foldoct

folddone:
	VZEROUPPER
	RET
