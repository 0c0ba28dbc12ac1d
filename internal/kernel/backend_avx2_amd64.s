//go:build amd64 && !purego

#include "textflag.h"

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func pairArgsAVX2(mat *float64, groups, cols int, u, v, xn *float64, nU, nV, negGamma float64, aU, aV *float64)
//
// The RBF exponents of 4·groups consecutive rows of the row-major matrix
// against the support vectors u and v, four rows per trip:
// aU[r] = negGamma·max((xn[r]+nU) − (d+d), 0) with d = mat[r]·u, and aV[r]
// likewise, each dot with the exact floating-point behavior of the scalar
// four-accumulator pattern. Eight accumulator registers, Y0–Y3 for the four
// rows against u and Y4–Y7 against v: lane l of each sums the products of
// elements i ≡ l (mod 4) in stride order (VMULPD then VADDPD, the rounded
// multiply and the rounded add of the scalar a_l chain), and each quad of u
// and v is loaded once for the four rows. The column tail folds into lane 0
// alone: the product and the sum are formed in a temporary whose lane 0 is
// blended back, so lanes 1–3 are not touched. A 4×4 transpose turns each
// set of four accumulators into the four rows' s0, s1, s2 and s3, combined
// left to right as ((s0+s1)+s2)+s3. d+d is 2·d exactly; VMAXPD returns its
// second source, the argument, when that is NaN or both operands are zero,
// which is what "if a < 0 { a = 0 }" leaves of a NaN and of −0. No FMA is
// used anywhere: every product rounds to double before the add, exactly
// like the Go code.
TEXT ·pairArgsAVX2(SB), NOSPLIT, $0-88
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
	VBROADCASTSD negGamma+64(FP), Y14
	VXORPD Y15, Y15, Y15   // the clamp's zero

argsgroup:
	TESTQ R11, R11
	JE    argsdone
	MOVQ  R13, R9          // u cursor
	MOVQ  R14, R10         // v cursor
	MOVQ  R12, BX          // columns remaining
	VXORPD Y0, Y0, Y0      // row 0 · u
	VXORPD Y1, Y1, Y1      // row 1 · u
	VXORPD Y2, Y2, Y2      // row 2 · u
	VXORPD Y3, Y3, Y3      // row 3 · u
	VXORPD Y4, Y4, Y4      // row 0 · v
	VXORPD Y5, Y5, Y5      // row 1 · v
	VXORPD Y6, Y6, Y6      // row 2 · v
	VXORPD Y7, Y7, Y7      // row 3 · v
	CMPQ BX, $4
	JLT  argstail

	PCALIGN $32
argsquad:
	VMOVUPD (R9), Y8
	VMOVUPD (R10), Y9
	VMOVUPD (SI), Y10
	VMULPD  Y10, Y8, Y11
	VADDPD  Y11, Y0, Y0
	VMULPD  Y10, Y9, Y12
	VADDPD  Y12, Y4, Y4
	VMOVUPD (SI)(DX*1), Y10
	VMULPD  Y10, Y8, Y11
	VADDPD  Y11, Y1, Y1
	VMULPD  Y10, Y9, Y12
	VADDPD  Y12, Y5, Y5
	VMOVUPD (SI)(DX*2), Y10
	VMULPD  Y10, Y8, Y11
	VADDPD  Y11, Y2, Y2
	VMULPD  Y10, Y9, Y12
	VADDPD  Y12, Y6, Y6
	VMOVUPD (SI)(CX*1), Y10
	VMULPD  Y10, Y8, Y11
	VADDPD  Y11, Y3, Y3
	VMULPD  Y10, Y9, Y12
	VADDPD  Y12, Y7, Y7
	ADDQ    $32, SI
	ADDQ    $32, R9
	ADDQ    $32, R10
	SUBQ    $4, BX
	CMPQ    BX, $4
	JGE     argsquad

argstail:
	TESTQ BX, BX
	JE    argscombine
	VMOVSD (R9), X8            // u element in lane 0, zeros above
	VMOVSD (R10), X9
	VMOVSD (SI), X10
	VMULPD Y10, Y8, Y11
	VADDPD Y11, Y0, Y11
	VBLENDPD $1, Y11, Y0, Y0   // lane 0 := s0 + x·u; lanes 1-3 kept
	VMULPD Y10, Y9, Y12
	VADDPD Y12, Y4, Y12
	VBLENDPD $1, Y12, Y4, Y4
	VMOVSD (SI)(DX*1), X10
	VMULPD Y10, Y8, Y11
	VADDPD Y11, Y1, Y11
	VBLENDPD $1, Y11, Y1, Y1
	VMULPD Y10, Y9, Y12
	VADDPD Y12, Y5, Y12
	VBLENDPD $1, Y12, Y5, Y5
	VMOVSD (SI)(DX*2), X10
	VMULPD Y10, Y8, Y11
	VADDPD Y11, Y2, Y11
	VBLENDPD $1, Y11, Y2, Y2
	VMULPD Y10, Y9, Y12
	VADDPD Y12, Y6, Y12
	VBLENDPD $1, Y12, Y6, Y6
	VMOVSD (SI)(CX*1), X10
	VMULPD Y10, Y8, Y11
	VADDPD Y11, Y3, Y11
	VBLENDPD $1, Y11, Y3, Y3
	VMULPD Y10, Y9, Y12
	VADDPD Y12, Y7, Y12
	VBLENDPD $1, Y12, Y7, Y7
	ADDQ   $8, SI
	ADDQ   $8, R9
	ADDQ   $8, R10
	DECQ   BX
	JMP    argstail

argscombine:
	// Rows a, b, c, d against u: Y0..Y3 become the rows' s0, s1, s2, s3.
	VUNPCKLPD Y1, Y0, Y8       // a0 b0 a2 b2
	VUNPCKHPD Y1, Y0, Y9       // a1 b1 a3 b3
	VUNPCKLPD Y3, Y2, Y10      // c0 d0 c2 d2
	VUNPCKHPD Y3, Y2, Y11      // c1 d1 c3 d3
	VPERM2F128 $0x20, Y10, Y8, Y0  // a0 b0 c0 d0
	VPERM2F128 $0x20, Y11, Y9, Y1  // a1 b1 c1 d1
	VPERM2F128 $0x31, Y10, Y8, Y2  // a2 b2 c2 d2
	VPERM2F128 $0x31, Y11, Y9, Y3  // a3 b3 c3 d3
	VADDPD  Y1, Y0, Y0
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y0, Y0         // d = ((s0+s1)+s2)+s3, four rows
	VADDPD  Y0, Y0, Y0         // d+d
	VMOVUPD (R8), Y12          // xn
	VBROADCASTSD nU+48(FP), Y13
	VADDPD  Y13, Y12, Y13      // xn+nU
	VSUBPD  Y0, Y13, Y0        // (xn+nU) - (d+d)
	VMAXPD  Y0, Y15, Y0        // the argument is the second source
	VMULPD  Y14, Y0, Y0
	VMOVUPD Y0, (R15)
	// The same against v.
	VUNPCKLPD Y5, Y4, Y8
	VUNPCKHPD Y5, Y4, Y9
	VUNPCKLPD Y7, Y6, Y10
	VUNPCKHPD Y7, Y6, Y11
	VPERM2F128 $0x20, Y10, Y8, Y4
	VPERM2F128 $0x20, Y11, Y9, Y5
	VPERM2F128 $0x31, Y10, Y8, Y6
	VPERM2F128 $0x31, Y11, Y9, Y7
	VADDPD  Y5, Y4, Y4
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y4, Y4
	VADDPD  Y4, Y4, Y4
	VBROADCASTSD nV+56(FP), Y13
	VADDPD  Y13, Y12, Y13
	VSUBPD  Y4, Y13, Y4
	VMAXPD  Y4, Y15, Y4
	VMULPD  Y14, Y4, Y4
	VMOVUPD Y4, (DI)
	ADDQ    CX, SI             // past the group's other three rows
	ADDQ    $32, R8
	ADDQ    $32, R15
	ADDQ    $32, DI
	DECQ    R11
	JMP     argsgroup

argsdone:
	VZEROUPPER
	RET

// func foldAVX2(out, eA, eB *float64, quads int, cA, cB float64)
//
// out[r] = (out[r] + cA·eA[r]) + cB·eB[r] over 4·quads elements: foldGo's
// two rounded products and two rounded sums in its order, four rows at a
// time.
TEXT ·foldAVX2(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ eA+8(FP), SI
	MOVQ eB+16(FP), DX
	MOVQ quads+24(FP), CX
	VBROADCASTSD cA+32(FP), Y2
	VBROADCASTSD cB+40(FP), Y3
	TESTQ CX, CX
	JLE  folddone

foldquad:
	VMULPD  (SI), Y2, Y0
	VADDPD  (DI), Y0, Y0       // out + cA*eA
	VMULPD  (DX), Y3, Y1
	VADDPD  Y1, Y0, Y0         // + cB*eB
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNE     foldquad

folddone:
	VZEROUPPER
	RET

// func dotRowsAVX2(mat *float64, rows, cols int, u, du *float64)
//
// du[r] = mat[r]·u for each row of the rows×cols row-major matrix, with the
// summation semantics of pairArgsAVX2's dots, four rows per trip: the lanes
// of Y0–Y3 are the four rows' scalar a_l accumulators, one chain per
// register, so no add waits on the one before it; each quad of u is loaded
// once for the four rows, the column tail folds into lane 0 by a blend, and
// pairArgsAVX2's 4×4 transpose turns the four registers into the rows'
// s0…s3, combined as ((s0+s1)+s2)+s3. The last rows%4 rows go one at a time:
// the lanes of Y0 are the chains, the tail folds into lane 0 (scalar adds on
// the low half, the high half set aside first) and the lanes combine in the
// same order. Used for the odd trailing support vector and for
// DenseSet.SquaredDistancesInto.
TEXT ·dotRowsAVX2(SB), NOSPLIT, $0-40
	MOVQ mat+0(FP), SI
	MOVQ rows+8(FP), R11
	MOVQ cols+16(FP), R12
	MOVQ u+24(FP), R13
	MOVQ du+32(FP), R15
	MOVQ R12, DX
	SHLQ $3, DX            // bytes from a row to the next
	LEAQ (DX)(DX*2), CX    // and to the third after it

dotgroup:
	CMPQ  R11, $4
	JLT   onerow
	MOVQ  R13, R9          // u cursor
	MOVQ  R12, BX          // columns remaining
	VXORPD Y0, Y0, Y0      // row 0 · u
	VXORPD Y1, Y1, Y1      // row 1 · u
	VXORPD Y2, Y2, Y2      // row 2 · u
	VXORPD Y3, Y3, Y3      // row 3 · u
	CMPQ BX, $4
	JLT  dottail

	PCALIGN $32
dotquad:
	VMOVUPD (R9), Y8
	VMULPD  (SI), Y8, Y4
	VADDPD  Y4, Y0, Y0
	VMULPD  (SI)(DX*1), Y8, Y5
	VADDPD  Y5, Y1, Y1
	VMULPD  (SI)(DX*2), Y8, Y6
	VADDPD  Y6, Y2, Y2
	VMULPD  (SI)(CX*1), Y8, Y7
	VADDPD  Y7, Y3, Y3
	ADDQ    $32, SI
	ADDQ    $32, R9
	SUBQ    $4, BX
	CMPQ    BX, $4
	JGE     dotquad

dottail:
	TESTQ BX, BX
	JE    dotcombine
	VMOVSD (R9), X8            // u element in lane 0, zeros above
	VMOVSD (SI), X4
	VMULPD Y4, Y8, Y4
	VADDPD Y4, Y0, Y4
	VBLENDPD $1, Y4, Y0, Y0    // lane 0 := s0 + x·u; lanes 1-3 kept
	VMOVSD (SI)(DX*1), X5
	VMULPD Y5, Y8, Y5
	VADDPD Y5, Y1, Y5
	VBLENDPD $1, Y5, Y1, Y1
	VMOVSD (SI)(DX*2), X6
	VMULPD Y6, Y8, Y6
	VADDPD Y6, Y2, Y6
	VBLENDPD $1, Y6, Y2, Y2
	VMOVSD (SI)(CX*1), X7
	VMULPD Y7, Y8, Y7
	VADDPD Y7, Y3, Y7
	VBLENDPD $1, Y7, Y3, Y3
	ADDQ   $8, SI
	ADDQ   $8, R9
	DECQ   BX
	JMP    dottail

dotcombine:
	// Rows a, b, c, d: Y0..Y3 become the rows' s0, s1, s2, s3.
	VUNPCKLPD Y1, Y0, Y8       // a0 b0 a2 b2
	VUNPCKHPD Y1, Y0, Y9       // a1 b1 a3 b3
	VUNPCKLPD Y3, Y2, Y10      // c0 d0 c2 d2
	VUNPCKHPD Y3, Y2, Y11      // c1 d1 c3 d3
	VPERM2F128 $0x20, Y10, Y8, Y0  // a0 b0 c0 d0
	VPERM2F128 $0x20, Y11, Y9, Y1  // a1 b1 c1 d1
	VPERM2F128 $0x31, Y10, Y8, Y2  // a2 b2 c2 d2
	VPERM2F128 $0x31, Y11, Y9, Y3  // a3 b3 c3 d3
	VADDPD  Y1, Y0, Y0
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y0, Y0         // ((s0+s1)+s2)+s3, four rows
	VMOVUPD Y0, (R15)
	ADDQ    CX, SI             // past the group's other three rows
	ADDQ    $32, R15
	SUBQ    $4, R11
	JMP     dotgroup

onerow:
	TESTQ R11, R11
	JE    onedone
	MOVQ  R13, R9
	MOVQ  R12, BX
	VXORPD Y0, Y0, Y0

onevec4:
	CMPQ BX, $4
	JLT  onetailsetup
	VMOVUPD (SI), Y2
	VMOVUPD (R9), Y3
	VMULPD  Y2, Y3, Y3
	VADDPD  Y3, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, R9
	SUBQ    $4, BX
	JMP     onevec4

onetailsetup:
	VEXTRACTF128 $1, Y0, X5

onetail:
	TESTQ BX, BX
	JE    onecombine
	VMOVSD (SI), X7
	VMOVSD (R9), X8
	VMULSD X7, X8, X8
	VADDSD X8, X0, X0
	ADDQ   $8, SI
	ADDQ   $8, R9
	DECQ   BX
	JMP    onetail

onecombine:
	VSHUFPD $1, X0, X0, X7
	VADDSD  X7, X0, X0
	VADDSD  X5, X0, X0
	VSHUFPD $1, X5, X5, X7
	VADDSD  X7, X0, X0
	VMOVSD  X0, (R15)
	ADDQ    $8, R15
	DECQ    R11
	JMP     onerow

onedone:
	VZEROUPPER
	RET

// expTableAVX2 holds expQuadsAVX2's constants as float64 bit patterns:
// expLog2E, expC1, expC2, expP[0..2], expQ[0..3] of exp.go in that order,
// then 0.5, 1, expWindow, the sign-clearing mask and the exponent bias.
// TestExpConstantsMatchAssemblyTable holds it to the Go constants.
DATA ·expTableAVX2+0(SB)/8, $0x3ff71547652b82fe   // expLog2E
DATA ·expTableAVX2+8(SB)/8, $0x3fe62e4000000000   // expC1
DATA ·expTableAVX2+16(SB)/8, $0x3eb7f7d1cf79abca  // expC2
DATA ·expTableAVX2+24(SB)/8, $0x3f2089cdd5e44be8  // expP[0]
DATA ·expTableAVX2+32(SB)/8, $0x3f9f06d10cca2c7e  // expP[1]
DATA ·expTableAVX2+40(SB)/8, $0x3ff0000000000000  // expP[2]
DATA ·expTableAVX2+48(SB)/8, $0x3ec92eb6bc365fa0  // expQ[0]
DATA ·expTableAVX2+56(SB)/8, $0x3f64ae39b508b6c0  // expQ[1]
DATA ·expTableAVX2+64(SB)/8, $0x3fcd17099887e074  // expQ[2]
DATA ·expTableAVX2+72(SB)/8, $0x4000000000000000  // expQ[3]
DATA ·expTableAVX2+80(SB)/8, $0x3fe0000000000000  // 0.5
DATA ·expTableAVX2+88(SB)/8, $0x3ff0000000000000  // 1
DATA ·expTableAVX2+96(SB)/8, $0x4085e00000000000  // expWindow
DATA ·expTableAVX2+104(SB)/8, $0x7fffffffffffffff // |x| mask
DATA ·expTableAVX2+112(SB)/8, $1023               // exponent bias
GLOBL ·expTableAVX2(SB), RODATA|NOPTR, $120

// func expQuadsAVX2(v *float64, quads int) int
//
// Replaces consecutive groups of four float64 at v by their exponentials and
// returns how many groups it did: all quads of them, or fewer when it stopped
// in front of a group holding a NaN or an element outside
// [-expWindow, expWindow], which it leaves untouched for the caller's expOne.
// Each vector lane is expOne's arithmetic in expOne's order, one correctly
// rounded IEEE instruction per Go operation: no FMA, no reassociation, no
// approximate reciprocal. In the window n is in [-1010, 1010], so 2^n is
// built from its exponent bits and applied with one multiply.
TEXT ·expQuadsAVX2(SB), NOSPLIT, $0-24
	MOVQ v+0(FP), SI
	MOVQ quads+8(FP), CX
	XORQ AX, AX            // groups done
	TESTQ CX, CX
	JLE  expdone
	VBROADCASTSD ·expTableAVX2+104(SB), Y15 // |x| mask
	VBROADCASTSD ·expTableAVX2+96(SB), Y14  // expWindow
	VBROADCASTSD ·expTableAVX2+0(SB), Y13   // expLog2E
	VBROADCASTSD ·expTableAVX2+80(SB), Y12  // 0.5
	VBROADCASTSD ·expTableAVX2+8(SB), Y11   // expC1
	VBROADCASTSD ·expTableAVX2+16(SB), Y10  // expC2
	VBROADCASTSD ·expTableAVX2+24(SB), Y9   // expP[0]
	VBROADCASTSD ·expTableAVX2+32(SB), Y8   // expP[1]
	VBROADCASTSD ·expTableAVX2+40(SB), Y7   // expP[2]
	VBROADCASTSD ·expTableAVX2+48(SB), Y6   // expQ[0]
	// The five constants that have no register left are broadcast where
	// they are used, into Y1 once k is dead.

	PCALIGN $32
expquad:
	VMOVUPD (SI), Y0           // x
	VANDPD  Y15, Y0, Y1        // |x|
	VCMPPD  $2, Y14, Y1, Y2    // |x| <= expWindow, ordered: false for NaN
	VMOVMSKPD Y2, DX
	CMPL    DX, $15
	JNE     expdone
	VMULPD  Y13, Y0, Y1        // expLog2E*x
	VADDPD  Y12, Y1, Y1        // + 0.5
	VROUNDPD $9, Y1, Y1        // k = Floor(...)
	VCVTTPD2DQY Y1, X2         // n = int(k), exact
	VMULPD  Y11, Y1, Y3
	VSUBPD  Y3, Y0, Y0         // x -= k*expC1
	VMULPD  Y10, Y1, Y3
	VSUBPD  Y3, Y0, Y0         // x -= k*expC2
	VMULPD  Y0, Y0, Y3         // xx
	VMULPD  Y9, Y3, Y4
	VADDPD  Y8, Y4, Y4
	VMULPD  Y3, Y4, Y4
	VADDPD  Y7, Y4, Y4
	VMULPD  Y0, Y4, Y4         // p = x*((P0*xx+P1)*xx+P2)
	VMULPD  Y6, Y3, Y5
	VBROADCASTSD ·expTableAVX2+56(SB), Y1
	VADDPD  Y1, Y5, Y5
	VMULPD  Y3, Y5, Y5
	VBROADCASTSD ·expTableAVX2+64(SB), Y1
	VADDPD  Y1, Y5, Y5
	VMULPD  Y3, Y5, Y5
	VBROADCASTSD ·expTableAVX2+72(SB), Y1
	VADDPD  Y1, Y5, Y5         // q = ((Q0*xx+Q1)*xx+Q2)*xx+Q3
	VSUBPD  Y4, Y5, Y5         // q-p
	VDIVPD  Y5, Y4, Y4         // p/(q-p)
	VADDPD  Y4, Y4, Y4         // 2*(...), exact either way
	VBROADCASTSD ·expTableAVX2+88(SB), Y1
	VADDPD  Y1, Y4, Y4         // 1 + ...
	VPMOVSXDQ X2, Y2
	VPBROADCASTQ ·expTableAVX2+112(SB), Y1
	VPADDQ  Y1, Y2, Y2
	VPSLLQ  $52, Y2, Y2        // bits of 2^n
	VMULPD  Y2, Y4, Y4
	VMOVUPD Y4, (SI)
	ADDQ    $32, SI
	INCQ    AX
	CMPQ    AX, CX
	JLT     expquad

expdone:
	VZEROUPPER
	MOVQ AX, ret+16(FP)
	RET
