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

// func dotPairRowsAVX2(mat *float64, rows, cols int, u, v, du, dv *float64)
//
// For each row r of the rows×cols row-major matrix: du[r] = mat[r]·u and
// dv[r] = mat[r]·v, with the exact floating-point behavior of the scalar
// four-accumulator pattern. Vector lane l accumulates the products of
// elements i ≡ l (mod 4) in stride order (VADDPD lane arithmetic is the
// same sequence of rounded double adds as the scalar a_l accumulators),
// the scalar tail folds into lane 0, and the lanes combine left-to-right
// as ((s0+s1)+s2)+s3. No FMA is used anywhere: every product rounds to
// double before the add, exactly like the Go code.
TEXT ·dotPairRowsAVX2(SB), NOSPLIT, $0-56
	MOVQ mat+0(FP), SI
	MOVQ rows+8(FP), R11
	MOVQ cols+16(FP), R12
	MOVQ u+24(FP), R13
	MOVQ v+32(FP), R14
	MOVQ du+40(FP), R15
	MOVQ dv+48(FP), DI

pairrow:
	TESTQ R11, R11
	JE    pairdone
	MOVQ  R13, R9          // u cursor
	MOVQ  R14, R10         // v cursor
	MOVQ  R12, BX          // columns remaining
	VXORPD Y0, Y0, Y0      // u-dot accumulators, lanes 0..3
	VXORPD Y1, Y1, Y1      // v-dot accumulators, lanes 0..3

pairvec4:
	CMPQ BX, $4
	JLT  pairtailsetup
	VMOVUPD (SI), Y2
	VMOVUPD (R9), Y3
	VMOVUPD (R10), Y4
	VMULPD  Y2, Y3, Y3
	VADDPD  Y3, Y0, Y0
	VMULPD  Y2, Y4, Y4
	VADDPD  Y4, Y1, Y1
	ADDQ    $32, SI
	ADDQ    $32, R9
	ADDQ    $32, R10
	SUBQ    $4, BX
	JMP     pairvec4

pairtailsetup:
	VEXTRACTF128 $1, Y0, X5 // u lanes 2,3
	VEXTRACTF128 $1, Y1, X6 // v lanes 2,3
	// X0 = u lanes 0,1 ; X1 = v lanes 0,1

pairtail:
	TESTQ BX, BX
	JE    paircombine
	VMOVSD (SI), X7
	VMOVSD (R9), X8
	VMULSD X7, X8, X8
	VADDSD X8, X0, X0       // tail folds into lane 0; lane 1 preserved
	VMOVSD (R10), X8
	VMULSD X7, X8, X8
	VADDSD X8, X1, X1
	ADDQ   $8, SI
	ADDQ   $8, R9
	ADDQ   $8, R10
	DECQ   BX
	JMP    pairtail

paircombine:
	// du[r] = ((s0+s1)+s2)+s3
	VSHUFPD $1, X0, X0, X7  // lane 0 := s1
	VADDSD  X7, X0, X0
	VADDSD  X5, X0, X0      // += s2
	VSHUFPD $1, X5, X5, X7  // lane 0 := s3
	VADDSD  X7, X0, X0
	VMOVSD  X0, (R15)
	// dv[r], same combine
	VSHUFPD $1, X1, X1, X7
	VADDSD  X7, X1, X1
	VADDSD  X6, X1, X1
	VSHUFPD $1, X6, X6, X7
	VADDSD  X7, X1, X1
	VMOVSD  X1, (DI)
	ADDQ    $8, R15
	ADDQ    $8, DI
	DECQ    R11
	JMP     pairrow

pairdone:
	VZEROUPPER
	RET

// func dotRowsAVX2(mat *float64, rows, cols int, u, du *float64)
//
// Single-vector variant of dotPairRowsAVX2 with identical summation
// semantics, used for the odd trailing support vector.
TEXT ·dotRowsAVX2(SB), NOSPLIT, $0-40
	MOVQ mat+0(FP), SI
	MOVQ rows+8(FP), R11
	MOVQ cols+16(FP), R12
	MOVQ u+24(FP), R13
	MOVQ du+32(FP), R15

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
