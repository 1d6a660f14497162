#include "textflag.h"

// The multiply-accumulate routines multiply with VMULPS and add with
// VADDPS — never FMA — so each element is rounded twice, exactly as in
// their Go definitions (axpy.go), and the result is bit-identical to the
// Go loops. The product is always the first source of the add, in the
// vector body and the scalar tail alike.

// func axpyAVX2(a float32, x, y []float32)
// y[i] += a*x[i] for i < len(y); the caller guarantees len(x) >= len(y).
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSS a+0(FP), Y0
	MOVQ         x_base+8(FP), SI
	MOVQ         y_base+32(FP), DI
	MOVQ         y_len+40(FP), CX

axpy32:
	CMPQ    CX, $32
	JLT     axpy8
	VMULPS  (SI), Y0, Y1
	VMULPS  32(SI), Y0, Y2
	VMULPS  64(SI), Y0, Y3
	VMULPS  96(SI), Y0, Y4
	VADDPS  (DI), Y1, Y1
	VADDPS  32(DI), Y2, Y2
	VADDPS  64(DI), Y3, Y3
	VADDPS  96(DI), Y4, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     axpy32

axpy8:
	CMPQ    CX, $8
	JLT     axpy1
	VMULPS  (SI), Y0, Y1
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     axpy8

axpy1:
	TESTQ  CX, CX
	JEQ    axpyDone
	VMULSS (SI), X0, X1
	VADDSS (DI), X1, X1
	VMOVSS X1, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JMP    axpy1

axpyDone:
	VZEROUPPER
	RET

// func convListAVX2(list []term, k, dst []float32)
// dst[co] += t.val*k[t.off+co] for co < len(dst), for each term t of list
// in order; the caller guarantees t.off+len(dst) <= len(k) for every t.
// A term is 8 bytes: the int32 offset, then the float32 value.
//
// A tile of dst stays in registers while the whole list is walked: 64
// floats in Y0-Y7, then at most one 32-wide tile, 8-wide tiles and single
// floats. Per term the value is broadcast into Y8, multiplied by the
// kernel row's slice of the tile into Y9, and Y9 is the first source of
// the add, as in axpyAVX2. The only branches count terms and columns.
TEXT ·convListAVX2(SB), NOSPLIT, $0-72
	MOVQ list_base+0(FP), R8
	MOVQ list_len+8(FP), R9
	MOVQ k_base+24(FP), R11
	MOVQ dst_base+48(FP), DI
	MOVQ dst_len+56(FP), CX
	LEAQ (R8)(R9*8), R10    // end of list

list64:
	CMPQ    CX, $64
	JLT     list32
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMOVUPS 224(DI), Y7
	MOVQ    R8, SI
	CMPQ    SI, R10
	JEQ     store64

term64:
	MOVLQSX      (SI), AX
	VBROADCASTSS 4(SI), Y8
	LEAQ         (R11)(AX*4), BX
	VMULPS       (BX), Y8, Y9
	VADDPS       Y0, Y9, Y0
	VMULPS       32(BX), Y8, Y9
	VADDPS       Y1, Y9, Y1
	VMULPS       64(BX), Y8, Y9
	VADDPS       Y2, Y9, Y2
	VMULPS       96(BX), Y8, Y9
	VADDPS       Y3, Y9, Y3
	VMULPS       128(BX), Y8, Y9
	VADDPS       Y4, Y9, Y4
	VMULPS       160(BX), Y8, Y9
	VADDPS       Y5, Y9, Y5
	VMULPS       192(BX), Y8, Y9
	VADDPS       Y6, Y9, Y6
	VMULPS       224(BX), Y8, Y9
	VADDPS       Y7, Y9, Y7
	ADDQ         $8, SI
	CMPQ         SI, R10
	JNE          term64

store64:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, R11
	SUBQ    $64, CX
	JMP     list64

list32:
	CMPQ    CX, $32
	JLT     list8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	MOVQ    R8, SI
	CMPQ    SI, R10
	JEQ     store32

term32:
	MOVLQSX      (SI), AX
	VBROADCASTSS 4(SI), Y8
	LEAQ         (R11)(AX*4), BX
	VMULPS       (BX), Y8, Y9
	VADDPS       Y0, Y9, Y0
	VMULPS       32(BX), Y8, Y9
	VADDPS       Y1, Y9, Y1
	VMULPS       64(BX), Y8, Y9
	VADDPS       Y2, Y9, Y2
	VMULPS       96(BX), Y8, Y9
	VADDPS       Y3, Y9, Y3
	ADDQ         $8, SI
	CMPQ         SI, R10
	JNE          term32

store32:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, R11
	SUBQ    $32, CX

list8:
	CMPQ    CX, $8
	JLT     list1
	VMOVUPS (DI), Y0
	MOVQ    R8, SI
	CMPQ    SI, R10
	JEQ     store8

term8:
	MOVLQSX      (SI), AX
	VBROADCASTSS 4(SI), Y8
	VMULPS       (R11)(AX*4), Y8, Y9
	VADDPS       Y0, Y9, Y0
	ADDQ         $8, SI
	CMPQ         SI, R10
	JNE          term8

store8:
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, R11
	SUBQ    $8, CX
	JMP     list8

list1:
	TESTQ  CX, CX
	JEQ    listDone
	VMOVSS (DI), X0
	MOVQ   R8, SI
	CMPQ   SI, R10
	JEQ    store1

term1:
	MOVLQSX (SI), AX
	VMOVSS  4(SI), X8
	VMULSS  (R11)(AX*4), X8, X9
	VADDSS  X0, X9, X0
	ADDQ    $8, SI
	CMPQ    SI, R10
	JNE     term1

store1:
	VMOVSS X0, (DI)
	ADDQ   $4, DI
	ADDQ   $4, R11
	DECQ   CX
	JMP    list1

listDone:
	VZEROUPPER
	RET

// func reluAVX2(out, in []float32)
// out[i] = in[i] > 0 ? in[i] : +0 for i < len(in); the caller guarantees
// len(out) >= len(in). MAXPS returns its first source only when that is
// the greater, so with v first and +0 second it is +0 for negatives, -0
// and NaN, exactly as reluGo.
TEXT ·reluAVX2(SB), NOSPLIT, $0-48
	MOVQ   out_base+0(FP), DI
	MOVQ   in_base+24(FP), SI
	MOVQ   in_len+32(FP), CX
	VXORPS Y0, Y0, Y0

relu32:
	CMPQ    CX, $32
	JLT     relu8
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMOVUPS 64(SI), Y3
	VMOVUPS 96(SI), Y4
	VMAXPS  Y0, Y1, Y1
	VMAXPS  Y0, Y2, Y2
	VMAXPS  Y0, Y3, Y3
	VMAXPS  Y0, Y4, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     relu32

relu8:
	CMPQ    CX, $8
	JLT     relu1
	VMOVUPS (SI), Y1
	VMAXPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     relu8

relu1:
	TESTQ  CX, CX
	JEQ    reluDone
	VMOVSS (SI), X1
	VMAXSS X0, X1, X1
	VMOVSS X1, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JMP    relu1

reluDone:
	VZEROUPPER
	RET

DATA six<>+0(SB)/4, $0x40c00000
GLOBL six<>(SB), RODATA|NOPTR, $4

// func relu6AVX2(out, in []float32)
// out[i] = min(6, max(0, in[i])) for i < len(in); the caller guarantees
// len(out) >= len(in). The bounds are the first sources, so MAXPS yields 0
// only below 0 and MINPS 6 only above 6, and NaN and -0 pass through, as
// in relu6Go.
TEXT ·relu6AVX2(SB), NOSPLIT, $0-48
	MOVQ         out_base+0(FP), DI
	MOVQ         in_base+24(FP), SI
	MOVQ         in_len+32(FP), CX
	VXORPS       Y0, Y0, Y0
	VBROADCASTSS six<>(SB), Y5

relu6_32:
	CMPQ    CX, $32
	JLT     relu6_8
	VMAXPS  (SI), Y0, Y1
	VMAXPS  32(SI), Y0, Y2
	VMAXPS  64(SI), Y0, Y3
	VMAXPS  96(SI), Y0, Y4
	VMINPS  Y1, Y5, Y1
	VMINPS  Y2, Y5, Y2
	VMINPS  Y3, Y5, Y3
	VMINPS  Y4, Y5, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     relu6_32

relu6_8:
	CMPQ    CX, $8
	JLT     relu6_1
	VMAXPS  (SI), Y0, Y1
	VMINPS  Y1, Y5, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     relu6_8

relu6_1:
	TESTQ  CX, CX
	JEQ    relu6Done
	VMAXSS (SI), X0, X1
	VMINSS X1, X5, X1
	VMOVSS X1, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JMP    relu6_1

relu6Done:
	VZEROUPPER
	RET

// func scaleShiftAVX2(out, x, s, b []float32)
// out[i] = x[i]*s[i] + b[i] for i < len(x); the caller guarantees len(out),
// len(s), len(b) >= len(x). The product is rounded by VMULPS and is the
// first source of VADDPS, as in axpyAVX2. out may be x: each step loads
// before it stores.
TEXT ·scaleShiftAVX2(SB), NOSPLIT, $0-96
	MOVQ out_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	MOVQ s_base+48(FP), DX
	MOVQ b_base+72(FP), BX

scaleShift32:
	CMPQ    CX, $32
	JLT     scaleShift8
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMOVUPS 64(SI), Y3
	VMOVUPS 96(SI), Y4
	VMULPS  (DX), Y1, Y1
	VMULPS  32(DX), Y2, Y2
	VMULPS  64(DX), Y3, Y3
	VMULPS  96(DX), Y4, Y4
	VADDPS  (BX), Y1, Y1
	VADDPS  32(BX), Y2, Y2
	VADDPS  64(BX), Y3, Y3
	VADDPS  96(BX), Y4, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DX
	ADDQ    $128, BX
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     scaleShift32

scaleShift8:
	CMPQ    CX, $8
	JLT     scaleShift1
	VMOVUPS (SI), Y1
	VMULPS  (DX), Y1, Y1
	VADDPS  (BX), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, BX
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     scaleShift8

scaleShift1:
	TESTQ  CX, CX
	JEQ    scaleShiftDone
	VMOVSS (SI), X1
	VMULSS (DX), X1, X1
	VADDSS (BX), X1, X1
	VMOVSS X1, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DX
	ADDQ   $4, BX
	ADDQ   $4, DI
	DECQ   CX
	JMP    scaleShift1

scaleShiftDone:
	VZEROUPPER
	RET

// func scaleAVX2(a float32, y []float32)
// y[i] *= a for i < len(y), with y[i] the first source as in scaleGo.
TEXT ·scaleAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSS a+0(FP), Y0
	MOVQ         y_base+8(FP), DI
	MOVQ         y_len+16(FP), CX

scale32:
	CMPQ    CX, $32
	JLT     scale8
	VMOVUPS (DI), Y1
	VMOVUPS 32(DI), Y2
	VMOVUPS 64(DI), Y3
	VMOVUPS 96(DI), Y4
	VMULPS  Y0, Y1, Y1
	VMULPS  Y0, Y2, Y2
	VMULPS  Y0, Y3, Y3
	VMULPS  Y0, Y4, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     scale32

scale8:
	CMPQ    CX, $8
	JLT     scale1
	VMOVUPS (DI), Y1
	VMULPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     scale8

scale1:
	TESTQ  CX, CX
	JEQ    scaleDone
	VMOVSS (DI), X1
	VMULSS X0, X1, X1
	VMOVSS X1, (DI)
	ADDQ   $4, DI
	DECQ   CX
	JMP    scale1

scaleDone:
	VZEROUPPER
	RET

// func addVecAVX2(out, x, y []float32)
// out[i] = x[i] + y[i] for i < len(x), x the first source; the caller
// guarantees len(out), len(y) >= len(x). out may be x or y: each step
// loads before it stores.
TEXT ·addVecAVX2(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	MOVQ y_base+48(FP), DX

addVec32:
	CMPQ    CX, $32
	JLT     addVec8
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMOVUPS 64(SI), Y3
	VMOVUPS 96(SI), Y4
	VADDPS  (DX), Y1, Y1
	VADDPS  32(DX), Y2, Y2
	VADDPS  64(DX), Y3, Y3
	VADDPS  96(DX), Y4, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DX
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     addVec32

addVec8:
	CMPQ    CX, $8
	JLT     addVec1
	VMOVUPS (SI), Y1
	VADDPS  (DX), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     addVec8

addVec1:
	TESTQ  CX, CX
	JEQ    addVecDone
	VMOVSS (SI), X1
	VADDSS (DX), X1, X1
	VMOVSS X1, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DX
	ADDQ   $4, DI
	DECQ   CX
	JMP    addVec1

addVecDone:
	VZEROUPPER
	RET

// func maxIntoAVX2(x, y []float32)
// y[i] = x[i] > y[i] ? x[i] : y[i] for i < len(y); the caller guarantees
// len(x) >= len(y). MAXPS returns its first source only when that is the
// greater, so with x first and y second a NaN in x, or a ±0 tie, keeps
// y[i], exactly as maxIntoGo; a NaN already in y stays.
TEXT ·maxIntoAVX2(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), SI
	MOVQ y_base+24(FP), DI
	MOVQ y_len+32(FP), CX

max32:
	CMPQ    CX, $32
	JLT     max8
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMOVUPS 64(SI), Y3
	VMOVUPS 96(SI), Y4
	VMAXPS  (DI), Y1, Y1
	VMAXPS  32(DI), Y2, Y2
	VMAXPS  64(DI), Y3, Y3
	VMAXPS  96(DI), Y4, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     max32

max8:
	CMPQ    CX, $8
	JLT     max1
	VMOVUPS (SI), Y1
	VMAXPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     max8

max1:
	TESTQ  CX, CX
	JEQ    maxDone
	VMOVSS (SI), X1
	VMAXSS (DI), X1, X1
	VMOVSS X1, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JMP    max1

maxDone:
	VZEROUPPER
	RET

// func depthwiseTapsAVX2(taps []tap, in, k, dst []float32)
// dst[c] += in[t.in+c]*k[t.k+c] for c < len(dst), for each tap t in
// order; the caller guarantees t.in+len(dst) <= len(in) and
// t.k+len(dst) <= len(k) for every t. A tap is 8 bytes: the int32 input
// offset, then the int32 kernel offset.
//
// The tile structure is convListAVX2's: 64 channels of dst in Y0-Y7
// while every tap is walked, then at most one 32-wide tile, 8-wide tiles
// and single floats. Per tap and 8 channels the input is loaded, VMULPS
// multiplies it by the kernel row (input first, as in mulAddGo), and the
// product is the first source of the add.
TEXT ·depthwiseTapsAVX2(SB), NOSPLIT, $0-96
	MOVQ taps_base+0(FP), R8
	MOVQ taps_len+8(FP), R9
	MOVQ in_base+24(FP), R12
	MOVQ k_base+48(FP), R11
	MOVQ dst_base+72(FP), DI
	MOVQ dst_len+80(FP), CX
	LEAQ (R8)(R9*8), R10    // end of taps

dw64:
	CMPQ    CX, $64
	JLT     dw32
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMOVUPS 224(DI), Y7
	MOVQ    R8, SI
	CMPQ    SI, R10
	JEQ     dwStore64

dwTap64:
	MOVLQSX (SI), AX
	MOVLQSX 4(SI), BX
	LEAQ    (R12)(AX*4), AX
	LEAQ    (R11)(BX*4), BX
	VMOVUPS (AX), Y8
	VMOVUPS 32(AX), Y9
	VMOVUPS 64(AX), Y10
	VMOVUPS 96(AX), Y11
	VMOVUPS 128(AX), Y12
	VMOVUPS 160(AX), Y13
	VMOVUPS 192(AX), Y14
	VMOVUPS 224(AX), Y15
	VMULPS  (BX), Y8, Y8
	VMULPS  32(BX), Y9, Y9
	VMULPS  64(BX), Y10, Y10
	VMULPS  96(BX), Y11, Y11
	VMULPS  128(BX), Y12, Y12
	VMULPS  160(BX), Y13, Y13
	VMULPS  192(BX), Y14, Y14
	VMULPS  224(BX), Y15, Y15
	VADDPS  Y0, Y8, Y0
	VADDPS  Y1, Y9, Y1
	VADDPS  Y2, Y10, Y2
	VADDPS  Y3, Y11, Y3
	VADDPS  Y4, Y12, Y4
	VADDPS  Y5, Y13, Y5
	VADDPS  Y6, Y14, Y6
	VADDPS  Y7, Y15, Y7
	ADDQ    $8, SI
	CMPQ    SI, R10
	JNE     dwTap64

dwStore64:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, R12
	ADDQ    $256, R11
	SUBQ    $64, CX
	JMP     dw64

dw32:
	CMPQ    CX, $32
	JLT     dw8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	MOVQ    R8, SI
	CMPQ    SI, R10
	JEQ     dwStore32

dwTap32:
	MOVLQSX (SI), AX
	MOVLQSX 4(SI), BX
	LEAQ    (R12)(AX*4), AX
	LEAQ    (R11)(BX*4), BX
	VMOVUPS (AX), Y8
	VMOVUPS 32(AX), Y9
	VMOVUPS 64(AX), Y10
	VMOVUPS 96(AX), Y11
	VMULPS  (BX), Y8, Y8
	VMULPS  32(BX), Y9, Y9
	VMULPS  64(BX), Y10, Y10
	VMULPS  96(BX), Y11, Y11
	VADDPS  Y0, Y8, Y0
	VADDPS  Y1, Y9, Y1
	VADDPS  Y2, Y10, Y2
	VADDPS  Y3, Y11, Y3
	ADDQ    $8, SI
	CMPQ    SI, R10
	JNE     dwTap32

dwStore32:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, R12
	ADDQ    $128, R11
	SUBQ    $32, CX

dw8:
	CMPQ    CX, $8
	JLT     dw1
	VMOVUPS (DI), Y0
	MOVQ    R8, SI
	CMPQ    SI, R10
	JEQ     dwStore8

dwTap8:
	MOVLQSX (SI), AX
	MOVLQSX 4(SI), BX
	VMOVUPS (R12)(AX*4), Y8
	VMULPS  (R11)(BX*4), Y8, Y8
	VADDPS  Y0, Y8, Y0
	ADDQ    $8, SI
	CMPQ    SI, R10
	JNE     dwTap8

dwStore8:
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, R12
	ADDQ    $32, R11
	SUBQ    $8, CX
	JMP     dw8

dw1:
	TESTQ  CX, CX
	JEQ    dwDone
	VMOVSS (DI), X0
	MOVQ   R8, SI
	CMPQ   SI, R10
	JEQ    dwStore1

dwTap1:
	MOVLQSX (SI), AX
	MOVLQSX 4(SI), BX
	VMOVSS  (R12)(AX*4), X8
	VMULSS  (R11)(BX*4), X8, X8
	VADDSS  X0, X8, X0
	ADDQ    $8, SI
	CMPQ    SI, R10
	JNE     dwTap1

dwStore1:
	VMOVSS X0, (DI)
	ADDQ   $4, DI
	ADDQ   $4, R12
	ADDQ   $4, R11
	DECQ   CX
	JMP    dw1

dwDone:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
// Low half of XCR0; only called once CPUID reports OSXSAVE.
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
