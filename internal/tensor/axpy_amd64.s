#include "textflag.h"

// Both routines multiply with VMULPS and add with VADDPS — never FMA — so
// each element is rounded twice, exactly as in axpyGo/mulAddGo, and the
// result is bit-identical to the Go loops. The product is always the first
// source of the add, in the vector body and the scalar tail alike.

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

// func mulAddAVX2(x, k, y []float32)
// y[i] += x[i]*k[i] for i < len(y); the caller guarantees len(x), len(k) >= len(y).
TEXT ·mulAddAVX2(SB), NOSPLIT, $0-72
	MOVQ x_base+0(FP), SI
	MOVQ k_base+24(FP), DX
	MOVQ y_base+48(FP), DI
	MOVQ y_len+56(FP), CX

mulAdd32:
	CMPQ    CX, $32
	JLT     mulAdd8
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMOVUPS 64(SI), Y3
	VMOVUPS 96(SI), Y4
	VMULPS  (DX), Y1, Y1
	VMULPS  32(DX), Y2, Y2
	VMULPS  64(DX), Y3, Y3
	VMULPS  96(DX), Y4, Y4
	VADDPS  (DI), Y1, Y1
	VADDPS  32(DI), Y2, Y2
	VADDPS  64(DI), Y3, Y3
	VADDPS  96(DI), Y4, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DX
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     mulAdd32

mulAdd8:
	CMPQ    CX, $8
	JLT     mulAdd1
	VMOVUPS (SI), Y1
	VMULPS  (DX), Y1, Y1
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     mulAdd8

mulAdd1:
	TESTQ  CX, CX
	JEQ    mulAddDone
	VMOVSS (SI), X1
	VMULSS (DX), X1, X1
	VADDSS (DI), X1, X1
	VMOVSS X1, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DX
	ADDQ   $4, DI
	DECQ   CX
	JMP    mulAdd1

mulAddDone:
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
