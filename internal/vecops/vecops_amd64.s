//go:build amd64 && !purego

#include "textflag.h"

// The packed kernels below intentionally use separate VMULPD/VSUBPD (or
// VADDPD) pairs rather than fused multiply-add: the package's bitwise
// contract is two IEEE roundings per element, exactly like the scalar Go
// loops they replace. Lanes never mix, so SIMD width cannot change results.

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	CPUID
	MOVL CX, BX
	ANDL $(1<<27 | 1<<28), BX    // OSXSAVE | AVX
	CMPL BX, $(1<<27 | 1<<28)
	JNE  no
	MOVL $0, CX
	XGETBV                       // OS must save XMM+YMM state
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func subMulAVX(dst, src *float64, n int, c float64)
TEXT ·subMulAVX(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD c+24(FP), Y0
	MOVQ         CX, DX
	SHRQ         $3, DX
	JZ           blk4

loop8:
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMOVUPD (DI), Y3
	VMOVUPD 32(DI), Y4
	VSUBPD  Y1, Y3, Y3
	VSUBPD  Y2, Y4, Y4
	VMOVUPD Y3, (DI)
	VMOVUPD Y4, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    DX
	JNZ     loop8

blk4:
	TESTQ   $4, CX
	JZ      tail
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD (DI), Y2
	VSUBPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI

tail:
	ANDQ $3, CX
	JZ   done

tail1:
	VMOVSD (SI), X1
	VMULSD X0, X1, X1
	VMOVSD (DI), X2
	VSUBSD X1, X2, X2
	VMOVSD X2, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    tail1

done:
	VZEROUPPER
	RET

// func addMulAVX(dst, src *float64, n int, c float64)
TEXT ·addMulAVX(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD c+24(FP), Y0
	MOVQ         CX, DX
	SHRQ         $3, DX
	JZ           blk4

loop8:
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMOVUPD (DI), Y3
	VMOVUPD 32(DI), Y4
	VADDPD  Y1, Y3, Y3
	VADDPD  Y2, Y4, Y4
	VMOVUPD Y3, (DI)
	VMOVUPD Y4, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    DX
	JNZ     loop8

blk4:
	TESTQ   $4, CX
	JZ      tail
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD (DI), Y2
	VADDPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI

tail:
	ANDQ $3, CX
	JZ   done

tail1:
	VMOVSD (SI), X1
	VMULSD X0, X1, X1
	VMOVSD (DI), X2
	VADDSD X1, X2, X2
	VMOVSD X2, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JNZ    tail1

done:
	VZEROUPPER
	RET

// func subMulRowsAVX(data []float64, w int, rows []int32, coef []float64, src []float64)
//
// One call per sparse-triangular factor column: the outer loop walks the
// column's (row index, coefficient) pairs and the inner loop applies the
// w-wide two-rounding update with the source row resident in registers'
// reach, so per-nonzero overhead is an index load and an IMUL instead of a
// Go-level slice construction plus a call. R14/R15 and X15 are left alone
// (reserved by the Go internal ABI).
TEXT ·subMulRowsAVX(SB), NOSPLIT, $0-104
	MOVQ  data_base+0(FP), R8
	MOVQ  w+24(FP), R12
	MOVQ  rows_base+32(FP), R9
	MOVQ  rows_len+40(FP), R10
	MOVQ  coef_base+56(FP), R11
	MOVQ  src_base+80(FP), SI
	TESTQ R10, R10
	JZ    done
	CMPQ  R12, $32
	JE    w32                      // the batch panel width gets a fully
	                               // unrolled path with src held in registers
	MOVQ  R12, DX
	SHRQ  $3, DX                   // DX = w/8 (unrolled block pairs per row)
	MOVQ  R12, R13
	ANDQ  $3, R13                  // R13 = w%4 (scalar tail per row)

qloop:
	MOVLQSX      (R9), AX          // rows[q] (int32)
	IMULQ        R12, AX
	LEAQ         (R8)(AX*8), DI    // DI = &data[rows[q]*w]
	VBROADCASTSD (R11), Y0
	MOVQ         SI, BX
	MOVQ         DX, CX
	TESTQ        CX, CX
	JZ           blk4q

loop8q:
	VMOVUPD (BX), Y1
	VMOVUPD 32(BX), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMOVUPD (DI), Y3
	VMOVUPD 32(DI), Y4
	VSUBPD  Y1, Y3, Y3
	VSUBPD  Y2, Y4, Y4
	VMOVUPD Y3, (DI)
	VMOVUPD Y4, 32(DI)
	ADDQ    $64, BX
	ADDQ    $64, DI
	DECQ    CX
	JNZ     loop8q

blk4q:
	TESTQ   $4, R12
	JZ      tailq
	VMOVUPD (BX), Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD (DI), Y2
	VSUBPD  Y1, Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, BX
	ADDQ    $32, DI

tailq:
	MOVQ  R13, CX
	TESTQ CX, CX
	JZ    nextq

tail1q:
	VMOVSD (BX), X1
	VMULSD X0, X1, X1
	VMOVSD (DI), X2
	VSUBSD X1, X2, X2
	VMOVSD X2, (DI)
	ADDQ   $8, BX
	ADDQ   $8, DI
	DECQ   CX
	JNZ    tail1q

nextq:
	ADDQ $4, R9
	ADDQ $8, R11
	DECQ R10
	JNZ  qloop
	JMP  done

	// w == 32: the whole source row lives in Y5–Y12 across the row loop, so
	// each row costs one broadcast plus eight load/mul/sub/store groups and
	// no inner-loop bookkeeping. Same two-rounding operand order as above.
w32:
	VMOVUPD (SI), Y5
	VMOVUPD 32(SI), Y6
	VMOVUPD 64(SI), Y7
	VMOVUPD 96(SI), Y8
	VMOVUPD 128(SI), Y9
	VMOVUPD 160(SI), Y10
	VMOVUPD 192(SI), Y11
	VMOVUPD 224(SI), Y12

q32:
	MOVLQSX      (R9), AX          // rows[q] (int32)
	SHLQ         $5, AX            // rows[q] * 32
	LEAQ         (R8)(AX*8), DI
	VBROADCASTSD (R11), Y0
	VMULPD       Y0, Y5, Y1
	VMOVUPD      (DI), Y2
	VSUBPD       Y1, Y2, Y2
	VMOVUPD      Y2, (DI)
	VMULPD       Y0, Y6, Y1
	VMOVUPD      32(DI), Y2
	VSUBPD       Y1, Y2, Y2
	VMOVUPD      Y2, 32(DI)
	VMULPD       Y0, Y7, Y1
	VMOVUPD      64(DI), Y2
	VSUBPD       Y1, Y2, Y2
	VMOVUPD      Y2, 64(DI)
	VMULPD       Y0, Y8, Y1
	VMOVUPD      96(DI), Y2
	VSUBPD       Y1, Y2, Y2
	VMOVUPD      Y2, 96(DI)
	VMULPD       Y0, Y9, Y1
	VMOVUPD      128(DI), Y2
	VSUBPD       Y1, Y2, Y2
	VMOVUPD      Y2, 128(DI)
	VMULPD       Y0, Y10, Y1
	VMOVUPD      160(DI), Y2
	VSUBPD       Y1, Y2, Y2
	VMOVUPD      Y2, 160(DI)
	VMULPD       Y0, Y11, Y1
	VMOVUPD      192(DI), Y2
	VSUBPD       Y1, Y2, Y2
	VMOVUPD      Y2, 192(DI)
	VMULPD       Y0, Y12, Y1
	VMOVUPD      224(DI), Y2
	VSUBPD       Y1, Y2, Y2
	VMOVUPD      Y2, 224(DI)
	ADDQ         $4, R9
	ADDQ         $8, R11
	DECQ         R10
	JNZ          q32

done:
	VZEROUPPER
	RET

// func divAVX(dst *float64, n int, c float64)
TEXT ·divAVX(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSD c+16(FP), Y0
	MOVQ         CX, DX
	SHRQ         $2, DX
	JZ           tail

loop4:
	VMOVUPD (DI), Y1
	VDIVPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, DI
	DECQ    DX
	JNZ     loop4

tail:
	ANDQ $3, CX
	JZ   done

tail1:
	VMOVSD (DI), X1
	VDIVSD X0, X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, DI
	DECQ   CX
	JNZ    tail1

done:
	VZEROUPPER
	RET
