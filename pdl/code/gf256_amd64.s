#include "textflag.h"

// func mulAddAVX2(tab *[32]byte, dst, src *byte, n int)
//
// Split-nibble GF(2^8) multiply-accumulate: the coefficient's low- and
// high-nibble product tables sit in both 128-bit lanes of Y14/Y15, each
// source byte is split into its nibbles, VPSHUFB looks both up, and the
// XOR of the two lookups is folded into dst. 64 bytes per iteration
// while they last, then at most one 32-byte block.
TEXT ·mulAddAVX2(SB), NOSPLIT, $0-32
	MOVQ tab+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), CX

	VBROADCASTI128 (AX), Y14   // low-nibble products
	VBROADCASTI128 16(AX), Y15 // high-nibble products
	MOVQ           $0x0f, AX
	MOVQ           AX, X13
	VPBROADCASTB   X13, Y13    // nibble mask

	CMPQ CX, $64
	JB   tail32

loop64:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y2
	VPSRLQ  $4, Y0, Y1
	VPSRLQ  $4, Y2, Y3
	VPAND   Y13, Y0, Y0
	VPAND   Y13, Y1, Y1
	VPAND   Y13, Y2, Y2
	VPAND   Y13, Y3, Y3
	VPSHUFB Y0, Y14, Y0
	VPSHUFB Y1, Y15, Y1
	VPSHUFB Y2, Y14, Y2
	VPSHUFB Y3, Y15, Y3
	VPXOR   Y0, Y1, Y0
	VPXOR   Y2, Y3, Y2
	VPXOR   (DI), Y0, Y0
	VPXOR   32(DI), Y2, Y2
	VMOVDQU Y0, (DI)
	VMOVDQU Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $64, CX
	CMPQ    CX, $64
	JAE     loop64

tail32:
	TESTQ CX, CX
	JZ    done
	VMOVDQU (SI), Y0
	VPSRLQ  $4, Y0, Y1
	VPAND   Y13, Y0, Y0
	VPAND   Y13, Y1, Y1
	VPSHUFB Y0, Y14, Y0
	VPSHUFB Y1, Y15, Y1
	VPXOR   Y0, Y1, Y0
	VPXOR   (DI), Y0, Y0
	VMOVDQU Y0, (DI)

done:
	VZEROUPPER
	RET

// func mulAddGFNI(mat uint64, dst, src *byte, n int)
//
// GF(2^8) multiply-accumulate by one affine transform: the coefficient's
// 8x8 bit matrix sits in every qword of Y15, VGF2P8AFFINEQB multiplies
// each source byte by it, and the product is folded into dst. 64 bytes
// per iteration while they last, then at most one 32-byte block.
TEXT ·mulAddGFNI(SB), NOSPLIT, $0-32
	VPBROADCASTQ mat+0(FP), Y15
	MOVQ         dst+8(FP), DI
	MOVQ         src+16(FP), SI
	MOVQ         n+24(FP), CX

	CMPQ CX, $64
	JB   gfniTail32

gfniLoop64:
	VMOVDQU        (SI), Y0
	VMOVDQU        32(SI), Y1
	VGF2P8AFFINEQB $0, Y15, Y0, Y0
	VGF2P8AFFINEQB $0, Y15, Y1, Y1
	VPXOR          (DI), Y0, Y0
	VPXOR          32(DI), Y1, Y1
	VMOVDQU        Y0, (DI)
	VMOVDQU        Y1, 32(DI)
	ADDQ           $64, SI
	ADDQ           $64, DI
	SUBQ           $64, CX
	CMPQ           CX, $64
	JAE            gfniLoop64

gfniTail32:
	TESTQ          CX, CX
	JZ             gfniDone
	VMOVDQU        (SI), Y0
	VGF2P8AFFINEQB $0, Y15, Y0, Y0
	VPXOR          (DI), Y0, Y0
	VMOVDQU        Y0, (DI)

gfniDone:
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

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
