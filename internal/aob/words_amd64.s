#include "textflag.h"

// SSE2 word kernels for the binary logic gates: v[i] = a[i] OP b[i] for
// i < len(v). The caller guarantees len(a) and len(b) are at least len(v).
//
// The body moves 8 words (64 bytes) per iteration through four XMM pairs,
// then finishes the 0..7 remaining words one at a time. Every block reads
// all of its a and b words before it writes any v word, so v may be the
// same slice as a or b ("and @a,@a,@b").
//
// Register use: DI = v, SI = a, DX = b, CX = words left, BX = blocks left.
#define WORDS(VOP, SOP) \
	MOVQ  CX, BX \
	SHRQ  $3, BX \
	JZ    tail \
block: \
	MOVOU 0(SI), X0 \
	MOVOU 16(SI), X1 \
	MOVOU 32(SI), X2 \
	MOVOU 48(SI), X3 \
	MOVOU 0(DX), X4 \
	MOVOU 16(DX), X5 \
	MOVOU 32(DX), X6 \
	MOVOU 48(DX), X7 \
	VOP   X4, X0 \
	VOP   X5, X1 \
	VOP   X6, X2 \
	VOP   X7, X3 \
	MOVOU X0, 0(DI) \
	MOVOU X1, 16(DI) \
	MOVOU X2, 32(DI) \
	MOVOU X3, 48(DI) \
	ADDQ  $64, SI \
	ADDQ  $64, DX \
	ADDQ  $64, DI \
	DECQ  BX \
	JNZ   block \
tail: \
	ANDQ  $7, CX \
	JZ    done \
word: \
	MOVQ  0(SI), AX \
	SOP   0(DX), AX \
	MOVQ  AX, 0(DI) \
	ADDQ  $8, SI \
	ADDQ  $8, DX \
	ADDQ  $8, DI \
	DECQ  CX \
	JNZ   word \
done: \
	RET

// func andWords(v, a, b []uint64)
TEXT ·andWords(SB), NOSPLIT, $0-72
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	WORDS(PAND, ANDQ)

// func orWords(v, a, b []uint64)
TEXT ·orWords(SB), NOSPLIT, $0-72
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	WORDS(POR, ORQ)

// func xorWords(v, a, b []uint64)
TEXT ·xorWords(SB), NOSPLIT, $0-72
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	WORDS(PXOR, XORQ)
