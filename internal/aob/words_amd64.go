package aob

// The binary logic gates run as SSE2 kernels (words_amd64.s), 128 bits per
// instruction. SSE2 is part of the amd64 baseline, so no CPU check guards
// them. Each sets v[i] = a[i] OP b[i] for i < len(v); the caller passes
// operands at least len(v) long. v may be the same slice as a or b.

//go:noescape
func andWords(v, a, b []uint64)

//go:noescape
func orWords(v, a, b []uint64)

//go:noescape
func xorWords(v, a, b []uint64)
