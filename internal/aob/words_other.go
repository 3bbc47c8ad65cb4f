//go:build !amd64

package aob

// The binary logic gates as portable word loops. Each sets
// v[i] = a[i] OP b[i] for i < len(v); the caller passes operands at least
// len(v) long. v may be the same slice as a or b. The operands are
// re-sliced to len(v) up front, which hoists the bounds checks out of the
// four-word body.

func andWords(v, a, b []uint64) {
	a, b = a[:len(v)], b[:len(v)]
	i := 0
	for ; i+4 <= len(v); i += 4 {
		v[i] = a[i] & b[i]
		v[i+1] = a[i+1] & b[i+1]
		v[i+2] = a[i+2] & b[i+2]
		v[i+3] = a[i+3] & b[i+3]
	}
	for ; i < len(v); i++ {
		v[i] = a[i] & b[i]
	}
}

func orWords(v, a, b []uint64) {
	a, b = a[:len(v)], b[:len(v)]
	i := 0
	for ; i+4 <= len(v); i += 4 {
		v[i] = a[i] | b[i]
		v[i+1] = a[i+1] | b[i+1]
		v[i+2] = a[i+2] | b[i+2]
		v[i+3] = a[i+3] | b[i+3]
	}
	for ; i < len(v); i++ {
		v[i] = a[i] | b[i]
	}
}

func xorWords(v, a, b []uint64) {
	a, b = a[:len(v)], b[:len(v)]
	i := 0
	for ; i+4 <= len(v); i += 4 {
		v[i] = a[i] ^ b[i]
		v[i+1] = a[i+1] ^ b[i+1]
		v[i+2] = a[i+2] ^ b[i+2]
		v[i+3] = a[i+3] ^ b[i+3]
	}
	for ; i < len(v); i++ {
		v[i] = a[i] ^ b[i]
	}
}
