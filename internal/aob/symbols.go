package aob

import "math/bits"

// Hash constants from xxHash64: odd multipliers with good bit dispersion.
const (
	hashPrime1 = 0x9E3779B185EBCA87
	hashPrime2 = 0xC2B2AE3D27D4EB4F
	hashPrime3 = 0x165667B19E3779F9
)

func hashRound(acc, w uint64) uint64 {
	return bits.RotateLeft64(acc+w*hashPrime2, 31) * hashPrime1
}

// Hash returns a 64-bit hash of v's ways and words. Equal vectors hash
// equal; unequal vectors may collide, so a hash match is only a hint.
func (v *Vector) Hash() uint64 {
	w := v.words
	// Four independent lanes keep the multiplier pipeline busy on the
	// 1024-word vectors of a 16-way chunk.
	a, b, c, d := hashPrime1+uint64(v.ways), uint64(hashPrime2), uint64(0), uint64(hashPrime3)
	i := 0
	for ; i+4 <= len(w); i += 4 {
		a = hashRound(a, w[i])
		b = hashRound(b, w[i+1])
		c = hashRound(c, w[i+2])
		d = hashRound(d, w[i+3])
	}
	h := bits.RotateLeft64(a, 1) + bits.RotateLeft64(b, 7) + bits.RotateLeft64(c, 12) + bits.RotateLeft64(d, 18)
	for ; i < len(w); i++ {
		h = hashRound(h, w[i])
	}
	h ^= h >> 33
	h *= hashPrime2
	h ^= h >> 29
	h *= hashPrime3
	return h ^ h>>32
}

// SymbolTable hash-conses vectors: it keeps one canonical *Vector per
// distinct content. It is indexed by Hash; on a hash match the full vectors
// are compared with Equal, and vectors whose hashes collide are chained, so
// a weak hash can cost time but never give a wrong answer. Each entry costs
// the vector itself plus one map slot. The zero value is an empty table. A
// SymbolTable is not safe for concurrent use, and a vector must not be
// mutated once the table holds it.
type SymbolTable struct {
	first map[uint64]*Vector   // the first vector stored under each hash
	more  map[uint64][]*Vector // later vectors whose hash collided with it
	n     int
}

// Len returns the number of vectors stored.
func (t *SymbolTable) Len() int { return t.n }

// Lookup returns the stored vector equal to v, or nil if there is none. h
// must be v.Hash().
func (t *SymbolTable) Lookup(h uint64, v *Vector) *Vector {
	f, ok := t.first[h]
	if !ok {
		return nil
	}
	if f == v || f.Equal(v) {
		return f
	}
	for _, o := range t.more[h] {
		if o.Equal(v) {
			return o
		}
	}
	return nil
}

// Insert stores v under h, which must be v.Hash(). v must not already be
// in the table (Lookup returned nil).
func (t *SymbolTable) Insert(h uint64, v *Vector) {
	if _, ok := t.first[h]; !ok {
		if t.first == nil {
			t.first = make(map[uint64]*Vector)
		}
		t.first[h] = v
	} else {
		if t.more == nil {
			t.more = make(map[uint64][]*Vector)
		}
		t.more[h] = append(t.more[h], v)
	}
	t.n++
}

// Intern returns the stored vector equal to v, storing v itself if there
// is none.
func (t *SymbolTable) Intern(v *Vector) *Vector {
	h := v.Hash()
	if got := t.Lookup(h, v); got != nil {
		return got
	}
	t.Insert(h, v)
	return v
}
