package aob

import (
	"math/rand"
	"testing"
)

// TestWordKernelsAllWidths checks And, Or, Xor and CNot against the
// per-word Go expression at every width, so each kernel path is covered:
// the one-word vectors up to 6 ways, the 2- and 4-word scalar tails at 7
// and 8 ways, and the whole 8-word blocks from 9 ways up. Every aliasing
// form a Qat program can write ("and @a,@a,@b", "and @b,@a,@b",
// "and @c,@a,@a", "and @a,@a,@a", "cnot @a,@a") is run too.
func TestWordKernelsAllWidths(t *testing.T) {
	ops := []struct {
		name string
		gate func(v, a, b *Vector)
		word func(a, b uint64) uint64
	}{
		{"and", (*Vector).And, func(a, b uint64) uint64 { return a & b }},
		{"or", (*Vector).Or, func(a, b uint64) uint64 { return a | b }},
		{"xor", (*Vector).Xor, func(a, b uint64) uint64 { return a ^ b }},
	}
	r := rand.New(rand.NewSource(25))
	for ways := 0; ways <= MaxWays; ways++ {
		a, b := randVector(r, ways), randVector(r, ways)
		for _, op := range ops {
			want := func(x, y *Vector) *Vector {
				w := New(ways)
				for i := range w.words {
					w.words[i] = op.word(x.words[i], y.words[i])
				}
				return w
			}
			check := func(form string, got, want *Vector) {
				t.Helper()
				if !got.Equal(want) {
					t.Errorf("%s %d ways, %s: got %v, want %v", op.name, ways, form, got.words, want.words)
				}
			}

			v := randVector(r, ways)
			op.gate(v, a, b)
			check("v, a, b distinct", v, want(a, b))

			v = a.Clone()
			op.gate(v, v, b)
			check("v==a", v, want(a, b))

			v = b.Clone()
			op.gate(v, a, v)
			check("v==b", v, want(a, b))

			v = randVector(r, ways)
			op.gate(v, a, a)
			check("a==b", v, want(a, a))

			v = a.Clone()
			op.gate(v, v, v)
			check("v==a==b", v, want(a, a))
		}

		v := a.Clone()
		v.CNot(b)
		for i := range v.words {
			if v.words[i] != a.words[i]^b.words[i] {
				t.Fatalf("cnot %d ways: word %d is %#x, want %#x", ways, i, v.words[i], a.words[i]^b.words[i])
			}
		}
		v.CNot(v)
		if !v.Equal(New(ways)) {
			t.Errorf("cnot @a,@a %d ways: got %v, want zero", ways, v.words)
		}
	}
}

// TestWordKernelsShortOperandPanics: a malformed operand shorter than the
// destination must panic in Go before any kernel reads past its end.
func TestWordKernelsShortOperandPanics(t *testing.T) {
	for _, gate := range []func(v, a, b *Vector){(*Vector).And, (*Vector).Or, (*Vector).Xor} {
		v, a := New(10), New(10)
		short := &Vector{ways: 10, words: make([]uint64, 3)}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("short operand did not panic")
				}
			}()
			gate(v, a, short)
		}()
	}
}
