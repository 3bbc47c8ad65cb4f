package re

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// genPattern composes Hadamards into a pseudo-random compressed pattern.
// Channel sets stay high (>= chunkWays) so run counts stay small.
func genPattern(s *Space, seed uint64) *Pattern {
	r := rand.New(rand.NewSource(int64(seed)))
	pick := func() int { return s.ChunkWays() + r.Intn(s.Ways()-s.ChunkWays()) }
	p := s.Had(pick())
	for i := 0; i < 2+r.Intn(3); i++ {
		q := s.Had(pick())
		switch r.Intn(3) {
		case 0:
			p = p.And(q)
		case 1:
			p = p.Or(q)
		default:
			p = p.Xor(q)
		}
	}
	return p
}

func TestBooleanAlgebraProperties(t *testing.T) {
	s := MustSpace(20, 8)
	f := func(sa, sb uint64) bool {
		a, b := genPattern(s, sa), genPattern(s, sb)
		if !a.And(b).Equal(b.And(a)) || !a.Or(b).Equal(b.Or(a)) {
			return false
		}
		if !a.Or(a.And(b)).Equal(a) { // absorption
			return false
		}
		if a.And(a.Not()).Any() || !a.Or(a.Not()).All() { // complement
			return false
		}
		// Inclusion-exclusion on pop.
		if a.Or(b).Pop()+a.And(b).Pop() != a.Pop()+b.Pop() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestFlatVsTreeAgreementProperty(t *testing.T) {
	// Flat RLE and the exhaustive bit model agree on derived quantities.
	s := MustSpace(12, 4)
	f := func(seed uint64) bool {
		p := genPattern(s, seed)
		var pop uint64
		for ch := uint64(0); ch < s.Channels(); ch++ {
			if p.Get(ch) {
				pop++
			}
		}
		return pop == p.Pop()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSettersMatchLibraryForm: each Set method, into a fresh destination,
// into one reused across calls, and into a destination that aliases an
// operand, yields the same value as the library form and leaves the other
// operand alone.
func TestSettersMatchLibraryForm(t *testing.T) {
	s := MustSpace(20, 8)
	reused := s.Zero()
	f := func(sa, sb uint64) bool {
		a, b := genPattern(s, sa), genPattern(s, sb)
		for _, op := range []struct {
			want *Pattern
			set  func(dst, x, y *Pattern)
		}{
			{a.And(b), (*Pattern).SetAnd},
			{a.Or(b), (*Pattern).SetOr},
			{a.Xor(b), (*Pattern).SetXor},
			{a.Not(), func(dst, x, _ *Pattern) { dst.SetNot(x) }},
		} {
			op.set(reused, a, b)
			if !reused.Equal(op.want) {
				return false
			}
			x, y := a.Clone(), b.Clone()
			op.set(x, x, y) // dst aliases the first operand
			if !x.Equal(op.want) || !y.Equal(b) {
				return false
			}
			x, y = a.Clone(), b.Clone()
			op.set(y, x, y) // dst aliases the second operand
			if !y.Equal(op.want) || !x.Equal(a) {
				return false
			}
		}
		x := a.Clone()
		x.SetAnd(x, x)
		if !x.Equal(a) {
			return false
		}
		x.SetXor(x, x)
		return !x.Any()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
	// A warm destination is overwritten without allocating, multi-run
	// results included.
	a, b := s.Had(12), s.Had(15)
	reused.SetXor(a, b)
	if reused.NumRuns() < 2 {
		t.Fatalf("fixture %s has one run", reused)
	}
	if allocs := testing.AllocsPerRun(100, func() { reused.SetXor(a, b); reused.SetHad(3) }); allocs != 0 {
		t.Fatalf("warm setters allocate %.0f times, want 0", allocs)
	}
}
