package rex

import (
	"math/rand"
	"testing"

	"tangled/internal/aob"
	"tangled/internal/re"
)

func randBits(r *rand.Rand, n uint64, density float64) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = r.Float64() < density
	}
	return out
}

// periodicBits tiles a random period across the space — the structured
// inputs this representation is built for.
func periodicBits(r *rand.Rand, n, period uint64, density float64) []bool {
	base := randBits(r, period, density)
	out := make([]bool, n)
	for i := range out {
		out[i] = base[uint64(i)%period]
	}
	return out
}

func TestSpaceValidation(t *testing.T) {
	if _, err := NewSpace(10, -1); err == nil {
		t.Error("negative chunkWays")
	}
	if _, err := NewSpace(10, 17); err == nil {
		t.Error("chunkWays > aob.MaxWays")
	}
	if _, err := NewSpace(3, 4); err == nil {
		t.Error("ways < chunkWays")
	}
	if _, err := NewSpace(63, 4); err == nil {
		t.Error("ways > MaxWays")
	}
}

func TestConstants(t *testing.T) {
	s := MustSpace(40, 12)
	z, o := s.Zero(), s.One()
	if z.Any() || !o.All() {
		t.Fatal("constants wrong")
	}
	if z.Pop() != 0 || o.Pop() != s.Channels() {
		t.Fatal("pop wrong")
	}
	// Shared doubling: the all-zero tree is height+1 distinct nodes.
	if z.NumNodes() != 40-12+1 {
		t.Fatalf("zero tree has %d nodes", z.NumNodes())
	}
}

// TestHadCompactEverywhere is the headline improvement over flat RLE: every
// Hadamard pattern costs O(ways) shared nodes, including the k ~ chunkWays
// band where flat RLE needs 2^(ways-chunkWays) runs.
func TestHadCompactEverywhere(t *testing.T) {
	s := MustSpace(40, 12)
	for k := 0; k < 40; k++ {
		p := s.Had(k)
		if p.NumNodes() > 2*(40-12)+3 {
			t.Fatalf("had(%d) needs %d nodes", k, p.NumNodes())
		}
		if p.Pop() != s.Channels()/2 {
			t.Fatalf("had(%d) pop %d", k, p.Pop())
		}
	}
	// The flat-RLE pathological case is now trivial.
	if n := s.Had(12).NumNodes(); n > 31 {
		t.Fatalf("had(chunkWays) needs %d nodes", n)
	}
}

func TestHadMatchesAoB(t *testing.T) {
	for _, geom := range [][2]int{{8, 4}, {10, 6}, {9, 3}, {12, 8}, {8, 0}} {
		ways, cw := geom[0], geom[1]
		s := MustSpace(ways, cw)
		for k := 0; k < ways; k++ {
			p := s.Had(k)
			want := aob.HadVector(ways, k)
			for ch := uint64(0); ch < s.Channels(); ch++ {
				if p.Get(ch) != want.Get(ch) {
					t.Fatalf("ways=%d cw=%d k=%d ch=%d", ways, cw, k, ch)
				}
			}
		}
	}
}

func TestHashConsingCanonicalizes(t *testing.T) {
	s := MustSpace(10, 2)
	// The same value built three different ways is the same root.
	a := s.Had(7)
	b := s.Had(7).Or(s.Zero())
	c := s.Had(7).And(s.One())
	if !a.Equal(b) || !a.Equal(c) {
		t.Error("equal values, different roots")
	}
	if !a.Xor(a).Equal(s.Zero()) {
		t.Error("x^x != 0")
	}
	// A pattern with period 8 channels built from explicit bits shares
	// nodes aggressively.
	bits := make([]bool, 1024)
	for i := range bits {
		bits[i] = i%8 < 3
	}
	p, err := s.FromBits(bits)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumNodes() > 12 {
		t.Fatalf("periodic pattern uses %d nodes", p.NumNodes())
	}
}

// TestDifferentialVsFlatRE: rex and re must agree on every operation over
// random and periodic inputs.
func TestDifferentialVsFlatRE(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const ways, cw = 9, 3
	sx := MustSpace(ways, cw)
	sf := re.MustSpace(ways, cw)
	n := sx.Channels()
	for trial := 0; trial < 12; trial++ {
		var ab, bb []bool
		switch trial % 3 {
		case 0:
			ab, bb = randBits(r, n, 0.4), randBits(r, n, 0.6)
		case 1:
			ab, bb = periodicBits(r, n, 16, 0.5), periodicBits(r, n, 64, 0.5)
		default:
			ab, bb = periodicBits(r, n, 8, 0.2), randBits(r, n, 0.9)
		}
		xa, err := sx.FromBits(ab)
		if err != nil {
			t.Fatal(err)
		}
		xb, _ := sx.FromBits(bb)
		fa, _ := sf.FromBits(ab)
		fb, _ := sf.FromBits(bb)

		pairs := []struct {
			name string
			x    *Pattern
			f    *re.Pattern
		}{
			{"and", xa.And(xb), fa.And(fb)},
			{"or", xa.Or(xb), fa.Or(fb)},
			{"xor", xa.Xor(xb), fa.Xor(fb)},
			{"not", xa.Not(), fa.Not()},
		}
		for _, pr := range pairs {
			if pr.x.Pop() != pr.f.Pop() {
				t.Fatalf("trial %d %s: pop %d vs %d", trial, pr.name, pr.x.Pop(), pr.f.Pop())
			}
			for probe := 0; probe < 64; probe++ {
				ch := r.Uint64() & (n - 1)
				if pr.x.Get(ch) != pr.f.Get(ch) {
					t.Fatalf("trial %d %s: get(%d)", trial, pr.name, ch)
				}
				if pr.x.Next(ch) != pr.f.Next(ch) {
					t.Fatalf("trial %d %s: next(%d) = %d vs %d", trial, pr.name, ch,
						pr.x.Next(ch), pr.f.Next(ch))
				}
				if pr.x.PopAfter(ch) != pr.f.PopAfter(ch) {
					t.Fatalf("trial %d %s: popAfter(%d) = %d vs %d", trial, pr.name, ch,
						pr.x.PopAfter(ch), pr.f.PopAfter(ch))
				}
			}
		}
	}
}

func TestNextExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	s := MustSpace(8, 2)
	for trial := 0; trial < 8; trial++ {
		density := []float64{0, 0.02, 0.5, 1}[trial%4]
		bits := randBits(r, 256, density)
		if trial >= 4 {
			bits = periodicBits(r, 256, 16, density)
		}
		p, err := s.FromBits(bits)
		if err != nil {
			t.Fatal(err)
		}
		for ch := uint64(0); ch < 256; ch++ {
			var want uint64
			for c := ch + 1; c < 256; c++ {
				if bits[c] {
					want = c
					break
				}
			}
			if got := p.Next(ch); got != want {
				t.Fatalf("density %g trial %d: next(%d) = %d, want %d", density, trial, ch, got, want)
			}
		}
	}
}

func TestPopAfterExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	s := MustSpace(8, 3)
	bits := periodicBits(r, 256, 32, 0.35)
	p, err := s.FromBits(bits)
	if err != nil {
		t.Fatal(err)
	}
	for ch := uint64(0); ch < 256; ch++ {
		var want uint64
		for c := ch + 1; c < 256; c++ {
			if bits[c] {
				want++
			}
		}
		if got := p.PopAfter(ch); got != want {
			t.Fatalf("popAfter(%d) = %d, want %d", ch, got, want)
		}
	}
}

// TestCrossScaleCombine is the case that defeats both flat RLE and
// single-level periodicity: combining patterns whose periods differ by
// dozens of octaves. Node sharing keeps it tiny and fast.
func TestCrossScaleCombine(t *testing.T) {
	s := MustSpace(60, 12)
	x := s.Had(59).And(s.Had(13)) // periods 2^60 and 2^14 channels
	if x.Pop() != s.Channels()/4 {
		t.Fatalf("pop = %d", x.Pop())
	}
	if n := x.NumNodes(); n > 120 {
		t.Fatalf("cross-scale result uses %d nodes", n)
	}
	// Spot-check channels against the definition bit59 & bit13.
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		ch := r.Uint64() & (s.Channels() - 1)
		want := ch>>59&1 == 1 && ch>>13&1 == 1
		if x.Get(ch) != want {
			t.Fatalf("get(%d)", ch)
		}
	}
	// Next from mid-space: the first channel with both bits set after ch.
	got := x.Next(0)
	want := uint64(1)<<59 | 1<<13
	if got != want {
		t.Fatalf("next(0) = %d, want %d", got, want)
	}
}

// TestSixtyWayEntanglement exercises the full supported range: 2^60
// channels — about 10^14 times beyond the 16-way hardware.
func TestSixtyWayEntanglement(t *testing.T) {
	s := MustSpace(60, 12)
	x := s.Had(59).And(s.Had(58))
	if x.Pop() != s.Channels()/4 {
		t.Fatalf("pop = %d", x.Pop())
	}
	if got := x.Next(0); got != 3*(s.Channels()/4) {
		t.Fatalf("next(0) = %d", got)
	}
	if x.CompressionRatio() < 1e13 {
		t.Fatalf("compression ratio %g", x.CompressionRatio())
	}
}

func TestDeMorganProperty(t *testing.T) {
	s := MustSpace(30, 10)
	a, b := s.Had(25), s.Had(9)
	if !a.And(b).Not().Equal(a.Not().Or(b.Not())) {
		t.Error("De Morgan fails")
	}
}

func TestNotInvolution(t *testing.T) {
	s := MustSpace(24, 8)
	p := s.Had(20).Xor(s.Had(3))
	if !p.Not().Not().Equal(p) {
		t.Error("not∘not != id")
	}
}

func TestMeasNonDestructive(t *testing.T) {
	s := MustSpace(40, 12)
	p := s.Had(39)
	for i := 0; i < 200; i++ {
		p.Meas(uint64(i) * 0x9E3779B97F4A7C15 % s.Channels())
	}
	if !p.Equal(s.Had(39)) {
		t.Error("meas disturbed pattern")
	}
}

func TestZeroHeightSpace(t *testing.T) {
	// ways == chunkWays: the tree is a single leaf.
	s := MustSpace(6, 6)
	h := s.Had(3)
	want := aob.HadVector(6, 3)
	for ch := uint64(0); ch < 64; ch++ {
		if h.Get(ch) != want.Get(ch) {
			t.Fatalf("ch %d", ch)
		}
		if h.Next(ch) != want.Next(ch) {
			t.Fatalf("next(%d)", ch)
		}
	}
}

func TestFromBitsValidates(t *testing.T) {
	s := MustSpace(8, 4)
	if _, err := s.FromBits(make([]bool, 17)); err == nil {
		t.Error("wrong length accepted")
	}
}

func TestCrossSpacePanics(t *testing.T) {
	a := MustSpace(8, 4).Zero()
	b := MustSpace(8, 4).Zero()
	defer func() {
		if recover() == nil {
			t.Error("cross-space op did not panic")
		}
	}()
	a.And(b)
}

func TestMemoization(t *testing.T) {
	s := MustSpace(30, 10)
	a, b := s.Had(29), s.Had(4)
	_ = a.And(b)
	before := s.NodeCount()
	c1 := a.And(b)
	c2 := b.And(a) // symmetric memo hit
	if s.NodeCount() != before {
		t.Error("repeat op created new nodes")
	}
	if !c1.Equal(c2) {
		t.Error("memoized commutativity broken")
	}
}

func TestNextEdgeAtTop(t *testing.T) {
	s := MustSpace(20, 8)
	o := s.One()
	if o.Next(s.Channels()-1) != 0 {
		t.Error("next past the last channel must be 0")
	}
	if o.PopAfter(s.Channels()-1) != 0 {
		t.Error("popAfter past the last channel must be 0")
	}
	if o.Next(s.Channels()-2) != s.Channels()-1 {
		t.Error("next at the penultimate channel")
	}
}

func BenchmarkRexAnd60Way(b *testing.B) {
	s := MustSpace(60, 12)
	x, y := s.Had(59), s.Had(12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.And(y)
	}
}

func BenchmarkRexVsFlat16Way(b *testing.B) {
	b.Run("rex", func(b *testing.B) {
		s := MustSpace(16, 12)
		x, y := s.Had(12), s.Had(13) // flat RLE's bad band
		for i := 0; i < b.N; i++ {
			_ = x.And(y)
		}
	})
	b.Run("flat", func(b *testing.B) {
		s := re.MustSpace(16, 12)
		x, y := s.Had(12), s.Had(13)
		for i := 0; i < b.N; i++ {
			_ = x.And(y)
		}
	})
}

func BenchmarkRexNext(b *testing.B) {
	s := MustSpace(48, 12)
	p := s.Had(47)
	for i := 0; i < b.N; i++ {
		_ = p.Next(uint64(i))
	}
}

// TestInternHitAllocatesNothing: as in internal/re, a symbol already in
// the table is found by its content hash without allocating.
func TestInternHitAllocatesNothing(t *testing.T) {
	s := MustSpace(20, 16)
	canon := s.intern(aob.HadVector(16, 3))
	if s.intern(aob.HadVector(16, 5)) == canon {
		t.Fatal("distinct symbols interned to one")
	}
	again := aob.HadVector(16, 3)
	if got := s.intern(again); got != canon {
		t.Fatal("equal symbol did not intern to the canonical copy")
	}
	if allocs := testing.AllocsPerRun(100, func() { s.intern(again) }); allocs != 0 {
		t.Fatalf("interning a known symbol allocates %.0f times, want 0", allocs)
	}
}
