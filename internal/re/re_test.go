package re

import (
	"math/rand"
	"testing"

	"tangled/internal/aob"
)

// refBits expands a pattern to explicit bits for oracle comparisons. Only
// usable for small ways.
func refBits(p *Pattern) []bool {
	n := p.sp.Channels()
	out := make([]bool, n)
	for ch := uint64(0); ch < n; ch++ {
		out[ch] = p.Get(ch)
	}
	return out
}

func randBits(r *rand.Rand, n uint64, density float64) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = r.Float64() < density
	}
	return out
}

func TestNewSpaceValidation(t *testing.T) {
	if _, err := NewSpace(10, -1); err == nil {
		t.Error("negative chunkWays accepted")
	}
	if _, err := NewSpace(10, 17); err == nil {
		t.Error("chunkWays > aob.MaxWays accepted")
	}
	if _, err := NewSpace(3, 4); err == nil {
		t.Error("ways < chunkWays accepted")
	}
	if _, err := NewSpace(63, 4); err == nil {
		t.Error("ways > MaxWays accepted")
	}
	if _, err := NewSpace(20, 8); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
}

func TestZeroOnePatterns(t *testing.T) {
	s := MustSpace(20, 8)
	z, o := s.Zero(), s.One()
	if z.Any() || !o.All() || !o.Any() || z.All() {
		t.Fatal("zero/one reductions wrong")
	}
	if z.NumRuns() != 1 || o.NumRuns() != 1 {
		t.Fatal("constants must be single runs")
	}
	if z.Pop() != 0 || o.Pop() != s.Channels() {
		t.Fatal("pop of constants wrong")
	}
}

// TestPaperRunLengthExamples reproduces the Section 1.2 examples:
// {0,1,0,1} is (01)^2 and {0,0,1,1} is 0^2 1^2 under 1-bit chunks.
func TestPaperRunLengthExamples(t *testing.T) {
	s := MustSpace(2, 1) // 4 channels, 2-channel chunks
	h0 := s.Had(0)       // 0101 -> chunk "01" repeated twice
	if h0.NumRuns() != 1 || h0.String() != "(01^2)" {
		t.Errorf("had0 = %s (%d runs), want (01^2)", h0, h0.NumRuns())
	}
	h1 := s.Had(1) // 0011 -> chunk 00 then chunk 11
	if h1.NumRuns() != 2 || h1.String() != "(00^1)(11^1)" {
		t.Errorf("had1 = %s (%d runs), want (00^1)(11^1)", h1, h1.NumRuns())
	}
}

func TestHadMatchesAoB(t *testing.T) {
	for _, geom := range [][2]int{{8, 4}, {10, 6}, {12, 8}, {9, 3}} {
		ways, cw := geom[0], geom[1]
		s := MustSpace(ways, cw)
		for k := 0; k < ways; k++ {
			p := s.Had(k)
			want := aob.HadVector(ways, k)
			for ch := uint64(0); ch < s.Channels(); ch++ {
				if p.Get(ch) != want.Get(ch) {
					t.Fatalf("ways=%d cw=%d k=%d ch=%d mismatch", ways, cw, k, ch)
				}
			}
		}
	}
}

func TestHadCompressionIsMaximal(t *testing.T) {
	// A Hadamard pattern at any k compresses to O(2^(ways-k)) runs; for the
	// top channel-set it is exactly 2 runs regardless of total ways.
	s := MustSpace(32, 12)
	top := s.Had(31)
	if top.NumRuns() != 2 {
		t.Errorf("had(31) has %d runs, want 2", top.NumRuns())
	}
	low := s.Had(3)
	if low.NumRuns() != 1 {
		t.Errorf("had(3) has %d runs, want 1", low.NumRuns())
	}
	// 2^32 bits collapse to 2 run headers + 2 distinct 4096-bit chunks.
	if r := top.CompressionRatio(); r < 1e5 {
		t.Errorf("32-way had(31) compression ratio %g, want >1e5", r)
	}
}

func TestLogicOpsAgainstAoB(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s := MustSpace(10, 4)
	for trial := 0; trial < 10; trial++ {
		ab := randBits(r, s.Channels(), 0.3)
		bb := randBits(r, s.Channels(), 0.7)
		pa, err := s.FromBits(ab)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := s.FromBits(bb)
		if err != nil {
			t.Fatal(err)
		}
		and, or, xor, not := pa.And(pb), pa.Or(pb), pa.Xor(pb), pa.Not()
		for ch := uint64(0); ch < s.Channels(); ch++ {
			if and.Get(ch) != (ab[ch] && bb[ch]) {
				t.Fatalf("and ch %d", ch)
			}
			if or.Get(ch) != (ab[ch] || bb[ch]) {
				t.Fatalf("or ch %d", ch)
			}
			if xor.Get(ch) != (ab[ch] != bb[ch]) {
				t.Fatalf("xor ch %d", ch)
			}
			if not.Get(ch) == ab[ch] {
				t.Fatalf("not ch %d", ch)
			}
		}
	}
}

func TestNextMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	s := MustSpace(9, 3)
	for trial := 0; trial < 10; trial++ {
		density := []float64{0, 0.01, 0.5, 1}[trial%4]
		bits := randBits(r, s.Channels(), density)
		p, err := s.FromBits(bits)
		if err != nil {
			t.Fatal(err)
		}
		for ch := uint64(0); ch < s.Channels(); ch++ {
			var want uint64
			for c := ch + 1; c < s.Channels(); c++ {
				if bits[c] {
					want = c
					break
				}
			}
			if got := p.Next(ch); got != want {
				t.Fatalf("density %g: Next(%d) = %d, want %d", density, ch, got, want)
			}
		}
	}
}

func TestPopAfterMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s := MustSpace(9, 4)
	bits := randBits(r, s.Channels(), 0.4)
	p, err := s.FromBits(bits)
	if err != nil {
		t.Fatal(err)
	}
	for ch := uint64(0); ch < s.Channels(); ch++ {
		var want uint64
		for c := ch + 1; c < s.Channels(); c++ {
			if bits[c] {
				want++
			}
		}
		if got := p.PopAfter(ch); got != want {
			t.Fatalf("PopAfter(%d) = %d, want %d", ch, got, want)
		}
	}
	if p.Pop() != p.PopAfter(0)+p.Meas(0) {
		t.Fatal("pop split identity broken")
	}
}

func TestHighEntanglementArithmetic(t *testing.T) {
	// 40-way entanglement: 2^40 channels, impossible as AoB (128 GB), easy
	// as RE. XOR of two Hadamard patterns has a predictable structure.
	s := MustSpace(40, 12)
	a := s.Had(39)
	b := s.Had(38)
	x := a.Xor(b)
	// Channel e: bit39(e) ^ bit38(e). Pattern of quarters: 0,1,1,0.
	q := s.Channels() / 4
	for _, probe := range []struct {
		ch   uint64
		want bool
	}{
		{0, false}, {q, true}, {2 * q, true}, {3 * q, false},
		{q - 1, false}, {2*q - 1, true}, {4*q - 1, false},
	} {
		if x.Get(probe.ch) != probe.want {
			t.Errorf("xor at %d = %v, want %v", probe.ch, x.Get(probe.ch), probe.want)
		}
	}
	if x.Pop() != s.Channels()/2 {
		t.Errorf("xor pop = %d, want half of %d", x.Pop(), s.Channels())
	}
	if x.NumRuns() > 4 {
		t.Errorf("xor of two hads has %d runs, want <=4", x.NumRuns())
	}
}

func TestMemoizationSharing(t *testing.T) {
	s := MustSpace(30, 10)
	a, b := s.Had(29), s.Had(5)
	before := s.SymbolCount()
	c1 := a.And(b)
	mid := s.SymbolCount()
	c2 := a.And(b)
	after := s.SymbolCount()
	if after != mid {
		t.Error("repeated op created new symbols despite memo")
	}
	if !c1.Equal(c2) {
		t.Error("memoized op not deterministic")
	}
	if mid-before > 2 {
		t.Errorf("and of two hads interned %d new symbols, want <=2", mid-before)
	}
}

func TestEqualSemantics(t *testing.T) {
	s := MustSpace(12, 4)
	if !s.Had(7).Equal(s.Had(7)) {
		t.Error("identical patterns unequal")
	}
	if s.Had(7).Equal(s.Had(6)) {
		t.Error("different patterns equal")
	}
	s2 := MustSpace(12, 4)
	if s.Had(7).Equal(s2.Had(7)) {
		t.Error("cross-space patterns must be unequal")
	}
}

func TestNotInvolution(t *testing.T) {
	s := MustSpace(16, 8)
	p := s.Had(13).Xor(s.Had(2))
	if !p.Not().Not().Equal(p) {
		t.Error("not∘not != identity")
	}
}

func TestDeMorganOnPatterns(t *testing.T) {
	s := MustSpace(24, 8)
	a, b := s.Had(20), s.Had(7)
	lhs := a.And(b).Not()
	rhs := a.Not().Or(b.Not())
	if !lhs.Equal(rhs) {
		t.Error("De Morgan fails on compressed patterns")
	}
}

func TestRunCoalescing(t *testing.T) {
	// ANDing a pattern with zero collapses to a single zero run no matter
	// how fragmented the operand was.
	s := MustSpace(20, 6)
	frag := s.Had(19).Xor(s.Had(18)).Xor(s.Had(17))
	z := frag.And(s.Zero())
	if z.NumRuns() != 1 {
		t.Errorf("x AND 0 has %d runs, want 1", z.NumRuns())
	}
	if !z.Equal(s.Zero()) {
		t.Error("x AND 0 != 0")
	}
}

func TestFromAoBRoundTrip(t *testing.T) {
	s := MustSpace(16, 8)
	v := aob.HadVector(8, 3)
	p, err := s.FromAoB(v)
	if err != nil {
		t.Fatal(err)
	}
	for ch := uint64(0); ch < s.Channels(); ch++ {
		if p.Get(ch) != v.Get(ch&255) {
			t.Fatalf("tiling mismatch at %d", ch)
		}
	}
	if _, err := s.FromAoB(aob.New(9)); err == nil {
		t.Error("wrong-size vector accepted")
	}
}

func TestMeasNonDestructiveOnPattern(t *testing.T) {
	s := MustSpace(24, 12)
	p := s.Had(23)
	for i := 0; i < 100; i++ {
		p.Meas(uint64(i) * 123456789 % s.Channels())
	}
	if !p.Equal(s.Had(23)) {
		t.Error("measurement disturbed compressed pattern")
	}
}

func BenchmarkS12REvsAoB_RE(b *testing.B) {
	// 16-way problem: logic op on the compressed form.
	s := MustSpace(16, 12)
	x, y := s.Had(15), s.Had(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.And(y)
	}
}

func BenchmarkS12REvsAoB_AoB(b *testing.B) {
	// The same op on the uncompressed 65,536-bit AoB form.
	x, y := aob.HadVector(16, 15), aob.HadVector(16, 3)
	d := aob.New(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.And(x, y)
	}
}

func BenchmarkHighEntanglementAnd(b *testing.B) {
	s := MustSpace(40, 12)
	x, y := s.Had(39), s.Had(20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.And(y)
	}
}

func BenchmarkPatternNext(b *testing.B) {
	s := MustSpace(32, 12)
	p := s.Had(31)
	for i := 0; i < b.N; i++ {
		_ = p.Next(uint64(i))
	}
}

var sinkPat *Pattern

// TestInternHitAllocatesNothing: interning a symbol equal to one already
// in the table allocates nothing, a warm Had(k) below the chunk width reuses
// the Space's cached symbol, and a gate whose result is a single run
// allocates only the result Pattern.
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

	p := s.Had(3)
	if p.runs[0].sym != canon {
		t.Fatal("Had(3) did not intern to the canonical symbol")
	}
	syms := s.SymbolCount()
	if allocs := testing.AllocsPerRun(100, func() { sinkPat = s.Had(3) }); allocs != 1 {
		t.Fatalf("warm Had(3) allocates %.0f times, want 1 (the Pattern)", allocs)
	}
	if sinkPat.runs[0].sym != canon || s.SymbolCount() != syms {
		t.Fatal("warm Had(3) built a new symbol")
	}

	q := s.Had(5)
	p.And(q) // fills the memo
	if allocs := testing.AllocsPerRun(100, func() { sinkPat = p.And(q) }); allocs != 1 {
		t.Fatalf("memo-hit And allocates %.0f times, want 1 (the Pattern)", allocs)
	}
	if sinkPat.NumRuns() != 1 || sinkPat.Pop() != s.Channels()/4 {
		t.Fatalf("Had(3) AND Had(5) = %d runs, pop %d", sinkPat.NumRuns(), sinkPat.Pop())
	}
}

// TestInternCollisionChains forces two distinct symbols under one hash:
// both must be adopted as distinct canonical copies and each found again
// by content.
func TestInternCollisionChains(t *testing.T) {
	s := MustSpace(8, 4)
	const h = 42
	a, b, c := aob.HadVector(4, 1), aob.HadVector(4, 2), aob.HadVector(4, 3)
	n := s.SymbolCount()
	if got := s.internHashed(h, a); got != a {
		t.Fatal("first symbol under the hash was not adopted")
	}
	if got := s.internHashed(h, b); got != b {
		t.Fatal("colliding distinct symbol was not adopted as its own copy")
	}
	if got := s.internHashed(h, c); got != c {
		t.Fatal("second colliding symbol was not adopted as its own copy")
	}
	if got := s.SymbolCount(); got != n+3 {
		t.Fatalf("SymbolCount = %d, want %d", got, n+3)
	}
	for _, want := range []*aob.Vector{a, b, c} {
		if got := s.internHashed(h, want.Clone()); got != want {
			t.Fatalf("equal copy of %s found %s", want, got)
		}
	}
	if got := s.SymbolCount(); got != n+3 {
		t.Fatalf("re-interning grew SymbolCount to %d, want %d", got, n+3)
	}
}

// TestHadAcrossResets: the cached Had symbols are dropped with the table,
// so after a cap reset Had(k) equals its earlier value and its symbol is
// the one the new table holds, which runs built afterwards merge against.
func TestHadAcrossResets(t *testing.T) {
	s := MustSpace(8, 4)
	before := s.Had(2)
	s.SetSymbolCap(4)
	r := rand.New(rand.NewSource(11))
	for i := 0; s.Resets() == 0; i++ {
		if _, err := s.FromBits(randBits(r, s.Channels(), 0.5)); err != nil {
			t.Fatal(err)
		}
		if i > 10000 {
			t.Fatal("cap never triggered")
		}
	}
	s.SetSymbolCap(0)
	after := s.Had(2)
	if !after.Equal(before) || !before.Equal(after) {
		t.Fatal("Had(2) differs across a reset")
	}
	sym := after.runs[0].sym
	if sym == before.runs[0].sym {
		t.Fatal("Had(2) still returns the symbol of the dropped table")
	}
	if got := s.symbols.Lookup(sym.Hash(), sym); got != sym {
		t.Fatal("Had(2)'s symbol is not the new table's canonical copy")
	}
	rebuilt, err := s.FromBits(refBits(before))
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.NumRuns() != 1 || rebuilt.runs[0].sym != sym {
		t.Fatalf("rebuilt Had(2) has %d runs, want one run of the cached symbol", rebuilt.NumRuns())
	}
	if and := after.And(s.One()); and.NumRuns() != 1 || and.runs[0].sym != sym {
		t.Fatal("Had(2) AND One did not merge to the cached symbol")
	}
}
