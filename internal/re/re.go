// Package re implements the regular-expression (run-length) compressed pbit
// representation from Section 1.2 of the Tangled paper and the LCPC'20
// software-only PBP prototype it references.
//
// An AoB vector for E-way entanglement needs 2^E bits, which stops being
// practical somewhere around E = 16 — the paper's stated scaling limit for
// direct AoB hardware. The PBP model therefore represents higher degrees of
// entanglement as a run-length-encoded sequence of fixed-size AoB chunks:
// each chunk is a "symbol" of the regular expression, and repetition counts
// compress the (typically very low entropy) pattern. The software prototype
// used 4096-bit chunks; the Tangled/Qat hardware is designed so that its
// 65,536-bit AoB registers can serve as the symbols.
//
// Operations work directly on the compressed form: a channel-wise logic
// operation between two patterns walks their run lists in lockstep and
// combines at most one pair of distinct symbols per overlapping run, with a
// memo table so each distinct symbol pair is combined once. That is the
// "partially symbolic parallel execution" that gives PBP its (up to
// exponential) advantage over materializing full vectors.
//
// Operations come in two forms. The library form (p.And(q), s.Had(k), ...)
// returns a new Pattern. The Set form (dst.SetAnd(a, b), dst.SetHad(k), ...)
// overwrites its receiver in the receiver's own storage, the destination-
// passing style of package aob, so an owner that keeps one Pattern per
// register allocates nothing per gate.
//
// Limitation: this package implements flat run-length encoding, the
// simplest member of the paper's regular-expression family. A pattern whose
// period is close to the chunk size (e.g. Had(k) for k just above
// ChunkWays) expands to up to 2^(ways-k-1+1) alternating runs and gains
// nothing from compression; the LCPC'20 prototype's nested REs would
// compress those too. Callers layering above 16-way AoB hardware normally
// use chunkWays = 16 and high channel sets, where runs stay few.
package re

import (
	"fmt"
	"strings"

	"tangled/internal/aob"
)

// MaxWays bounds the total entanglement a Space may support. Channel
// numbers must fit in a uint64 with room for arithmetic.
const MaxWays = 62

// DefaultSymbolCap bounds the intern table of a new Space. A symbol costs
// its chunk vector (8 KiB at the hardware chunk size of 16 ways) plus one
// hash-table slot of a few dozen bytes, so the cap holds the table near
// 32 MiB worst case; adversarial op sequences that mint unbounded distinct
// chunks hit the cap and trigger a table reset instead of growing without
// limit.
const DefaultSymbolCap = 4096

// Space defines the geometry of a family of patterns — total entanglement
// ways and per-chunk ways — and owns the symbol intern table and the
// per-operation memo caches. Patterns from different Spaces cannot be
// combined. A Space is not safe for concurrent use; PBP execution, like the
// Qat coprocessor, is a single instruction stream.
//
// The intern table is bounded: once it reaches the symbol cap it is reset
// (dropping every memoized op result with it) and repopulated lazily. A
// reset invalidates pointer identity of symbols across old and new patterns
// — old patterns stay perfectly usable, adjacent runs just stop merging
// against newly interned equals — which is why Equal compares structurally
// rather than by symbol pointer.
type Space struct {
	ways      int // total entanglement degree E
	chunkWays int // each symbol covers 2^chunkWays channels

	symbols aob.SymbolTable
	// memo[op] and notMemo cache interned chunk results per table
	// generation, keyed by operand symbols so a lookup hashes plain
	// pointer memory.
	memo      [numBinOps]map[[2]*aob.Vector]*aob.Vector
	notMemo   map[*aob.Vector]*aob.Vector
	symbolCap int // intern entries before reset; <= 0 means unbounded
	resets    uint64

	zeroSym *aob.Vector
	oneSym  *aob.Vector
	// hadSyms[k] is the interned Had(k) chunk for k < chunkWays, minted on
	// first use and dropped with the table at a reset.
	hadSyms []*aob.Vector
	// runBuf is scratch for building a result's runs before copying them
	// out at their final length.
	runBuf []run
}

// binOp names a binary chunk operation; it indexes Space.memo.
type binOp uint8

const (
	opAnd binOp = iota
	opOr
	opXor
	numBinOps
)

// NewSpace creates a Space for ways-way entanglement built from chunks of
// 2^chunkWays channels. chunkWays must be in [0, aob.MaxWays] and must not
// exceed ways; ways must not exceed MaxWays.
func NewSpace(ways, chunkWays int) (*Space, error) {
	if chunkWays < 0 || chunkWays > aob.MaxWays {
		return nil, fmt.Errorf("re: chunkWays %d out of range [0,%d]", chunkWays, aob.MaxWays)
	}
	if ways < chunkWays {
		return nil, fmt.Errorf("re: ways %d smaller than chunkWays %d", ways, chunkWays)
	}
	if ways > MaxWays {
		return nil, fmt.Errorf("re: ways %d exceeds maximum %d", ways, MaxWays)
	}
	s := &Space{
		ways:      ways,
		chunkWays: chunkWays,
		notMemo:   make(map[*aob.Vector]*aob.Vector),
		symbolCap: DefaultSymbolCap,
		hadSyms:   make([]*aob.Vector, chunkWays),
	}
	for op := range s.memo {
		s.memo[op] = make(map[[2]*aob.Vector]*aob.Vector)
	}
	s.zeroSym = s.intern(aob.New(chunkWays))
	s.oneSym = s.intern(aob.OneVector(chunkWays))
	return s, nil
}

// MustSpace is NewSpace for statically valid geometry; it panics on error.
func MustSpace(ways, chunkWays int) *Space {
	s, err := NewSpace(ways, chunkWays)
	if err != nil {
		panic(err)
	}
	return s
}

// Ways returns the total entanglement degree.
func (s *Space) Ways() int { return s.ways }

// ChunkWays returns the per-symbol entanglement degree.
func (s *Space) ChunkWays() int { return s.chunkWays }

// Channels returns the total channel count 2^ways.
func (s *Space) Channels() uint64 { return uint64(1) << uint(s.ways) }

// chunks returns how many symbol positions a pattern spans.
func (s *Space) chunks() uint64 { return uint64(1) << uint(s.ways-s.chunkWays) }

// chunkChannels returns channels per symbol.
func (s *Space) chunkChannels() uint64 { return uint64(1) << uint(s.chunkWays) }

// SymbolCount reports how many distinct chunk symbols have been interned —
// a direct measure of how much sharing compression achieves.
func (s *Space) SymbolCount() int { return s.symbols.Len() }

// SymbolCap returns the intern-table bound; <= 0 means unbounded.
func (s *Space) SymbolCap() int { return s.symbolCap }

// SetSymbolCap changes the intern-table bound. n <= 0 removes the bound. A
// cap below the current table size takes effect at the next intern of an
// unseen symbol.
func (s *Space) SetSymbolCap(n int) { s.symbolCap = n }

// Resets counts how many times the intern table has been dropped at the
// cap — a compression-health signal: nonzero means the workload minted more
// distinct chunks than the table holds.
func (s *Space) Resets() uint64 { return s.resets }

// intern returns the canonical copy of sym, adopting it if unseen. Callers
// must not mutate a vector after interning it. When adopting would push the
// table past the cap, the table (and the op memo, whose keys are symbol
// pointers) is reset first and rebuilt lazily.
func (s *Space) intern(sym *aob.Vector) *aob.Vector {
	return s.internHashed(sym.Hash(), sym)
}

// internHashed is intern with sym's hash already computed; tests pass a
// forced hash to exercise collision chains.
func (s *Space) internHashed(h uint64, sym *aob.Vector) *aob.Vector {
	if got := s.symbols.Lookup(h, sym); got != nil {
		return got
	}
	if s.symbolCap > 0 && s.symbols.Len() >= s.symbolCap {
		s.resetSymbols()
	}
	s.symbols.Insert(h, sym)
	return sym
}

// resetSymbols drops the intern table, the op memos and the Had symbols,
// keeping the canonical zero/one symbols (when already minted) so
// Zero()/One() patterns stay pointer-shared with future ones.
func (s *Space) resetSymbols() {
	s.symbols = aob.SymbolTable{}
	for _, m := range s.memo {
		clear(m)
	}
	clear(s.notMemo)
	clear(s.hadSyms)
	s.resets++
	for _, sym := range []*aob.Vector{s.zeroSym, s.oneSym} {
		if sym != nil {
			s.symbols.Insert(sym.Hash(), sym)
		}
	}
}

// run is one maximal repetition: count copies of sym.
type run struct {
	sym   *aob.Vector
	count uint64
}

// appendRun appends n repetitions of sym to runs, extending the last run
// when it repeats the same symbol.
func appendRun(runs []run, sym *aob.Vector, n uint64) []run {
	if m := len(runs); m > 0 && runs[m-1].sym == sym {
		runs[m-1].count += n
		return runs
	}
	return append(runs, run{sym, n})
}

// Pattern is a compressed pbit value of the Space's entanglement degree:
// the concatenation over runs of count repetitions of each symbol, least
// significant chunk first, always covering exactly 2^ways channels.
//
// The library methods (And, Or, Xor, Not, Clone) return a new Pattern and
// leave their operands alone. The Set methods overwrite their receiver in
// its own storage, and the receiver may alias an operand.
type Pattern struct {
	sp   *Space
	runs []run
	// single backs runs for a one-run pattern, so building one is a single
	// allocation and overwriting one allocates nothing.
	single [1]run
	// buf backs runs for a multi-run pattern; it is kept across Set calls
	// and only grows.
	buf []run
}

// set overwrites p's runs with a copy of runs, in p's own storage.
func (p *Pattern) set(runs []run) {
	if len(runs) == 1 {
		p.single[0] = runs[0]
		p.runs = p.single[:]
		return
	}
	p.buf = append(p.buf[:0], runs...)
	p.runs = p.buf
}

// setRepeat overwrites p with the one-run pattern of sym repeated over
// every chunk.
func (p *Pattern) setRepeat(sym *aob.Vector) {
	p.single[0] = run{sym, p.sp.chunks()}
	p.runs = p.single[:]
}

// pattern returns a new Pattern holding a copy of runs.
func (s *Space) pattern(runs []run) *Pattern {
	p := &Pattern{sp: s}
	p.set(runs)
	return p
}

// Clone returns an independent copy of p.
func (p *Pattern) Clone() *Pattern { return p.sp.pattern(p.runs) }

// SetZero overwrites p with the all-zeros pattern.
func (p *Pattern) SetZero() { p.setRepeat(p.sp.zeroSym) }

// SetOne overwrites p with the all-ones pattern.
func (p *Pattern) SetOne() { p.setRepeat(p.sp.oneSym) }

// SetHad overwrites p with the k-th standard Hadamard pattern: channel e
// holds bit k of e. For k below chunkWays this is a single repeated symbol;
// above, it is alternating all-zero/all-one chunk runs — both maximally
// compressed.
func (p *Pattern) SetHad(k int) {
	s := p.sp
	if k < 0 || k >= s.ways {
		panic(fmt.Sprintf("re: had index %d out of range [0,%d)", k, s.ways))
	}
	if k < s.chunkWays {
		sym := s.hadSyms[k]
		if sym == nil {
			sym = s.intern(aob.HadVector(s.chunkWays, k))
			s.hadSyms[k] = sym
		}
		p.setRepeat(sym)
		return
	}
	runLen := uint64(1) << uint(k-s.chunkWays)
	pairs := s.chunks() / (2 * runLen)
	runs := s.runBuf[:0]
	for i := uint64(0); i < pairs; i++ {
		runs = append(runs, run{s.zeroSym, runLen}, run{s.oneSym, runLen})
	}
	s.runBuf = runs
	p.set(runs)
}

// Zero returns the all-zeros pattern (one run).
func (s *Space) Zero() *Pattern {
	p := &Pattern{sp: s}
	p.SetZero()
	return p
}

// One returns the all-ones pattern (one run).
func (s *Space) One() *Pattern {
	p := &Pattern{sp: s}
	p.SetOne()
	return p
}

// Had returns the k-th standard Hadamard pattern (see SetHad).
func (s *Space) Had(k int) *Pattern {
	p := &Pattern{sp: s}
	p.SetHad(k)
	return p
}

// FromAoB wraps a full-width AoB vector (ways == chunkWays case) or chops a
// wider-than-chunk vector is not supported; the vector's ways must equal
// the space's chunkWays and the space's total chunks times chunk size give
// the repetition. Used mainly by tests to build arbitrary fixtures.
func (s *Space) FromAoB(v *aob.Vector) (*Pattern, error) {
	if v.Ways() != s.chunkWays {
		return nil, fmt.Errorf("re: vector ways %d != chunkWays %d", v.Ways(), s.chunkWays)
	}
	p := &Pattern{sp: s}
	p.setRepeat(s.intern(v.Clone()))
	return p, nil
}

// FromBits builds a pattern from an explicit channel-0-first bit slice of
// exactly 2^ways bits. Exponentially expensive by design; test helper.
func (s *Space) FromBits(bits []bool) (*Pattern, error) {
	if uint64(len(bits)) != s.Channels() {
		return nil, fmt.Errorf("re: got %d bits, want %d", len(bits), s.Channels())
	}
	cc := s.chunkChannels()
	runs := s.runBuf[:0]
	for ci := uint64(0); ci < s.chunks(); ci++ {
		v := aob.New(s.chunkWays)
		for off := uint64(0); off < cc; off++ {
			v.Set(off, bits[ci*cc+off])
		}
		runs = appendRun(runs, s.intern(v), 1)
	}
	s.runBuf = runs
	return s.pattern(runs), nil
}

// FromDense compresses a full-width AoB vector into a pattern: the vector is
// chopped into 2^(ways-chunkWays) chunks, each interned, with equal adjacent
// chunks run-merged. Requires v.Ways() == the space's total ways, which in
// turn requires ways <= aob.MaxWays — the bridge the spill-to-dense backend
// crosses in both directions.
func (s *Space) FromDense(v *aob.Vector) (*Pattern, error) {
	if v.Ways() != s.ways {
		return nil, fmt.Errorf("re: vector ways %d != space ways %d", v.Ways(), s.ways)
	}
	cc := s.chunkChannels()
	cwords := int((cc + 63) / 64)
	runs := s.runBuf[:0]
	for ci := uint64(0); ci < s.chunks(); ci++ {
		c := aob.New(s.chunkWays)
		if s.chunkWays >= 6 {
			for w := 0; w < cwords; w++ {
				c.SetWord(w, v.Word(int(ci)*cwords+w))
			}
		} else {
			for off := uint64(0); off < cc; off++ {
				c.Set(off, v.Get(ci*cc+off))
			}
		}
		runs = appendRun(runs, s.intern(c), 1)
	}
	s.runBuf = runs
	return s.pattern(runs), nil
}

// ToDense materializes the pattern as a full-width AoB vector — the spill
// direction of the RE backend. It fails when the space's total ways exceed
// aob.MaxWays (the whole reason the compressed form exists).
func (p *Pattern) ToDense() (*aob.Vector, error) {
	s := p.sp
	if s.ways > aob.MaxWays {
		return nil, fmt.Errorf("re: %d ways exceed dense maximum %d", s.ways, aob.MaxWays)
	}
	v := aob.New(s.ways)
	cc := s.chunkChannels()
	cwords := int((cc + 63) / 64)
	var ci uint64
	for _, r := range p.runs {
		for rep := uint64(0); rep < r.count; rep++ {
			if s.chunkWays >= 6 {
				for w := 0; w < cwords; w++ {
					v.SetWord(int(ci)*cwords+w, r.sym.Word(w))
				}
			} else {
				for off := uint64(0); off < cc; off++ {
					v.Set(ci*cc+off, r.sym.Get(off))
				}
			}
			ci++
		}
	}
	if ci != s.chunks() {
		return nil, fmt.Errorf("re: runs cover %d of %d chunks", ci, s.chunks())
	}
	return v, nil
}

// Space returns the pattern's owning Space.
func (p *Pattern) Space() *Space { return p.sp }

// NumRuns returns the number of maximal runs — the compressed length.
func (p *Pattern) NumRuns() int { return len(p.runs) }

// StorageBits estimates the compressed footprint in bits: per run, one
// chunk-symbol reference plus a repeat count (we charge the full chunk for
// each *distinct* symbol via the Space table, and 128 bits of run header).
// CompressionRatio compares against the uncompressed 2^ways bits.
func (p *Pattern) StorageBits() uint64 {
	seen := map[*aob.Vector]bool{}
	var bits uint64
	for _, r := range p.runs {
		bits += 128 // symbol reference + repeat count
		if !seen[r.sym] {
			seen[r.sym] = true
			bits += p.sp.chunkChannels()
		}
	}
	return bits
}

// CompressionRatio returns uncompressed/compressed size; higher is better.
func (p *Pattern) CompressionRatio() float64 {
	return float64(p.sp.Channels()) / float64(p.StorageBits())
}

func (p *Pattern) mustShareSpace(q *Pattern) {
	if p.sp != q.sp {
		panic("re: patterns from different spaces")
	}
}

// combine overwrites dst with a op b, walking the two run lists in
// lockstep and applying the memoized chunk op. The runs are built in the
// Space's scratch before dst is written, so dst may alias a or b.
func (s *Space) combine(op binOp, dst, a, b *Pattern) {
	dst.mustShareSpace(a)
	a.mustShareSpace(b)
	out := s.runBuf[:0]
	ai, bi := 0, 0
	aLeft, bLeft := uint64(0), uint64(0)
	if len(a.runs) > 0 {
		aLeft = a.runs[0].count
	}
	if len(b.runs) > 0 {
		bLeft = b.runs[0].count
	}
	for ai < len(a.runs) && bi < len(b.runs) {
		n := aLeft
		if bLeft < n {
			n = bLeft
		}
		out = appendRun(out, s.memoBinary(op, a.runs[ai].sym, b.runs[bi].sym), n)
		aLeft -= n
		bLeft -= n
		if aLeft == 0 {
			ai++
			if ai < len(a.runs) {
				aLeft = a.runs[ai].count
			}
		}
		if bLeft == 0 {
			bi++
			if bi < len(b.runs) {
				bLeft = b.runs[bi].count
			}
		}
	}
	s.runBuf = out
	dst.set(out)
}

// memoBinary returns the interned chunk x op y, computing it at most once
// per symbol pair and table generation.
func (s *Space) memoBinary(op binOp, x, y *aob.Vector) *aob.Vector {
	if got, ok := s.memo[op][[2]*aob.Vector{x, y}]; ok {
		return got
	}
	v := aob.New(s.chunkWays)
	switch op {
	case opAnd:
		v.And(x, y)
	case opOr:
		v.Or(x, y)
	case opXor:
		v.Xor(x, y)
	}
	sym := s.intern(v)
	s.memo[op][[2]*aob.Vector{x, y}] = sym
	// Symmetric ops hit from either operand order.
	s.memo[op][[2]*aob.Vector{y, x}] = sym
	return sym
}

// SetAnd overwrites p with a AND b channel-wise.
func (p *Pattern) SetAnd(a, b *Pattern) { p.sp.combine(opAnd, p, a, b) }

// SetOr overwrites p with a OR b channel-wise.
func (p *Pattern) SetOr(a, b *Pattern) { p.sp.combine(opOr, p, a, b) }

// SetXor overwrites p with a XOR b channel-wise.
func (p *Pattern) SetXor(a, b *Pattern) { p.sp.combine(opXor, p, a, b) }

// SetNot overwrites p with the channel-wise complement of a.
func (p *Pattern) SetNot(a *Pattern) {
	p.mustShareSpace(a)
	s := p.sp
	out := s.runBuf[:0]
	for _, r := range a.runs {
		sym, ok := s.notMemo[r.sym]
		if !ok {
			v := r.sym.Clone()
			v.Not()
			sym = s.intern(v)
			s.notMemo[r.sym] = sym
		}
		out = appendRun(out, sym, r.count)
	}
	s.runBuf = out
	p.set(out)
}

// And returns p AND q channel-wise.
func (p *Pattern) And(q *Pattern) *Pattern {
	r := &Pattern{sp: p.sp}
	r.SetAnd(p, q)
	return r
}

// Or returns p OR q channel-wise.
func (p *Pattern) Or(q *Pattern) *Pattern {
	r := &Pattern{sp: p.sp}
	r.SetOr(p, q)
	return r
}

// Xor returns p XOR q channel-wise.
func (p *Pattern) Xor(q *Pattern) *Pattern {
	r := &Pattern{sp: p.sp}
	r.SetXor(p, q)
	return r
}

// Not returns the channel-wise complement of p.
func (p *Pattern) Not() *Pattern {
	r := &Pattern{sp: p.sp}
	r.SetNot(p)
	return r
}

// Get returns the bit at channel ch (modulo the channel count).
func (p *Pattern) Get(ch uint64) bool {
	ch &= p.sp.Channels() - 1
	ci := ch >> uint(p.sp.chunkWays)
	off := ch & (p.sp.chunkChannels() - 1)
	for _, r := range p.runs {
		if ci < r.count {
			return r.sym.Get(off)
		}
		ci -= r.count
	}
	panic("re: runs do not cover pattern")
}

// Meas returns Get as 0/1, matching the Qat meas instruction.
func (p *Pattern) Meas(ch uint64) uint64 {
	if p.Get(ch) {
		return 1
	}
	return 0
}

// Next returns the lowest channel strictly greater than ch holding a 1, or
// 0 if none — the Qat next instruction lifted to the compressed form. It
// runs in O(runs) time plus one chunk probe, never decompressing.
func (p *Pattern) Next(ch uint64) uint64 {
	ch &= p.sp.Channels() - 1
	cw := uint(p.sp.chunkWays)
	cc := p.sp.chunkChannels()
	targetChunk := (ch + 1) >> cw
	startOff := (ch + 1) & (cc - 1)
	var base uint64 // global chunk index at start of current run
	for _, r := range p.runs {
		end := base + r.count
		if end <= targetChunk {
			base = end
			continue
		}
		// The run overlaps chunk indices [max(base,targetChunk), end).
		first := base
		if targetChunk > first {
			first = targetChunk
		}
		// Within the first candidate chunk, a partial search may apply.
		off := uint64(0)
		if first == targetChunk {
			off = startOff
		}
		if off != 0 {
			// Channels >= off within chunk `first`.
			if r.sym.Get(off) {
				return first<<cw + off
			}
			if n := r.sym.Next(off); n != 0 {
				return first<<cw + n
			}
			first++
			if first >= end {
				base = end
				continue
			}
		}
		// Whole chunks from `first`: if the symbol has any 1 its first
		// position answers immediately.
		if r.sym.Get(0) {
			return first << cw
		}
		if n := r.sym.Next(0); n != 0 {
			return first<<cw + n
		}
		base = end
	}
	return 0
}

// PopAfter counts 1 bits in channels strictly greater than ch.
func (p *Pattern) PopAfter(ch uint64) uint64 {
	ch &= p.sp.Channels() - 1
	cw := uint(p.sp.chunkWays)
	cc := p.sp.chunkChannels()
	targetChunk := (ch + 1) >> cw
	startOff := (ch + 1) & (cc - 1)
	var base, total uint64
	for _, r := range p.runs {
		end := base + r.count
		if end <= targetChunk {
			base = end
			continue
		}
		first := base
		if targetChunk > first {
			first = targetChunk
		}
		whole := end - first
		if first == targetChunk && startOff != 0 {
			// Partial chunk: PopAfter(startOff-1) counts offsets >= startOff.
			total += r.sym.PopAfter(startOff - 1)
			whole--
		}
		total += whole * r.sym.Pop()
		base = end
	}
	return total
}

// Pop returns the total count of 1 channels, computed per-run — O(runs)
// instead of O(2^ways).
func (p *Pattern) Pop() uint64 {
	var total uint64
	for _, r := range p.runs {
		total += r.count * r.sym.Pop()
	}
	return total
}

// Any reports whether any channel holds a 1.
func (p *Pattern) Any() bool {
	for _, r := range p.runs {
		if r.sym.Pop() != 0 {
			return true
		}
	}
	return false
}

// All reports whether every channel holds a 1.
func (p *Pattern) All() bool {
	for _, r := range p.runs {
		if r.sym.Pop() != r.sym.Channels() {
			return false
		}
	}
	return true
}

// Equal reports channel-wise equality. It walks the two run lists in
// lockstep, tolerating differing run boundaries and comparing symbols by
// content (pointer identity is only a fast path): intern-table resets mean
// two equal patterns may not share symbol pointers or even run splits.
func (p *Pattern) Equal(q *Pattern) bool {
	if p.sp != q.sp {
		return false
	}
	pi, qi := 0, 0
	var pLeft, qLeft uint64
	for {
		if pLeft == 0 {
			if pi == len(p.runs) {
				return qi == len(q.runs) && qLeft == 0
			}
			pLeft = p.runs[pi].count
			pi++
		}
		if qLeft == 0 {
			if qi == len(q.runs) {
				return false
			}
			qLeft = q.runs[qi].count
			qi++
		}
		ps, qs := p.runs[pi-1].sym, q.runs[qi-1].sym
		if ps != qs && !ps.Equal(qs) {
			return false
		}
		n := pLeft
		if qLeft < n {
			n = qLeft
		}
		pLeft -= n
		qLeft -= n
	}
}

// String renders the run structure, e.g. "(0^2)(1^2)" for 0011 with 1-way
// chunks — echoing the paper's 0²1² notation.
func (p *Pattern) String() string {
	var b strings.Builder
	for _, r := range p.runs {
		sym := r.sym.String()
		if r.sym.Channels() > 16 {
			sym = fmt.Sprintf("S%p", r.sym)
		}
		fmt.Fprintf(&b, "(%s^%d)", sym, r.count)
	}
	return b.String()
}
