// Package rex implements the hierarchical compressed pbit representation:
// the fully nested member of the paper's regular-expression family, beyond
// package re's flat run-length encoding.
//
// A pattern over 2^(ways-chunkWays) chunk symbols is stored as a perfect
// binary tree over the chunk index space, with hash-consing: identical
// subtrees are one shared node. A periodic pattern — and every PBP
// initializer is periodic — therefore costs O(ways) distinct nodes no
// matter how many times its period repeats, and channel-wise operations
// recurse over *distinct node pairs only* (memoized), never over
// repetitions. The textual analog is a fully nested RE such as
// (0^(2^47))((00 11)^(2^45)); structurally the scheme is the same
// shared-subgraph idea as the binary decision diagrams the paper points to
// when discussing cswap ("which also are used to construct binary decision
// diagrams").
//
// This answers the paper's closing question — "It remains to be seen if the
// manipulation of regular patterns of AoB blocks will effectively scale to
// very high entanglements" — constructively for the Qat operation set:
// logic, reductions (ANY/ALL/POP), channel sampling and next all run in
// time polynomial in the number of distinct subtrees, not in 2^ways.
//
// Hash-consing makes equality a root-pointer comparison, and the node pool
// plus all memo tables live in the Space, which (like the Qat coprocessor's
// single instruction stream) is not safe for concurrent use.
//
// Because the structure is BDD-like, it inherits BDD sensitivities: the
// size of an indicator pattern depends on how the program assigns
// entanglement channel sets to its variables (an equality indicator is
// linear-sized with interleaved operand sets and exponential with blocked
// ones — Bryant's classic ordering result, measured in
// core.TestVariableOrderingMatters), and functions with inherently large
// decision diagrams (middle bits of wide multiplication) do not compress
// under any order.
package rex

import (
	"fmt"

	"tangled/internal/aob"
)

// MaxWays bounds total entanglement so channel numbers stay comfortably
// within uint64 arithmetic.
const MaxWays = 62

// node is one hash-consed subtree covering 2^height chunks.
type node struct {
	id  uint64
	pop uint64 // 1-channels in this subtree (cached)
	// leaf (height 0): sym != nil. internal: lo/hi halves.
	sym    *aob.Vector
	lo, hi *node
}

// Space owns the node pool, symbol table and operation memos for one
// pattern geometry.
type Space struct {
	ways      int
	chunkWays int

	symbols aob.SymbolTable
	leaves  map[*aob.Vector]*node
	pairs   map[[2]uint64]*node
	opMemo  map[opKey]*node
	symMemo map[symOpKey]*aob.Vector
	nextID  uint64

	zeroSym *aob.Vector
	oneSym  *aob.Vector
	// zeroAt[h] caches the all-zero subtree of each height.
	zeroAt []*node
	oneAt  []*node
}

type opKey struct {
	op   byte
	a, b uint64
}

type symOpKey struct {
	op   byte
	a, b *aob.Vector
}

// NewSpace creates a Space for ways-way entanglement over 2^chunkWays-bit
// chunk symbols.
func NewSpace(ways, chunkWays int) (*Space, error) {
	if chunkWays < 0 || chunkWays > aob.MaxWays {
		return nil, fmt.Errorf("rex: chunkWays %d out of range [0,%d]", chunkWays, aob.MaxWays)
	}
	if ways < chunkWays {
		return nil, fmt.Errorf("rex: ways %d smaller than chunkWays %d", ways, chunkWays)
	}
	if ways > MaxWays {
		return nil, fmt.Errorf("rex: ways %d exceeds maximum %d", ways, MaxWays)
	}
	s := &Space{
		ways:      ways,
		chunkWays: chunkWays,
		leaves:    make(map[*aob.Vector]*node),
		pairs:     make(map[[2]uint64]*node),
		opMemo:    make(map[opKey]*node),
		symMemo:   make(map[symOpKey]*aob.Vector),
	}
	s.zeroSym = s.intern(aob.New(chunkWays))
	s.oneSym = s.intern(aob.OneVector(chunkWays))
	h := s.height()
	s.zeroAt = make([]*node, h+1)
	s.oneAt = make([]*node, h+1)
	s.zeroAt[0] = s.leaf(s.zeroSym)
	s.oneAt[0] = s.leaf(s.oneSym)
	for i := 1; i <= h; i++ {
		s.zeroAt[i] = s.mk(s.zeroAt[i-1], s.zeroAt[i-1])
		s.oneAt[i] = s.mk(s.oneAt[i-1], s.oneAt[i-1])
	}
	return s, nil
}

// MustSpace is NewSpace panicking on error (static geometry).
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

// Channels returns 2^ways.
func (s *Space) Channels() uint64 { return uint64(1) << uint(s.ways) }

// height is the tree height: the root covers 2^height chunks.
func (s *Space) height() int { return s.ways - s.chunkWays }

// chunkChannels is channels per leaf symbol.
func (s *Space) chunkChannels() uint64 { return uint64(1) << uint(s.chunkWays) }

// SymbolCount reports distinct interned chunk symbols.
func (s *Space) SymbolCount() int { return s.symbols.Len() }

// NodeCount reports the total hash-consed node pool size.
func (s *Space) NodeCount() int { return len(s.leaves) + len(s.pairs) }

// intern returns the canonical copy of sym, adopting it if unseen.
func (s *Space) intern(sym *aob.Vector) *aob.Vector { return s.symbols.Intern(sym) }

// leaf returns the canonical leaf node for an interned symbol.
func (s *Space) leaf(sym *aob.Vector) *node {
	if n, ok := s.leaves[sym]; ok {
		return n
	}
	s.nextID++
	n := &node{id: s.nextID, pop: sym.Pop(), sym: sym}
	s.leaves[sym] = n
	return n
}

// mk returns the canonical internal node over two halves.
func (s *Space) mk(lo, hi *node) *node {
	key := [2]uint64{lo.id, hi.id}
	if n, ok := s.pairs[key]; ok {
		return n
	}
	s.nextID++
	n := &node{id: s.nextID, pop: lo.pop + hi.pop, lo: lo, hi: hi}
	s.pairs[key] = n
	return n
}

// replicate builds the height-h tree tiling a single height-h0 subtree.
func (s *Space) replicate(n *node, from, to int) *node {
	for h := from; h < to; h++ {
		n = s.mk(n, n)
	}
	return n
}

// Pattern is one compressed pbit value: a root in the Space's shared node
// pool. Patterns are immutable; all operations return new roots.
type Pattern struct {
	sp   *Space
	root *node
}

// Space returns the owning Space.
func (p *Pattern) Space() *Space { return p.sp }

// Zero returns the all-zeros pattern.
func (s *Space) Zero() *Pattern { return &Pattern{sp: s, root: s.zeroAt[s.height()]} }

// One returns the all-ones pattern.
func (s *Space) One() *Pattern { return &Pattern{sp: s, root: s.oneAt[s.height()]} }

// Had returns the k-th Hadamard pattern (channel e holds bit k of e). Every
// k costs O(ways) shared nodes — including the k ≈ chunkWays band where
// flat run-length encoding needs 2^(ways-chunkWays) runs.
func (s *Space) Had(k int) *Pattern {
	if k < 0 || k >= s.ways {
		panic(fmt.Sprintf("rex: had index %d out of range [0,%d)", k, s.ways))
	}
	h := s.height()
	if k < s.chunkWays {
		n := s.replicate(s.leaf(s.intern(aob.HadVector(s.chunkWays, k))), 0, h)
		return &Pattern{sp: s, root: n}
	}
	// At height k-chunkWays+1 the subtree is (zeros, ones); above, tile it.
	hh := k - s.chunkWays + 1
	n := s.mk(s.zeroAt[hh-1], s.oneAt[hh-1])
	return &Pattern{sp: s, root: s.replicate(n, hh, h)}
}

// FromBits builds a pattern from an explicit channel-0-first bit slice of
// exactly 2^ways bits. Hash-consing canonicalizes any regularity
// automatically. Test helper; exponential input by nature.
func (s *Space) FromBits(bits []bool) (*Pattern, error) {
	if uint64(len(bits)) != s.Channels() {
		return nil, fmt.Errorf("rex: got %d bits, want %d", len(bits), s.Channels())
	}
	cc := s.chunkChannels()
	level := make([]*node, uint64(1)<<uint(s.height()))
	for ci := range level {
		v := aob.New(s.chunkWays)
		for off := uint64(0); off < cc; off++ {
			v.Set(off, bits[uint64(ci)*cc+off])
		}
		level[ci] = s.leaf(s.intern(v))
	}
	for len(level) > 1 {
		up := make([]*node, len(level)/2)
		for i := range up {
			up[i] = s.mk(level[2*i], level[2*i+1])
		}
		level = up
	}
	return &Pattern{sp: s, root: level[0]}, nil
}

func (p *Pattern) mustShareSpace(q *Pattern) {
	if p.sp != q.sp {
		panic("rex: patterns from different spaces")
	}
}

// symOp applies a chunk-level operation with memoization.
func (s *Space) symOp(op byte, a, b *aob.Vector) *aob.Vector {
	k := symOpKey{op, a, b}
	if got, ok := s.symMemo[k]; ok {
		return got
	}
	v := aob.New(s.chunkWays)
	switch op {
	case '&':
		v.And(a, b)
	case '|':
		v.Or(a, b)
	case '^':
		v.Xor(a, b)
	}
	sym := s.intern(v)
	s.symMemo[k] = sym
	s.symMemo[symOpKey{op, b, a}] = sym
	return sym
}

// apply runs a binary op over two trees, recursing only into distinct node
// pairs (memoized).
func (s *Space) apply(op byte, a, b *node) *node {
	k := opKey{op, a.id, b.id}
	if got, ok := s.opMemo[k]; ok {
		return got
	}
	var out *node
	if a.sym != nil {
		out = s.leaf(s.symOp(op, a.sym, b.sym))
	} else {
		out = s.mk(s.apply(op, a.lo, b.lo), s.apply(op, a.hi, b.hi))
	}
	s.opMemo[k] = out
	// Commutative ops hit from either order.
	s.opMemo[opKey{op, b.id, a.id}] = out
	return out
}

// And returns p AND q channel-wise.
func (p *Pattern) And(q *Pattern) *Pattern {
	p.mustShareSpace(q)
	return &Pattern{sp: p.sp, root: p.sp.apply('&', p.root, q.root)}
}

// Or returns p OR q channel-wise.
func (p *Pattern) Or(q *Pattern) *Pattern {
	p.mustShareSpace(q)
	return &Pattern{sp: p.sp, root: p.sp.apply('|', p.root, q.root)}
}

// Xor returns p XOR q channel-wise.
func (p *Pattern) Xor(q *Pattern) *Pattern {
	p.mustShareSpace(q)
	return &Pattern{sp: p.sp, root: p.sp.apply('^', p.root, q.root)}
}

// Not returns the channel-wise complement.
func (p *Pattern) Not() *Pattern {
	return &Pattern{sp: p.sp, root: p.sp.applyNot(p.root)}
}

func (s *Space) applyNot(n *node) *node {
	k := opKey{'~', n.id, 0}
	if got, ok := s.opMemo[k]; ok {
		return got
	}
	var out *node
	if n.sym != nil {
		sk := symOpKey{'~', n.sym, nil}
		sym, ok := s.symMemo[sk]
		if !ok {
			v := n.sym.Clone()
			v.Not()
			sym = s.intern(v)
			s.symMemo[sk] = sym
		}
		out = s.leaf(sym)
	} else {
		out = s.mk(s.applyNot(n.lo), s.applyNot(n.hi))
	}
	s.opMemo[k] = out
	return out
}

// Get returns the bit at channel ch (modulo the channel count).
func (p *Pattern) Get(ch uint64) bool {
	ch &= p.sp.Channels() - 1
	n := p.root
	for h := p.sp.height() - 1; h >= 0; h-- {
		if ch>>uint(h+p.sp.chunkWays)&1 == 1 {
			n = n.hi
		} else {
			n = n.lo
		}
	}
	return n.sym.Get(ch & (p.sp.chunkChannels() - 1))
}

// Meas returns Get as 0/1 — the non-destructive Qat meas.
func (p *Pattern) Meas(ch uint64) uint64 {
	if p.Get(ch) {
		return 1
	}
	return 0
}

// Pop returns the total 1-channel count (cached per node: O(1)).
func (p *Pattern) Pop() uint64 { return p.root.pop }

// Any reports whether any channel holds a 1 (O(1)).
func (p *Pattern) Any() bool { return p.root.pop != 0 }

// All reports whether every channel holds a 1 (O(1)).
func (p *Pattern) All() bool { return p.root.pop == p.sp.Channels() }

// firstOne returns the channel of the lowest 1 in subtree n (which must
// have pop > 0), with the subtree starting at channel base.
func (p *Pattern) firstOne(n *node, base uint64, h int) uint64 {
	for n.sym == nil {
		h--
		if n.lo.pop != 0 {
			n = n.lo
		} else {
			base += uint64(1) << uint(h+p.sp.chunkWays)
			n = n.hi
		}
	}
	if n.sym.Get(0) {
		return base
	}
	return base + n.sym.Next(0)
}

// Next returns the lowest channel strictly greater than ch holding a 1, or
// 0 if none — an O(height) descent.
func (p *Pattern) Next(ch uint64) uint64 {
	ch &= p.sp.Channels() - 1
	from := ch + 1
	if from >= p.sp.Channels() {
		return 0
	}
	res, ok := p.nextFrom(p.root, 0, p.sp.height(), from)
	if !ok {
		return 0
	}
	return res
}

// nextFrom finds the lowest 1-channel >= from within the subtree at
// [base, base + 2^(h+chunkWays)).
func (p *Pattern) nextFrom(n *node, base uint64, h int, from uint64) (uint64, bool) {
	if n.pop == 0 {
		return 0, false
	}
	span := uint64(1) << uint(h+p.sp.chunkWays)
	if from <= base {
		return p.firstOne(n, base, h), true
	}
	if from >= base+span {
		return 0, false
	}
	if n.sym != nil {
		local := from - base
		if n.sym.Get(local) {
			return from, true
		}
		if nx := n.sym.Next(local); nx != 0 && nx > local {
			return base + nx, true
		}
		return 0, false
	}
	half := span / 2
	if from < base+half {
		if r, ok := p.nextFrom(n.lo, base, h-1, from); ok {
			return r, true
		}
	}
	return p.nextFrom(n.hi, base+half, h-1, from)
}

// PopAfter counts 1 bits strictly above channel ch — an O(height) descent.
func (p *Pattern) PopAfter(ch uint64) uint64 {
	ch &= p.sp.Channels() - 1
	from := ch + 1
	if from >= p.sp.Channels() {
		return 0
	}
	return p.popFrom(p.root, 0, p.sp.height(), from)
}

// popFrom counts 1 bits at channels >= from within the subtree at base.
func (p *Pattern) popFrom(n *node, base uint64, h int, from uint64) uint64 {
	span := uint64(1) << uint(h+p.sp.chunkWays)
	if from <= base {
		return n.pop
	}
	if from >= base+span || n.pop == 0 {
		return 0
	}
	if n.sym != nil {
		local := from - base
		// Bits >= local: PopAfter(local-1) counts exactly those.
		return n.sym.PopAfter(local - 1)
	}
	half := span / 2
	return p.popFrom(n.lo, base, h-1, from) + p.popFrom(n.hi, base+half, h-1, from)
}

// Equal is semantic equality; hash-consing makes it a pointer comparison.
func (p *Pattern) Equal(q *Pattern) bool {
	return p.sp == q.sp && p.root == q.root
}

// NumNodes counts the distinct subtrees reachable from p — the compressed
// size, and the nesting depth of the equivalent regular expression.
func (p *Pattern) NumNodes() int {
	seen := map[uint64]bool{}
	var walk func(n *node)
	walk = func(n *node) {
		if seen[n.id] {
			return
		}
		seen[n.id] = true
		if n.sym == nil {
			walk(n.lo)
			walk(n.hi)
		}
	}
	walk(p.root)
	return len(seen)
}

// StorageBits estimates the compressed footprint: 192 bits of node header
// per distinct node plus each distinct leaf symbol's chunk.
func (p *Pattern) StorageBits() uint64 {
	seenN := map[uint64]bool{}
	seenS := map[*aob.Vector]bool{}
	var bits uint64
	var walk func(n *node)
	walk = func(n *node) {
		if seenN[n.id] {
			return
		}
		seenN[n.id] = true
		bits += 192
		if n.sym != nil {
			if !seenS[n.sym] {
				seenS[n.sym] = true
				bits += p.sp.chunkChannels()
			}
			return
		}
		walk(n.lo)
		walk(n.hi)
	}
	walk(p.root)
	return bits
}

// CompressionRatio returns uncompressed bits / compressed bits.
func (p *Pattern) CompressionRatio() float64 {
	return float64(p.sp.Channels()) / float64(p.StorageBits())
}

// String summarizes the pattern structurally.
func (p *Pattern) String() string {
	return fmt.Sprintf("rex{ways:%d nodes:%d pop:%d}", p.sp.ways, p.NumNodes(), p.Pop())
}
