// Package aob implements the Array-of-Bits (AoB) representation at the heart
// of the parallel bit pattern (PBP) model described in Dietz, "Tangled: A
// Conventional Processor Integrating A Quantum-Inspired Coprocessor"
// (ICPP Workshops 2021).
//
// An E-way entangled pbit value is stored as a vector of 2^E bits. Each bit
// position is an entanglement channel: the bit at channel c is the value this
// pbit takes in the joint outcome selected by c. Operations on AoB vectors
// are plain bitwise SIMD operations over the packed words, which is exactly
// how the Qat coprocessor's datapath treats them.
//
// The paper's Qat hardware fixes E = 16 (65,536-bit vectors); the student
// implementations used E = 8 (256-bit vectors). This package supports any
// 0 <= E <= MaxWays so both configurations — and everything smaller, which
// is handy for exhaustive testing — can be simulated.
package aob

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxWays is the maximum supported degree of entanglement. The paper's Qat
// coprocessor implements exactly 16-way entanglement; larger entanglement is
// meant to be layered on top using the RE representation (package re), with
// AoB vectors as its symbols.
const MaxWays = 16

// wordBits is the number of bits packed per storage word.
const wordBits = 64

// hadPats precomputes the six Hadamard patterns whose period fits inside one
// 64-bit word: hadPats[k] holds bit k of the bit index at every position
// (2^k zeros then 2^k ones, repeating). Had(k) for k < 6 is then a plain
// word fill instead of a 64-iteration bit build — the word-parallel (SWAR)
// form of the Figure 7 initializer.
var hadPats = [6]uint64{
	0xAAAAAAAAAAAAAAAA, // k=0: 01 repeating
	0xCCCCCCCCCCCCCCCC, // k=1: 0011 repeating
	0xF0F0F0F0F0F0F0F0, // k=2: 00001111 repeating
	0xFF00FF00FF00FF00, // k=3
	0xFFFF0000FFFF0000, // k=4
	0xFFFFFFFF00000000, // k=5
}

// Vector is an AoB value: a bit vector of exactly 2^ways bits packed into
// 64-bit words, least-significant channel first. A Vector with ways < 6
// occupies the low 2^ways bits of a single word; the unused high bits are
// kept zero as an invariant so that whole-word operations need no masking
// beyond the final word.
type Vector struct {
	ways  int
	words []uint64
}

// New returns an all-zero AoB vector supporting ways-way entanglement.
// It panics if ways is negative or exceeds MaxWays: Qat register width is a
// hardware parameter, so a bad value is a programming error, not an input
// error.
func New(ways int) *Vector {
	checkWays(ways)
	return &Vector{ways: ways, words: make([]uint64, wordsFor(ways))}
}

func checkWays(ways int) {
	if ways < 0 || ways > MaxWays {
		panic(fmt.Sprintf("aob: ways %d out of range [0,%d]", ways, MaxWays))
	}
}

// wordsFor returns the number of 64-bit words backing a 2^ways-bit vector.
func wordsFor(ways int) int {
	n := (uint64(1)<<uint(ways) + wordBits - 1) / wordBits
	return int(n)
}

// Ways returns the degree of entanglement E.
func (v *Vector) Ways() int { return v.ways }

// Channels returns the number of entanglement channels, 2^E.
func (v *Vector) Channels() uint64 { return uint64(1) << uint(v.ways) }

// chanMask returns the mask selecting valid channel numbers (Channels()-1).
func (v *Vector) chanMask() uint64 { return v.Channels() - 1 }

// lastWordMask returns the mask of valid bits in the final storage word.
func (v *Vector) lastWordMask() uint64 {
	if v.ways >= 6 {
		return ^uint64(0)
	}
	return (uint64(1) << v.Channels()) - 1
}

// clampTail zeroes the invalid high bits of the last word, restoring the
// packing invariant after a whole-word operation such as NOT.
func (v *Vector) clampTail() {
	v.words[len(v.words)-1] &= v.lastWordMask()
}

// Clone returns an independent copy of v.
func (v *Vector) Clone() *Vector {
	w := &Vector{ways: v.ways, words: make([]uint64, len(v.words))}
	copy(w.words, v.words)
	return w
}

// CopyFrom overwrites v with the contents of o. Both vectors must have the
// same number of ways.
func (v *Vector) CopyFrom(o *Vector) {
	v.mustMatch(o)
	copy(v.words, o.words)
}

func (v *Vector) mustMatch(o *Vector) {
	if v.ways != o.ways {
		panic(fmt.Sprintf("aob: mismatched ways %d vs %d", v.ways, o.ways))
	}
}

// Zero sets every channel of v to 0 (the Qat "zero @a" instruction).
func (v *Vector) Zero() {
	clear(v.words)
}

// One sets every channel of v to 1 (the Qat "one @a" instruction). The tail
// clamp is fused into the fill: the final word is written once, already
// masked.
func (v *Vector) One() {
	w := v.words
	last := len(w) - 1
	for i := 0; i < last; i++ {
		w[i] = ^uint64(0)
	}
	w[last] = v.lastWordMask()
}

// Had overwrites v with the k-th standard Hadamard initializer pattern (the
// Qat "had @a,k" instruction): channel e holds bit k of the binary
// representation of e, i.e. a repeating run of 2^k zeros followed by 2^k
// ones. It panics if k is outside [0, ways): the hardware has no pattern
// beyond the supported entanglement.
//
// The write is word-parallel in both regimes: patterns with sub-word period
// (k < 6) are a fill with a precomputed period word, wider ones are written
// as whole runs of 2^(k-6) zero words then one words, so no per-bit or
// per-word modular arithmetic survives on the hot path.
func (v *Vector) Had(k int) {
	if k < 0 || k >= v.ways {
		panic(fmt.Sprintf("aob: had channel-set index %d out of range [0,%d)", k, v.ways))
	}
	w := v.words
	if k >= 6 {
		// Whole words alternate between all-zero and all-one in runs of
		// 2^(k-6) words; len(w) is a multiple of 2*run because ways > k.
		run := 1 << uint(k-6)
		for i := 0; i < len(w); i += 2 * run {
			zero, one := w[i:i+run], w[i+run:i+2*run]
			for j := range zero {
				zero[j] = 0
			}
			for j := range one {
				one[j] = ^uint64(0)
			}
		}
		return
	}
	pat := hadPats[k]
	last := len(w) - 1
	for i := 0; i < last; i++ {
		w[i] = pat
	}
	w[last] = pat & v.lastWordMask()
}

// HadVector returns a fresh ways-way vector holding Hadamard pattern k.
func HadVector(ways, k int) *Vector {
	v := New(ways)
	v.Had(k)
	return v
}

// OneVector returns a fresh ways-way vector with every channel set.
func OneVector(ways int) *Vector {
	v := New(ways)
	v.One()
	return v
}

// Get returns the bit at entanglement channel ch. Channel numbers are taken
// modulo the channel count, mirroring how a hardware index register wider
// than the channel space would simply ignore the unused high bits.
func (v *Vector) Get(ch uint64) bool {
	ch &= v.chanMask()
	return (v.words[ch/wordBits]>>(ch%wordBits))&1 == 1
}

// Set writes the bit at entanglement channel ch (modulo the channel count).
// Qat itself has no single-bit write instruction — values are built with
// gates — but Set is essential for building test fixtures and for the RE
// layer's chunk surgery.
func (v *Vector) Set(ch uint64, bit bool) {
	ch &= v.chanMask()
	if bit {
		v.words[ch/wordBits] |= uint64(1) << (ch % wordBits)
	} else {
		v.words[ch/wordBits] &^= uint64(1) << (ch % wordBits)
	}
}

// Meas implements the Qat "meas $d,@a" instruction: it returns @a[$d] as the
// integer 0 or 1 without disturbing the superposition.
func (v *Vector) Meas(ch uint64) uint64 {
	if v.Get(ch) {
		return 1
	}
	return 0
}

// And, Or, Xor and CNot hand their words to the per-architecture kernels
// andWords, orWords and xorWords (SSE2 on amd64, portable word loops
// elsewhere). The operands are sliced to the destination length first, so a
// short operand panics here, before any kernel runs.
//
// The CCNot loop below re-slices its operands to the destination length up
// front (hoisting the bounds checks out of the loop) and runs four words
// per iteration with a scalar tail. On the paper's 16-way hardware a
// register is 1024 words, so the unrolled body carries essentially the
// whole operation.

// And sets v = a AND b channel-wise (Qat "and @a,@b,@c"). The operand
// vectors may alias v.
func (v *Vector) And(a, b *Vector) {
	v.mustMatch(a)
	v.mustMatch(b)
	andWords(v.words, a.words[:len(v.words)], b.words[:len(v.words)])
}

// Or sets v = a OR b channel-wise (Qat "or @a,@b,@c").
func (v *Vector) Or(a, b *Vector) {
	v.mustMatch(a)
	v.mustMatch(b)
	orWords(v.words, a.words[:len(v.words)], b.words[:len(v.words)])
}

// Xor sets v = a XOR b channel-wise (Qat "xor @a,@b,@c").
func (v *Vector) Xor(a, b *Vector) {
	v.mustMatch(a)
	v.mustMatch(b)
	xorWords(v.words, a.words[:len(v.words)], b.words[:len(v.words)])
}

// Not flips every channel of v in place (Qat "not @a", the Pauli-X analog).
// The tail clamp is fused into the complement: the final word is flipped and
// masked in one write instead of a second pass.
func (v *Vector) Not() {
	w := v.words
	last := len(w) - 1
	for i := 0; i < last; i++ {
		w[i] = ^w[i]
	}
	w[last] = ^w[last] & v.lastWordMask()
}

// CNot implements the Qat "cnot @a,@b" controlled-NOT: v ^= ctrl. The
// control vector is unchanged (unless it aliases v, which in hardware terms
// is "cnot @a,@a" and correctly zeroes the register).
func (v *Vector) CNot(ctrl *Vector) {
	v.mustMatch(ctrl)
	xorWords(v.words, v.words, ctrl.words[:len(v.words)])
}

// CCNot implements the Qat "ccnot @a,@b,@c" Toffoli analog:
// v ^= (b AND c). Both controls are unchanged.
func (v *Vector) CCNot(b, c *Vector) {
	v.mustMatch(b)
	v.mustMatch(c)
	vw := v.words
	bw, cw := b.words[:len(vw)], c.words[:len(vw)]
	i := 0
	for ; i+4 <= len(vw); i += 4 {
		vw[i] ^= bw[i] & cw[i]
		vw[i+1] ^= bw[i+1] & cw[i+1]
		vw[i+2] ^= bw[i+2] & cw[i+2]
		vw[i+3] ^= bw[i+3] & cw[i+3]
	}
	for ; i < len(vw); i++ {
		vw[i] ^= bw[i] & cw[i]
	}
}

// Swap exchanges the contents of v and o (Qat "swap @a,@b").
func (v *Vector) Swap(o *Vector) {
	v.mustMatch(o)
	vw := v.words
	ow := o.words[:len(vw)]
	for i := range vw {
		vw[i], ow[i] = ow[i], vw[i]
	}
}

// CSwap implements the Qat "cswap @a,@b,@c" Fredkin analog: channels of v
// and o are exchanged exactly where ctrl holds a 1. The control is
// unchanged. As the paper notes, this is a channel-wise 1-of-2 multiplexer
// and preserves the total population of v and o ("billiard-ball
// conservancy").
func (v *Vector) CSwap(o, ctrl *Vector) {
	v.mustMatch(o)
	v.mustMatch(ctrl)
	vw := v.words
	ow, cw := o.words[:len(vw)], ctrl.words[:len(vw)]
	for i := range vw {
		diff := (vw[i] ^ ow[i]) & cw[i]
		vw[i] ^= diff
		ow[i] ^= diff
	}
}

// Next implements the Qat "next $d,@a" instruction: it returns the lowest
// entanglement channel number strictly greater than ch that holds a 1, or 0
// if no such channel exists. This is the paper's O(1)-summary replacement
// for the ANY/ALL/POP reductions of the earlier software-only PBP system.
func (v *Vector) Next(ch uint64) uint64 {
	ch &= v.chanMask()
	// Scan the word containing ch with the low bits (<= ch) masked off,
	// then whole words.
	wi := int(ch / wordBits)
	within := ch % wordBits
	w := v.words[wi]
	if within != wordBits-1 {
		w &= ^uint64(0) << (within + 1)
	} else {
		w = 0
	}
	for {
		if w != 0 {
			return uint64(wi*wordBits + bits.TrailingZeros64(w))
		}
		wi++
		if wi >= len(v.words) {
			return 0
		}
		w = v.words[wi]
	}
}

// PopAfter implements the proposed (but unbuilt in the class projects) Qat
// "pop" instruction: the count of 1 bits in channels strictly greater than
// ch. The paper splits POP into PopAfter(0) + Meas(0) so the result of a
// full population count of 2^16 ones cannot overflow a 16-bit register
// undetected.
func (v *Vector) PopAfter(ch uint64) uint64 {
	ch &= v.chanMask()
	wi := int(ch / wordBits)
	within := ch % wordBits
	w := v.words[wi]
	if within != wordBits-1 {
		w &= ^uint64(0) << (within + 1)
	} else {
		w = 0
	}
	return uint64(bits.OnesCount64(w)) + popWords(v.words[wi+1:])
}

// Pop returns the total population count: the number of channels holding 1,
// i.e. the probability of this pbit being 1 in parts per 2^E.
func (v *Vector) Pop() uint64 {
	return popWords(v.words)
}

// popWords is the batched OnesCount64 reduction shared by Pop and PopAfter:
// four independent popcount accumulators per iteration so the counts issue
// in parallel instead of serializing on one add chain.
func popWords(w []uint64) uint64 {
	var n0, n1, n2, n3 int
	i := 0
	for ; i+4 <= len(w); i += 4 {
		n0 += bits.OnesCount64(w[i])
		n1 += bits.OnesCount64(w[i+1])
		n2 += bits.OnesCount64(w[i+2])
		n3 += bits.OnesCount64(w[i+3])
	}
	for ; i < len(w); i++ {
		n0 += bits.OnesCount64(w[i])
	}
	return uint64(n0 + n1 + n2 + n3)
}

// Any reports whether any channel holds a 1 (the ANY reduction). The
// hardware composes it as Next past channel 0 OR Meas of channel 0; a direct
// word scan computes the identical answer without the trailing-zero
// bookkeeping, exiting at the first nonzero word.
func (v *Vector) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// All reports whether every channel holds a 1 (the ALL reduction),
// NOT(ANY(NOT v)) per the paper. Complementing word by word against the tail
// mask makes the check allocation-free: every non-final word must be all
// ones, the final word must match the valid-bit mask exactly.
func (v *Vector) All() bool {
	w := v.words
	last := len(w) - 1
	for i := 0; i < last; i++ {
		if w[i] != ^uint64(0) {
			return false
		}
	}
	return w[last] == v.lastWordMask()
}

// Equal reports whether v and o hold identical bit patterns. Vectors of
// different ways are never equal.
func (v *Vector) Equal(o *Vector) bool {
	if v.ways != o.ways {
		return false
	}
	for i := range v.words {
		if v.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Word returns the i-th 64-bit storage word. It exists so the RE layer can
// hash and compare chunks without re-extracting bits one at a time.
func (v *Vector) Word(i int) uint64 { return v.words[i] }

// NumWords returns the number of 64-bit storage words.
func (v *Vector) NumWords() int { return len(v.words) }

// SetWord stores w as the i-th 64-bit storage word, clamping any bits beyond
// the channel count.
func (v *Vector) SetWord(i int, w uint64) {
	v.words[i] = w
	v.clampTail()
}

// String renders small vectors as a channel-0-first bit string, e.g. "0101"
// for Had pattern 0 at 2 ways, and summarizes large ones.
func (v *Vector) String() string {
	n := v.Channels()
	if n <= 64 {
		var b strings.Builder
		for ch := uint64(0); ch < n; ch++ {
			if v.Get(ch) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		return b.String()
	}
	return fmt.Sprintf("aob{ways:%d pop:%d}", v.ways, v.Pop())
}

// Bits returns the channels as a []bool, channel 0 first. Intended for tests
// and small examples.
func (v *Vector) Bits() []bool {
	out := make([]bool, v.Channels())
	for ch := range out {
		out[ch] = v.Get(uint64(ch))
	}
	return out
}

// FromBits builds a vector of the given ways from a channel-0-first bit
// slice. Missing trailing channels are zero; extra entries panic.
func FromBits(ways int, bitvals []bool) *Vector {
	v := New(ways)
	if uint64(len(bitvals)) > v.Channels() {
		panic(fmt.Sprintf("aob: %d bits exceed %d channels", len(bitvals), v.Channels()))
	}
	for ch, b := range bitvals {
		v.Set(uint64(ch), b)
	}
	return v
}

// FromString builds a vector from a channel-0-first string of '0'/'1'
// characters, e.g. "0011" for Had pattern 1 at 2 ways.
func FromString(ways int, s string) (*Vector, error) {
	v := New(ways)
	if uint64(len(s)) > v.Channels() {
		return nil, fmt.Errorf("aob: %d bits exceed %d channels", len(s), v.Channels())
	}
	for i, c := range s {
		switch c {
		case '0':
		case '1':
			v.Set(uint64(i), true)
		default:
			return nil, fmt.Errorf("aob: invalid bit character %q at %d", c, i)
		}
	}
	return v, nil
}
