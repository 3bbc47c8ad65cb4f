// Package compile translates word-level PBP programs (the Figure 9 pint
// layer) into gate-level Tangled/Qat assembly — the role played in the
// paper by the "software-only PBP implementation ... slightly modified to
// output the gate-level operations rather than to perform them". Its
// flagship output is the complete prime-factoring program of Figure 10.
//
// The compiler builds word arithmetic from single-pbit gate instructions:
// ripple-carry adders, shift-add multipliers and equality trees over Qat
// registers. Constant pbits fold at compile time, so multiplying by a
// Hadamard operand emits only the gates that can actually toggle — the
// "aggressive bit-level compiler optimization" the paper's conclusions
// call for. Register handles are reference counted, because folding can
// alias one register behind several word-level values.
//
// Options reproduce the Section 5 design ablations:
//
//   - Reuse: the paper's generator "greedily uses registers so that every
//     intermediate computation's value is still available ... far fewer
//     registers, and fewer instructions, could have been used". Reuse=false
//     reproduces the faithful greedy-no-reuse allocation; Reuse=true frees
//     dead intermediates back to the allocator.
//   - ConstantRegs: draw 0/1/H(k) from the reserved constant registers
//     (@0, @1, @2+k) instead of emitting zero/one/had instructions.
//   - Reversible: restrict code generation to the reversible gate set
//     (not/cnot/ccnot plus register copies), quantifying the overhead the
//     irreversible and/or/xor instructions avoid.
package compile

import (
	"fmt"
	"math/bits"
	"strings"

	"tangled/internal/isa"
	"tangled/internal/qat"
)

// Options configures code generation; the zero value is the paper-faithful
// configuration (greedy no-reuse allocation, instruction initializers,
// irreversible gates).
type Options struct {
	Reuse        bool
	ConstantRegs bool
	Reversible   bool
}

type kind uint8

const (
	kindConst0 kind = iota
	kindConst1
	kindReg
)

// cell is a reference-counted Qat register binding.
type cell struct {
	reg  uint8
	refs int
}

// Pbit is a compile-time handle to a pbit value: either a folded constant
// (occupying no register) or a share of a Qat register. Each handle must be
// released with Compiler.Free exactly once (constants tolerate any number).
type Pbit struct {
	k kind
	c *cell
}

// IsConst reports whether the pbit folded to a compile-time constant.
func (p Pbit) IsConst() bool { return p.k != kindReg }

// ConstVal returns the folded constant (0 or 1); only valid when IsConst.
func (p Pbit) ConstVal() uint64 {
	if p.k == kindConst1 {
		return 1
	}
	return 0
}

// share returns an additional handle to the same register.
func (p Pbit) share() Pbit {
	if p.k == kindReg {
		p.c.refs++
	}
	return p
}

// Pint is a compiled pattern integer: pbits, least significant first.
type Pint struct {
	Bits []Pbit
}

// Width returns the bit width.
func (p Pint) Width() int { return len(p.Bits) }

// Compiler accumulates generated assembly.
type Compiler struct {
	ways    int
	opts    Options
	lines   []string
	nextReg int
	free    []uint8
	inUse   int
	maxUse  int
	opCount map[string]int
	err     error
}

// New returns a compiler for a Qat of the given entanglement degree.
func New(ways int, opts Options) *Compiler {
	c := &Compiler{ways: ways, opts: opts, opCount: make(map[string]int)}
	if opts.ConstantRegs {
		// Registers 0..1+ways hold the constant bank.
		c.nextReg = 2 + ways
	}
	return c
}

// Err returns the first code-generation error (e.g. register exhaustion).
func (c *Compiler) Err() error { return c.err }

// Asm returns the generated assembly text.
func (c *Compiler) Asm() string { return strings.Join(c.lines, "\n") + "\n" }

// InstCount returns the number of generated instructions.
func (c *Compiler) InstCount() int {
	n := 0
	for _, v := range c.opCount {
		n += v
	}
	return n
}

// OpCount returns per-mnemonic instruction counts.
func (c *Compiler) OpCount() map[string]int {
	out := make(map[string]int, len(c.opCount))
	for k, v := range c.opCount {
		out[k] = v
	}
	return out
}

// RegsUsed returns the register demand of the generated code: in reuse
// mode, the peak number of simultaneously live registers; in the paper's
// greedy no-reuse mode, the total number of distinct registers touched
// (Figure 10 touches @0..@80 — 81 registers). The constant bank counts
// when in use.
func (c *Compiler) RegsUsed() int {
	if !c.opts.Reuse {
		return c.nextReg
	}
	if c.opts.ConstantRegs {
		return c.maxUse + 2 + c.ways
	}
	return c.maxUse
}

func (c *Compiler) emit(format string, args ...interface{}) {
	line := fmt.Sprintf(format, args...)
	mn := line
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mn = line[:i]
	}
	c.opCount[mn]++
	c.lines = append(c.lines, line)
}

// Comment adds an assembly comment line (not counted as an instruction).
func (c *Compiler) Comment(text string) {
	c.lines = append(c.lines, "; "+text)
}

// alloc grabs a fresh (or recycled) Qat register as a new 1-ref cell.
func (c *Compiler) alloc() Pbit {
	var r uint8
	if n := len(c.free); c.opts.Reuse && n > 0 {
		r = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		if c.nextReg >= isa.NumQRegs {
			if c.err == nil {
				c.err = fmt.Errorf("compile: out of Qat registers (%d allocated; try Options.Reuse)", c.nextReg)
			}
			return Pbit{k: kindConst0}
		}
		r = uint8(c.nextReg)
		c.nextReg++
	}
	c.inUse++
	if c.inUse > c.maxUse {
		c.maxUse = c.inUse
	}
	return Pbit{k: kindReg, c: &cell{reg: r, refs: 1}}
}

// Free releases one handle; the register returns to the allocator when the
// last handle drops (and only in Reuse mode).
func (c *Compiler) Free(p Pbit) {
	if p.k != kindReg {
		return
	}
	p.c.refs--
	if p.c.refs < 0 {
		if c.err == nil {
			c.err = fmt.Errorf("compile: double free of @%d", p.c.reg)
		}
		return
	}
	if p.c.refs == 0 {
		c.inUse--
		if c.opts.Reuse {
			c.free = append(c.free, p.c.reg)
		}
	}
}

// FreeInt releases all bits of a pint.
func (c *Compiler) FreeInt(p Pint) {
	for _, b := range p.Bits {
		c.Free(b)
	}
}

// Const returns the constant pbit 0 or 1 (folded; no code emitted).
func (c *Compiler) Const(bit uint64) Pbit {
	if bit&1 == 1 {
		return Pbit{k: kindConst1}
	}
	return Pbit{k: kindConst0}
}

// materialize forces a pbit into a register, emitting an initializer for
// folded constants. The input handle is consumed; the result is fresh.
func (c *Compiler) materialize(p Pbit) Pbit {
	if p.k == kindReg {
		return p
	}
	out := c.alloc()
	if out.k != kindReg {
		return out
	}
	if c.opts.ConstantRegs {
		src := qat.ConstZeroReg()
		if p.k == kindConst1 {
			src = qat.ConstOneReg()
		}
		c.copyInto(out.c.reg, src)
	} else if p.k == kindConst1 {
		c.emit("one @%d", out.c.reg)
	} else {
		c.emit("zero @%d", out.c.reg)
	}
	return out
}

// Reg exposes the register backing p, materializing a constant first (the
// handle is updated in place).
func (c *Compiler) Reg(p *Pbit) uint8 {
	*p = c.materialize(*p)
	return p.c.reg
}

// Had returns a pbit holding Hadamard pattern k.
func (c *Compiler) Had(k int) Pbit {
	if k < 0 || k >= c.ways {
		if c.err == nil {
			c.err = fmt.Errorf("compile: had index %d out of range [0,%d)", k, c.ways)
		}
		return Pbit{k: kindConst0}
	}
	out := c.alloc()
	if out.k != kindReg {
		return out
	}
	if c.opts.ConstantRegs {
		c.copyInto(out.c.reg, qat.ConstHadReg(k))
	} else {
		c.emit("had @%d,%d", out.c.reg, k)
	}
	return out
}

// copyInto emits a register copy. The default is the paper's
// "or @d,@s,@s" idiom; in reversible mode the copy is built from
// reversible primitives as zero-then-cnot (a fresh register XORed with the
// source), which an adiabatic implementation can run without erasure of
// live data.
func (c *Compiler) copyInto(dst, src uint8) {
	if c.opts.Reversible {
		c.zeroRaw(dst)
		c.emit("cnot @%d,@%d", dst, src)
		return
	}
	c.emit("or @%d,@%d,@%d", dst, src, src)
}

// zeroRaw clears a register with the direct initializer, regardless of
// gate-set options (used below the copy abstraction to avoid recursion).
func (c *Compiler) zeroRaw(r uint8) {
	if c.opts.ConstantRegs {
		z := qat.ConstZeroReg()
		c.emit("or @%d,@%d,@%d", r, z, z)
	} else {
		c.emit("zero @%d", r)
	}
}

// And returns a AND b with constant folding. Inputs remain owned by the
// caller; the result is a new handle (possibly sharing an input register).
func (c *Compiler) And(a, b Pbit) Pbit {
	switch {
	case a.k == kindConst0 || b.k == kindConst0:
		return Pbit{k: kindConst0}
	case a.k == kindConst1:
		return b.share()
	case b.k == kindConst1:
		return a.share()
	}
	out := c.alloc()
	if out.k != kindReg {
		return out
	}
	if c.opts.Reversible {
		// zero t ; ccnot t,a,b  =>  t = 0 XOR (a AND b).
		c.zeroReg(out.c.reg)
		c.emit("ccnot @%d,@%d,@%d", out.c.reg, a.c.reg, b.c.reg)
	} else {
		c.emit("and @%d,@%d,@%d", out.c.reg, a.c.reg, b.c.reg)
	}
	return out
}

func (c *Compiler) zeroReg(r uint8) { c.zeroRaw(r) }

// Or returns a OR b with constant folding.
func (c *Compiler) Or(a, b Pbit) Pbit {
	switch {
	case a.k == kindConst1 || b.k == kindConst1:
		return Pbit{k: kindConst1}
	case a.k == kindConst0:
		return b.share()
	case b.k == kindConst0:
		return a.share()
	}
	if c.opts.Reversible {
		// De Morgan from reversible primitives.
		na := c.Not(a)
		nb := c.Not(b)
		t := c.And(na, nb)
		c.Free(na)
		c.Free(nb)
		out := c.Not(t)
		c.Free(t)
		return out
	}
	out := c.alloc()
	if out.k != kindReg {
		return out
	}
	c.emit("or @%d,@%d,@%d", out.c.reg, a.c.reg, b.c.reg)
	return out
}

// Xor returns a XOR b with constant folding.
func (c *Compiler) Xor(a, b Pbit) Pbit {
	switch {
	case a.k == kindConst0:
		return b.share()
	case b.k == kindConst0:
		return a.share()
	case a.k == kindConst1:
		return c.Not(b)
	case b.k == kindConst1:
		return c.Not(a)
	}
	out := c.alloc()
	if out.k != kindReg {
		return out
	}
	if c.opts.Reversible {
		c.copyInto(out.c.reg, a.c.reg)
		c.emit("cnot @%d,@%d", out.c.reg, b.c.reg)
	} else {
		c.emit("xor @%d,@%d,@%d", out.c.reg, a.c.reg, b.c.reg)
	}
	return out
}

// Not returns NOT a, preserving a (fresh register, copy-then-invert — the
// idiom visible at the end of Figure 10: "or @80,@79,@79 ... not @80").
func (c *Compiler) Not(a Pbit) Pbit {
	switch a.k {
	case kindConst0:
		return Pbit{k: kindConst1}
	case kindConst1:
		return Pbit{k: kindConst0}
	}
	out := c.alloc()
	if out.k != kindReg {
		return out
	}
	c.copyInto(out.c.reg, a.c.reg)
	c.emit("not @%d", out.c.reg)
	return out
}

// MkInt builds the width-bit constant pint (no code; constants fold).
func (c *Compiler) MkInt(width int, value uint64) Pint {
	out := Pint{Bits: make([]Pbit, width)}
	for i := range out.Bits {
		out.Bits[i] = c.Const(value >> uint(i))
	}
	return out
}

// HInt builds a width-bit Hadamard pint over the channel sets named by the
// set bits of mask — the compiled pint_h.
func (c *Compiler) HInt(width int, mask uint64) Pint {
	if bits.OnesCount64(mask) != width && c.err == nil {
		c.err = fmt.Errorf("compile: H mask %#x names %d sets, want %d", mask, bits.OnesCount64(mask), width)
	}
	out := Pint{Bits: make([]Pbit, 0, width)}
	for k := 0; k < 64 && len(out.Bits) < width; k++ {
		if (mask>>uint(k))&1 == 1 {
			out.Bits = append(out.Bits, c.Had(k))
		}
	}
	return out
}

// AddInt returns a + b, one bit wider than the wider input. The inputs
// remain owned by the caller.
func (c *Compiler) AddInt(a, b Pint) Pint {
	w := len(a.Bits)
	if len(b.Bits) > w {
		w = len(b.Bits)
	}
	bit := func(p Pint, i int) Pbit {
		if i < len(p.Bits) {
			return p.Bits[i]
		}
		return c.Const(0)
	}
	out := Pint{Bits: make([]Pbit, w+1)}
	carry := c.Const(0)
	for i := 0; i < w; i++ {
		ai, bi := bit(a, i), bit(b, i)
		axb := c.Xor(ai, bi)
		out.Bits[i] = c.Xor(axb, carry)
		ab := c.And(ai, bi)
		cx := c.And(carry, axb)
		newCarry := c.Or(ab, cx)
		c.Free(axb)
		c.Free(ab)
		c.Free(cx)
		c.Free(carry)
		carry = newCarry
	}
	out.Bits[w] = carry
	return out
}

// MulInt returns the full-width product a*b via gated shift-add. Inputs
// remain owned by the caller.
func (c *Compiler) MulInt(a, b Pint) Pint {
	wa, wb := len(a.Bits), len(b.Bits)
	acc := c.MkInt(wa+wb, 0)
	for j := 0; j < wb; j++ {
		pp := Pint{Bits: make([]Pbit, wa+wb)}
		for i := range pp.Bits {
			pp.Bits[i] = c.Const(0)
		}
		for i := 0; i < wa; i++ {
			pp.Bits[i+j] = c.And(a.Bits[i], b.Bits[j])
		}
		sum := c.AddInt(acc, pp)
		c.FreeInt(acc)
		c.FreeInt(pp)
		c.Free(sum.Bits[wa+wb]) // the product cannot overflow full width
		sum.Bits = sum.Bits[:wa+wb]
		acc = sum
	}
	return acc
}

// EqInt returns the single pbit (a == b), zero-extending the narrower.
// Inputs remain owned by the caller.
func (c *Compiler) EqInt(a, b Pint) Pbit {
	w := len(a.Bits)
	if len(b.Bits) > w {
		w = len(b.Bits)
	}
	bit := func(p Pint, i int) Pbit {
		if i < len(p.Bits) {
			return p.Bits[i]
		}
		return c.Const(0)
	}
	acc := c.Const(1)
	for i := 0; i < w; i++ {
		ai, bi := bit(a, i), bit(b, i)
		var eq Pbit
		switch {
		case ai.k == kindConst1:
			eq = bi.share()
		case ai.k == kindConst0:
			eq = c.Not(bi)
		case bi.k == kindConst1:
			eq = ai.share()
		case bi.k == kindConst0:
			eq = c.Not(ai)
		default:
			x := c.Xor(ai, bi)
			eq = c.Not(x)
			c.Free(x)
		}
		newAcc := c.And(acc, eq)
		c.Free(eq)
		c.Free(acc)
		acc = newAcc
	}
	return acc
}

// FactorResult describes a generated factoring program.
type FactorResult struct {
	// Asm is the complete runnable program: generated gates plus the
	// hand-written measurement tail and halt, as in Figure 10.
	Asm string
	// EReg is the Qat register holding the indicator pbit e.
	EReg uint8
	// QatInsts counts the generated gate-level instructions.
	QatInsts int
	// RegsUsed is the peak Qat register demand.
	RegsUsed int
}

// FactorProgram generates the complete Tangled/Qat prime-factoring program
// for n with aBits x bBits Hadamard operands (Figure 10 is n=15, 4x4 on
// 8-way Qat). After execution, Tangled registers $4 and $1 hold the two
// nontrivial factors — for 15: 5 and 3. (The paper leaves them in $0 and
// $1; a runnable image must reuse $0 as the sys-halt selector, so the $0
// factor is parked in $4.)
func FactorProgram(n uint64, ways, aBits, bBits int, opts Options) (*FactorResult, error) {
	if aBits+bBits > ways {
		return nil, fmt.Errorf("compile: %d+%d operand bits exceed %d-way entanglement", aBits, bBits, ways)
	}
	if n >= uint64(1)<<uint(aBits) {
		return nil, fmt.Errorf("compile: n=%d does not fit the %d-bit first operand", n, aBits)
	}
	c := New(ways, opts)
	c.Comment(fmt.Sprintf("factor %d: b (%d bits, sets 0-%d) x c (%d bits, sets %d-%d)",
		n, aBits, aBits-1, bBits, aBits, aBits+bBits-1))
	b := c.HInt(aBits, uint64(1)<<uint(aBits)-1)
	cc := c.HInt(bBits, (uint64(1)<<uint(bBits)-1)<<uint(aBits))
	d := c.MulInt(b, cc)
	a := c.MkInt(aBits, n)
	e := c.EqInt(d, a)
	if opts.Reuse {
		c.FreeInt(d)
		c.FreeInt(a)
	}
	if c.Err() != nil {
		return nil, c.Err()
	}
	eReg := c.Reg(&e)
	qatInsts := c.InstCount()

	// Hand-written measurement tail (cf. Figure 10): skip the trivial
	// factorizations (1*n lives at a high channel; n*1 at channel
	// n + 2^aBits), then pull the two nontrivial factor channels and mask
	// to the b operand — "the last two and operations are implementing the
	// k%16 operation".
	skip := n + uint64(1)<<uint(aBits)
	mask := uint64(1)<<uint(aBits) - 1
	var tail strings.Builder
	tail.WriteString("; measurement tail\n")
	fmt.Fprintf(&tail, "loadi $0,%d\n", skip)
	fmt.Fprintf(&tail, "next $0,@%d\n", eReg)
	tail.WriteString("copy $1,$0\n")
	fmt.Fprintf(&tail, "next $1,@%d\n", eReg)
	fmt.Fprintf(&tail, "loadi $2,%d\n", mask)
	tail.WriteString("and $0,$2\n")
	tail.WriteString("and $1,$2\n")
	// The paper's program ends here with the factors in $0 and $1. To make
	// the image runnable we must halt, and sys reads its selector from $0 —
	// so the $0 factor is preserved in $4 across the halt.
	tail.WriteString("copy $4,$0\nlex $0,0\nsys\n")

	return &FactorResult{
		Asm:      c.Asm() + tail.String(),
		EReg:     eReg,
		QatInsts: qatInsts,
		RegsUsed: c.RegsUsed(),
	}, c.Err()
}
