// Package profile is the static entanglement and cost profiler: an abstract
// interpretation over the lint CFG (lint.AnalyzeWithFacts) that computes,
// per program, a sound upper bound on the entanglement degree every Qat
// register can reach, the entangled channel groups, and static
// switched/erased-bit energy bounds via energy.StaticCost.
//
// The degree analysis tracks, for each Qat register, the set of channel
// bits its value can depend on — a bitmask over the 2^ways solution
// channels' index bits. The loader zeroes the register file, so every set
// starts empty; `had k` creates dependence {k}; the binary gates union
// their operands' sets; `zero`/`one` re-initialization splits a register
// back to the empty set; CFG merge points join by set union; and an
// unresolved indirect jump (lint's imprecise mode) widens everything to the
// full width, because control may enter any block — even mid-block — with
// arbitrary register state. The bound is sound: the dynamically observed
// degree (the number of channel bits a register's dense vector actually
// varies over, see oracle.MaxEntanglementDegree) never exceeds it — the
// differential suite proves this over the whole farmtest corpus.
//
// The profile is attached to the originating lint.Facts as Facts.Profile.
// It explains: qatlint -profile prints it, and the backend auto-planner
// (internal/backend) attaches it to the error for a width no backend can
// serve (the HTTP 422 body).
package profile

import (
	"math/bits"

	"tangled/internal/energy"
	"tangled/internal/isa"
	"tangled/internal/lint"
	"tangled/internal/qat"
)

// Options parameterizes a profile computation.
type Options struct {
	// Ways is the execution width the profile assumes; 0 means the width the
	// facts were analyzed at (Facts.Ways). It may exceed Facts.Ways: lint
	// clamps its cost model to dense hardware, but the RE backend executes
	// up to qat.MaxREWays, and the planner profiles at the requested width.
	Ways int
	// ConstantRegs assumes the Section 5 constant-register variant: the
	// entry state seeds @1 = one and @(2+k) = had k instead of all-zero.
	ConstantRegs bool
}

// depset is the channel-dependence set of one register: bit k set means the
// register's value may depend on channel index bit k. qat.MaxREWays <= 32.
type depset = uint32

// Compute derives the static profile from f and attaches it as f.Profile.
// It never fails: an empty or imprecise program yields a conservative
// profile (degree widened to the full width).
func Compute(f *lint.Facts, opts Options) *lint.Profile {
	ways := opts.Ways
	if ways <= 0 {
		ways = f.Ways
	}
	if ways > qat.MaxREWays {
		ways = qat.MaxREWays
	}
	p := &lint.Profile{Ways: ways, Imprecise: f.Imprecise}
	top := depset(1)<<uint(ways) - 1

	c := &computer{f: f, opts: opts, ways: ways, top: top, p: p}
	for k := range c.comp {
		c.comp[k] = 1 << uint(k)
	}
	c.countOps()
	if f.Imprecise {
		c.widenAll()
	} else {
		c.track()
		c.fixpoint()
	}
	c.walkBlocks()
	c.finish()
	f.Profile = p
	return p
}

// computer is one profile computation. Its degree analysis costs time
// proportional to instructions plus blocks times tracked registers: block
// entry states and joins cover only the tracked registers (every other
// register stays empty everywhere), and after an instruction only the
// registers it writes are observed — any other register still holds a
// value observed at block entry or at its last write, and observing a
// value twice changes nothing.
type computer struct {
	f    *lint.Facts
	opts Options
	ways int
	top  depset
	p    *lint.Profile

	// touched marks registers referenced by any reachable Qat instruction.
	touched [isa.NumQRegs]bool
	// regs lists the tracked registers, ascending (see track).
	regs []uint8
	// in holds the per-block entry dependence sets over regs, len(regs)
	// per block, once fixpoint runs.
	in []depset
	// regMax/regUnion accumulate the per-register degree bound and the union
	// of channels it ever depends on.
	regMax   [isa.NumQRegs]int
	regUnion [isa.NumQRegs]depset
	// comp[k] is the set of channels entangled with channel k so far: the
	// union-find over channel bits, kept as one mask per channel.
	comp [qat.MaxREWays]depset
}

// countOps tallies reachable instructions and marks Qat-touched registers.
func (c *computer) countOps() {
	for i := range c.f.Insts {
		fi := &c.f.Insts[i]
		if !fi.Reachable {
			continue
		}
		c.p.Insts++
		if !fi.Inst.Op.IsQat() {
			continue
		}
		c.p.QatOps++
		for _, q := range fi.Eff.QReads[:fi.Eff.NQReads] {
			c.touched[q] = true
		}
		for _, q := range fi.Eff.QWrites[:fi.Eff.NQWrites] {
			c.touched[q] = true
		}
		if fi.Inst.Op == isa.OpQHad {
			if k := int(fi.Inst.K) + 1; k <= c.ways && k > c.p.RequiredWays {
				c.p.RequiredWays = k
			}
		}
	}
}

// seed is register q's dependence set in the loader's state: empty, or a
// had seed in the constant-register variant.
func (c *computer) seed(q int) depset {
	if k := q - 2; c.opts.ConstantRegs && k >= 0 && k < c.ways {
		return 1 << uint(k)
	}
	return 0
}

// track lists the registers whose dependence sets can be non-empty: the
// Qat-touched ones, which every write hits, and the ones the entry state
// seeds. A reachable non-entry block without predecessors (defensive:
// precise graphs reach every non-entry block through an edge) enters with
// every register at the full width, so then every register is tracked.
func (c *computer) track() {
	all := false
	entry := c.entryBlock()
	for b := range c.f.Blocks {
		if b != entry && len(c.f.Blocks[b].Preds) == 0 {
			all = true
		}
	}
	c.regs = make([]uint8, 0, isa.NumQRegs)
	for q := 0; q < isa.NumQRegs; q++ {
		if all || c.touched[q] || c.seed(q) != 0 {
			c.regs = append(c.regs, uint8(q))
		}
	}
}

// entryBlock locates the block executing first (contains address 0), -1
// when address 0 decodes to nothing.
func (c *computer) entryBlock() int {
	i, ok := c.f.ByAddr(0)
	if !ok {
		return -1
	}
	return c.f.Insts[i].Block
}

// entryState returns block b's entry sets over c.regs.
func (c *computer) entryState(b int) []depset {
	k := len(c.regs)
	return c.in[b*k : (b+1)*k]
}

// load expands block b's entry sets into the full register state st.
// Untracked registers are never written, so they stay empty in st.
func (c *computer) load(st *[isa.NumQRegs]depset, b int) {
	for i, d := range c.entryState(b) {
		st[c.regs[i]] = d
	}
}

// fixpoint runs the forward dataflow to a fixed point: block entry states
// join predecessors by union, transfer walks each block, and the finite
// union lattice guarantees termination.
func (c *computer) fixpoint() {
	n := len(c.f.Blocks)
	c.in = make([]depset, n*len(c.regs))
	entry := c.entryBlock()
	for b := 0; b < n; b++ {
		in := c.entryState(b)
		if b == entry {
			for i, q := range c.regs {
				in[i] = c.seed(int(q))
			}
		} else if len(c.f.Blocks[b].Preds) == 0 {
			// A reachable block no edge enters: assume the worst.
			for i := range in {
				in[i] = c.top
			}
		}
	}
	work := make([]int, 0, n)
	queued := make([]bool, n)
	for b := 0; b < n; b++ {
		work = append(work, b)
		queued[b] = true
	}
	var st [isa.NumQRegs]depset
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		c.load(&st, b)
		for _, ii := range c.f.Blocks[b].Insts {
			c.transfer(&st, &c.f.Insts[ii])
		}
		for _, s := range c.f.Blocks[b].Succs {
			in := c.entryState(s)
			changed := false
			for i, q := range c.regs {
				if in[i]|st[q] != in[i] {
					in[i] |= st[q]
					changed = true
				}
			}
			if changed && !queued[s] {
				work = append(work, s)
				queued[s] = true
			}
		}
	}
}

// transfer applies one instruction's dependence-set semantics in place.
func (c *computer) transfer(st *[isa.NumQRegs]depset, fi *lint.InstFact) {
	in := fi.Inst
	a, b, cc := in.QA, in.QB, in.QC
	switch in.Op {
	case isa.OpQZero, isa.OpQOne:
		st[a] = 0
	case isa.OpQHad:
		st[a] = (1 << uint(in.K)) & c.top
	case isa.OpQNot:
		// complement: same dependence set
	case isa.OpQAnd, isa.OpQOr, isa.OpQXor:
		st[a] = st[b] | st[cc]
	case isa.OpQCnot:
		st[a] |= st[b]
	case isa.OpQCcnot:
		st[a] |= st[b] | st[cc]
	case isa.OpQSwap:
		st[a], st[b] = st[b], st[a]
	case isa.OpQCswap:
		u := st[a] | st[b] | st[cc]
		st[a], st[b] = u, u
	case isa.OpQMeas, isa.OpQNext, isa.OpQPop:
		// pure reductions: Qat state is read, never written
	default:
		// Defensive against future Qat-writing ops this switch does not
		// model: widen whatever the instruction writes.
		for _, q := range fi.Eff.QWrites[:fi.Eff.NQWrites] {
			st[q] = c.top
		}
	}
}

// widenAll is the imprecise-mode result: an unresolved indirect jump may
// transfer control anywhere (including mid-block) with arbitrary register
// state, so every touched register is bound by the full width.
func (c *computer) widenAll() {
	for q := range c.touched {
		if c.touched[q] {
			c.regMax[q] = c.ways
			c.regUnion[q] = c.top
		}
	}
}

// walkBlocks produces the per-block profile rows — degree maxima on the
// precise path, Qat write counts and the energy.StaticCost bounds — and
// accumulates the program totals.
func (c *computer) walkBlocks() {
	for b := range c.f.Blocks {
		bf := &c.f.Blocks[b]
		bp := lint.BlockProfile{ID: b, InLoop: bf.InLoop}
		if bf.InLoop {
			c.p.LoopBlocks++
		}
		if len(bf.Insts) > 0 {
			first := &c.f.Insts[bf.Insts[0]]
			last := &c.f.Insts[bf.Insts[len(bf.Insts)-1]]
			bp.Start = first.Addr
			bp.End = last.Addr + uint16(last.Words)
		}

		// Degree walk (precise path): record maxima and channel merges for
		// every tracked register at the block entry and for the written
		// registers after every instruction.
		var st [isa.NumQRegs]depset
		if !c.f.Imprecise {
			c.load(&st, b)
			for _, q := range c.regs {
				bp.MaxDegree = max(bp.MaxDegree, c.observe(q, st[q]))
			}
		} else {
			bp.MaxDegree = c.ways
		}

		for _, ii := range bf.Insts {
			fi := &c.f.Insts[ii]
			in := fi.Inst
			if !c.f.Imprecise {
				c.transfer(&st, fi)
				for _, q := range fi.Eff.QWrites[:fi.Eff.NQWrites] {
					bp.MaxDegree = max(bp.MaxDegree, c.observe(q, st[q]))
				}
			}
			if in.Op.IsQat() {
				sw, er := energy.StaticCost(in.Op, c.ways)
				bp.SwitchedBits += sw
				bp.ErasedBits += er
			}
			if fi.Eff.NQWrites > 0 {
				bp.QatWrites++
			}
		}
		c.p.QatWrites += bp.QatWrites
		c.p.SwitchedBound += bp.SwitchedBits
		c.p.ErasedBound += bp.ErasedBits
		c.p.Blocks = append(c.p.Blocks, bp)
	}
}

// observe folds register q's dependence set d into the per-register
// accumulators and the channel groups, returning its degree.
func (c *computer) observe(q uint8, d depset) int {
	if d == 0 {
		return 0
	}
	n := bits.OnesCount32(d)
	if n > c.regMax[q] {
		c.regMax[q] = n
	}
	c.regUnion[q] |= d
	if n > 1 {
		c.union(d)
	}
	return n
}

// union merges every channel bit of d into one group.
func (c *computer) union(d depset) {
	if d&^c.comp[bits.TrailingZeros32(d)] == 0 {
		return // already one group
	}
	var m depset
	for r := d; r != 0; r &= r - 1 {
		m |= c.comp[bits.TrailingZeros32(r)]
	}
	for r := m; r != 0; r &= r - 1 {
		c.comp[bits.TrailingZeros32(r)] = m
	}
}

// channels lists the channel bits of d, ascending.
func channels(d depset) []int {
	out := make([]int, 0, bits.OnesCount32(d))
	for r := d; r != 0; r &= r - 1 {
		out = append(out, bits.TrailingZeros32(r))
	}
	return out
}

// finish assembles the register list, the channel groups and the degree
// bound.
func (c *computer) finish() {
	for q, deg := range c.regMax {
		if deg == 0 {
			continue
		}
		c.p.Regs = append(c.p.Regs, lint.RegEntanglement{Reg: q, Degree: deg, Channels: channels(c.regUnion[q])})
		c.p.DegreeBound = max(c.p.DegreeBound, deg)
	}
	if c.f.Imprecise {
		// All channels entangled as far as the analysis can tell.
		if c.ways > 1 && c.p.QatOps > 0 {
			c.p.Groups = [][]int{channels(c.top)}
		}
	} else {
		// A group is listed once, at its lowest channel.
		for k := 0; k < c.ways; k++ {
			if g := c.comp[k]; g&(g-1) != 0 && bits.TrailingZeros32(g) == k {
				c.p.Groups = append(c.p.Groups, channels(g))
			}
		}
	}
}
