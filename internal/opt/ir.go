package opt

// The rewrite IR: one node per decoded instruction, carrying the lint facts
// it was built from. Passes mark nodes removed or replace their instruction;
// emit relays the survivors out as a fresh word image, recomputing branch
// offsets across the removed gaps and remapping the symbol table and source
// map. Every transform is a removal or a same-or-shorter replacement, so
// instruction distances only shrink and recomputed 8-bit branch offsets can
// never overflow their original encoding.

import (
	"fmt"

	"tangled/internal/asm"
	"tangled/internal/isa"
	"tangled/internal/lint"
)

// node is one instruction under rewrite.
type node struct {
	fact    *lint.InstFact
	inst    isa.Inst // current (possibly rewritten) instruction
	removed bool
}

// words is the node's current encoded length.
func (n *node) words() int { return n.inst.Words() }

// ir is one round's rewrite state.
type ir struct {
	facts *lint.Facts
	opts  Options
	nodes []node
}

// buildIR projects fresh lint facts into rewrite nodes.
func buildIR(f *lint.Facts, opts Options) *ir {
	r := &ir{facts: f, opts: opts, nodes: make([]node, len(f.Insts))}
	for i := range f.Insts {
		r.nodes[i] = node{fact: &f.Insts[i], inst: f.Insts[i].Inst}
	}
	return r
}

// sweep runs the passes in order and stops at the first one that changes
// anything, returning its name and change counts — so every pass always
// executes against facts that exactly describe the program it sees (a pass
// that rewrote control flow could otherwise leave later passes with stale
// pairing or liveness). Returns "" when no pass changed anything: the
// fixpoint.
func (r *ir) sweep() (pass string, removed, rewritten int) {
	for _, name := range passOrder {
		var rm, rw int
		switch name {
		case PassUnreachable:
			rm, rw = r.passUnreachable()
		case PassConstFold:
			rm, rw = r.passConstFold()
		case PassPeephole:
			rm, rw = r.passPeephole()
		case PassEnergy:
			rm, rw = r.passEnergy()
		case PassDeadStore:
			rm, rw = r.passDeadStore()
		}
		if rm+rw > 0 {
			return name, rm, rw
		}
	}
	return "", 0, 0
}

// remove deletes node i.
func (r *ir) remove(i int) { r.nodes[i].removed = true }

// rewrite replaces node i's instruction; replacements must never be longer
// than the original (the relayout's no-growth invariant).
func (r *ir) rewrite(i int, in isa.Inst) {
	if in.Words() > r.nodes[i].words() {
		panic("opt: rewrite grows an instruction")
	}
	r.nodes[i].inst = in
}

// emit lays the retained nodes out as a fresh program. Branch targets are
// carried as original absolute addresses and re-resolved against the new
// layout; an original address whose instruction was removed forwards to the
// next retained instruction (removed nodes are exactly the no-ops and
// never-taken branches execution would have fallen straight through).
func (r *ir) emit() (*asm.Program, error) {
	// Assign new addresses to retained nodes.
	newAddr := make([]int, len(r.nodes))
	addr := 0
	for i := range r.nodes {
		newAddr[i] = addr
		if !r.nodes[i].removed {
			addr += r.nodes[i].words()
		}
	}
	total := addr

	// mapOld forwards an original address to its new one: the new address
	// of the first retained instruction at or after it, or the image end.
	mapOld := func(orig uint16) int {
		if i, ok := r.facts.ByAddr(orig); ok {
			for ; i < len(r.nodes); i++ {
				if !r.nodes[i].removed {
					return newAddr[i]
				}
			}
			return total
		}
		if int(orig) >= r.facts.Len {
			return total + int(orig) - r.facts.Len
		}
		// Inside the image but not an instruction start: unreachable for an
		// accepted program (no data words, no mid-instruction transfers).
		return total
	}

	p := &asm.Program{
		Words:   make([]uint16, 0, total),
		Source:  make([]int, 0, total),
		Data:    make([]bool, total),
		Symbols: make(map[string]uint16, len(r.facts.Prog.Symbols)),
	}
	for i := range r.nodes {
		n := &r.nodes[i]
		if n.removed {
			continue
		}
		inst := n.inst
		if inst.Op == isa.OpBrf || inst.Op == isa.OpBrt {
			origTarget := n.fact.Addr + uint16(n.fact.Words) + uint16(int16(n.fact.Inst.Imm))
			off := mapOld(origTarget) - (newAddr[i] + inst.Words())
			if off < -128 || off > 127 {
				return nil, fmt.Errorf("opt: branch at %#04x: relaid offset %d overflows int8", n.fact.Addr, off)
			}
			inst.Imm = int8(off)
		}
		before := len(p.Words)
		var err error
		p.Words, err = r.opts.Enc.Append(p.Words, inst)
		if err != nil {
			return nil, fmt.Errorf("opt: re-encode at %#04x: %w", n.fact.Addr, err)
		}
		if got := len(p.Words) - before; got != inst.Words() {
			return nil, fmt.Errorf("opt: re-encode at %#04x: %d words, want %d", n.fact.Addr, got, inst.Words())
		}
		for range p.Words[before:] {
			p.Source = append(p.Source, n.fact.Line)
		}
	}
	if len(p.Words) != total {
		return nil, fmt.Errorf("opt: layout drifted: %d words, want %d", len(p.Words), total)
	}
	for name, a := range r.facts.Prog.Symbols {
		p.Symbols[name] = uint16(mapOld(a))
	}
	return p, nil
}
