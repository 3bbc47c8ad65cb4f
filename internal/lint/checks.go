package lint

// Structural checks over the CFG (decode failures, reachability, halting,
// inescapable loops) and the static energy estimate.

import (
	"fmt"

	"tangled/internal/energy"
	"tangled/internal/isa"
)

// checkDecode reports reachable control transfers into words that are not
// instructions: undecodable words and entries into the middle of a two-word
// instruction. (Transfers past the end and into data are halting problems,
// handled by checkHalt.)
func (g *cfg) checkDecode(r *Report) {
	for _, e := range g.badEdges {
		switch {
		case int(e.to) >= g.n: // past the end: checkHalt's
		case g.at[e.to] == wordBad:
			_, _, err := g.decodeAt(int(e.to))
			r.add(Diagnostic{Check: CheckIllegalInst, Severity: Error,
				Addr: e.from.addr, Line: int(e.from.line),
				Msg: fmt.Sprintf("control reaches word %#04x, which does not decode (%s)", e.to, err)})
		case g.at[e.to] == wordMid:
			r.add(Diagnostic{Check: CheckIllegalInst, Severity: Error,
				Addr: e.from.addr, Line: int(e.from.line),
				Msg: fmt.Sprintf("control transfers into the middle of the two-word instruction at %#04x", e.to)})
		}
	}
}

// checkHalt reports paths that certainly fail to halt cleanly: falling off
// the end of the image, running into data, and programs where no sys
// instruction is reachable at all.
func (g *cfg) checkHalt(r *Report) {
	for _, e := range g.badEdges {
		switch {
		case int(e.to) >= g.n:
			verb := "branches"
			if e.fall {
				verb = "falls off the end of the program"
				r.add(Diagnostic{Check: CheckNoHalt, Severity: Error,
					Addr: e.from.addr, Line: int(e.from.line),
					Msg: "execution " + verb + " into zeroed memory and cannot halt"})
				continue
			}
			r.add(Diagnostic{Check: CheckNoHalt, Severity: Error,
				Addr: e.from.addr, Line: int(e.from.line),
				Msg: fmt.Sprintf("%s past the end of the program (target %#04x)", verb, e.to)})
		case g.at[e.to] == wordData: // undecodable words: see checkDecode
			verb := "jumps into"
			if e.fall {
				verb = "falls through into"
			}
			r.add(Diagnostic{Check: CheckNoHalt, Severity: Error,
				Addr: e.from.addr, Line: int(e.from.line),
				Msg: fmt.Sprintf("execution %s the data word at %#04x", verb, e.to)})
		}
	}
	for i := range g.blocks {
		if g.blocks[i].mayHalt {
			return
		}
	}
	// No reachable sys. On an imprecise graph a sys that merely exists
	// might still be reached through an unresolved jumpr, so only report
	// when none exists at all.
	if g.imprecise {
		for i := range g.nodes {
			if g.nodes[i].eff.MayHalt {
				return
			}
		}
	}
	r.add(Diagnostic{Check: CheckNoHalt, Severity: Error, Addr: 0, Line: g.lineOf(0),
		Msg: "no sys instruction is reachable: the program cannot halt"})
}

// checkReachability reports maximal runs of instructions no execution can
// reach. When the image carries no assembler code/data marks an unreached
// region may simply be data the sweep happened to decode, so the finding is
// downgraded to Info.
func (g *cfg) checkReachability(r *Report) {
	sev := Warning
	if len(g.p.Data) != len(g.p.Words) {
		sev = Info
	}
	var start, end, count int = -1, 0, 0
	flush := func() {
		if start < 0 {
			return
		}
		first, last := &g.nodes[start], &g.nodes[end]
		r.add(Diagnostic{Check: CheckUnreachable, Severity: sev,
			Addr: first.addr, Line: int(first.line),
			Msg: fmt.Sprintf("unreachable code: %d instruction(s) at %#04x..%#04x are never executed",
				count, first.addr, last.next()-1)})
		start, count = -1, 0
	}
	for i := range g.nodes {
		if g.nodes[i].reach {
			flush()
			continue
		}
		if start < 0 || !g.nodes[i].linked {
			flush()
			start = i
		}
		end = i
		count++
	}
	flush()
}

// checkSelfLoops reports reachable cycles control flow cannot leave: every
// edge stays inside the strongly connected component, no member can halt,
// and no member has an unknown (indirect) exit.
func (g *cfg) checkSelfLoops(r *Report) {
	if len(g.blocks) == 0 {
		return
	}
	nSCC := 0
	for i := range g.blocks {
		if g.blocks[i].sccID >= nSCC {
			nSCC = g.blocks[i].sccID + 1
		}
	}
	type sccInfo struct {
		first   *block // member with the lowest start address
		size    int
		cyclic  bool
		escapes bool
		halts   bool
	}
	sccs := make([]sccInfo, nSCC)
	for i := range g.blocks {
		b := &g.blocks[i]
		s := &sccs[b.sccID]
		if s.first == nil || b.start() < s.first.start() {
			s.first = b
		}
		s.size++
		if b.inLoop {
			s.cyclic = true
		}
		if b.mayHalt {
			s.halts = true
		}
		if b.exitsUnknown {
			s.escapes = true
		}
		for _, succ := range b.succs {
			if g.blocks[succ].sccID != b.sccID {
				s.escapes = true
			}
		}
	}
	for _, s := range sccs {
		if !s.cyclic || s.escapes || s.halts {
			continue
		}
		first := s.first
		msg := "unconditional self-jump: the instruction loops forever"
		if s.size > 1 || len(first.insts) > 1 {
			msg = fmt.Sprintf("control flow cannot leave the loop at %#04x (no exit edge, no sys)", first.start())
		}
		r.add(Diagnostic{Check: CheckSelfLoop, Severity: Error,
			Addr: first.start(), Line: int(first.insts[0].line), Msg: msg})
	}
}

// checkHadRange reports reachable had instructions whose pattern index is
// out of range for the assumed entanglement degree: at run time qat.Exec
// fails such an instruction, stopping the machine mid-program. At the
// default full-hardware assumption (16 ways) the 4-bit pattern field cannot
// exceed the range, so the check only fires when the caller pins a smaller
// degree.
func (g *cfg) checkHadRange(r *Report) {
	for i := range g.nodes {
		in := &g.nodes[i]
		if in.reach && in.inst.Op == isa.OpQHad && int(in.inst.K) >= g.opts.Ways {
			r.add(Diagnostic{Check: CheckHadRange, Severity: Warning,
				Addr: in.addr, Line: int(in.line),
				Msg: fmt.Sprintf("had pattern %d requires at least %d ways but the analysis assumes %d: the instruction faults at run time",
					in.inst.K, int(in.inst.K)+1, g.opts.Ways)})
		}
	}
}

// checkCosts computes per-block static energy bounds via energy.StaticCost
// and flags loop blocks whose per-iteration erasure exceeds the configured
// budget — statically visible Landauer cost, the lint-time analogue of the
// paper's adiabatic-power argument.
func (g *cfg) checkCosts(r *Report, opts Options) {
	for i := range g.blocks {
		b := &g.blocks[i]
		var bc BlockCost
		bc.Start, bc.End = b.start(), b.end()
		bc.Line = int(b.insts[0].line)
		bc.InLoop = b.inLoop
		for k := range b.insts {
			op := b.insts[k].inst.Op
			if !op.IsQat() {
				continue
			}
			bc.QatOps++
			switch energy.Classify(op) {
			case energy.Reversible:
				bc.ReversibleOps++
			case energy.Irreversible:
				bc.IrreversibleOps++
			}
			sw, er := energy.StaticCost(op, opts.Ways)
			bc.SwitchedBitsMax += sw
			bc.ErasedBitsMax += er
		}
		if bc.QatOps == 0 {
			continue
		}
		r.Blocks = append(r.Blocks, bc)
		if b.inLoop && bc.ErasedBitsMax > opts.HotErasedBits {
			r.add(Diagnostic{Check: CheckHotBlock, Severity: Info,
				Addr: bc.Start, Line: bc.Line,
				Msg: fmt.Sprintf("loop block erases up to %d bits per iteration (budget %d): consider the reversible compilation",
					bc.ErasedBitsMax, opts.HotErasedBits)})
		}
	}
}
