package lint

// Register dataflow over the reachable CFG: definite assignment (a forward
// must-analysis, for use-before-def) and liveness (a backward may-analysis,
// for dead stores). Both treat the 16 Tangled registers and the 256 Qat
// registers uniformly through RegSet.

import (
	"fmt"

	"tangled/internal/isa"
)

var fullSet = RegSet{
	CPU: 0xFFFF,
	Qat: [4]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)},
}

var allCPUSet = RegSet{CPU: 0xFFFF}

func (s *RegSet) addQat(q uint8) { s.Qat[q>>6] |= 1 << (q & 63) }

func (s RegSet) intersect(o RegSet) RegSet {
	s.CPU &= o.CPU
	for i := range s.Qat {
		s.Qat[i] &= o.Qat[i]
	}
	return s
}

// defSet returns the registers an instruction writes.
func defSet(in *instNode) RegSet {
	var s RegSet
	s.CPU = in.eff.WriteRegs
	for i := uint8(0); i < in.eff.NQWrites; i++ {
		s.addQat(in.eff.QWrites[i])
	}
	return s
}

// daUseSet returns the registers whose prior value the instruction's
// behavior depends on, for definite assignment. sys is narrowed to $0 (the
// service selector): flagging the halt idiom `lex $0,0; sys` for an unused
// argument register would be noise.
func daUseSet(in *instNode) RegSet {
	var s RegSet
	if in.inst.Op == isa.OpSys {
		s.CPU = 1 << 0
		return s
	}
	s.CPU = in.eff.ReadRegs
	if in.pairBr {
		// Either half of a br pair lands at the same target whatever the
		// condition register holds, so the pair does not observe it.
		s.CPU &^= 1 << in.inst.RD
	}
	for i := uint8(0); i < in.eff.NQReads; i++ {
		s.addQat(in.eff.QReads[i])
	}
	return s
}

// liveUseSet returns the registers an instruction may expose, for liveness.
// sys conservatively uses every Tangled register: it may halt, and the final
// register file is the run's observable output.
func liveUseSet(in *instNode) RegSet {
	s := daUseSet(in)
	if in.inst.Op == isa.OpSys {
		return s.Union(allCPUSet)
	}
	return s
}

func regName(cpu bool, r uint8) string {
	if cpu {
		return fmt.Sprintf("$%d", r)
	}
	return fmt.Sprintf("@%d", r)
}

// forEachMember calls f(true, r) per CPU member and f(false, q) per Qat
// member, in ascending register order.
func (s RegSet) forEachMember(f func(cpu bool, r uint8)) {
	for r := uint8(0); r < uint8(isa.NumRegs); r++ {
		if s.HasCPU(r) {
			f(true, r)
		}
	}
	for w := 0; w < 4; w++ {
		if s.Qat[w] == 0 {
			continue
		}
		for b := 0; b < 64; b++ {
			if s.Qat[w]&(1<<b) != 0 {
				f(false, uint8(w*64+b))
			}
		}
	}
}

// entryID returns the block holding address 0 (-1 when none is reachable).
func (g *cfg) entryID() int { return g.blockAt(0) }

// definiteAssignment computes, per reachable block, the set of registers
// written on every path from entry to the block's start. The machine zeroes
// registers at load, so "unassigned" means "reads as zero" — suspicious, not
// fatal. On an imprecise graph, label-rooted blocks (possible indirect-call
// targets) start from the full set so unknowable callers cause no false
// positives; the real entry at address 0 starts empty.
func (g *cfg) definiteAssignment() []RegSet {
	n := len(g.blocks)
	sets := make([]RegSet, 3*n)
	in, out, gen := sets[:n], sets[n:2*n], sets[2*n:]
	for i := range g.blocks {
		in[i] = fullSet
		b := &g.blocks[i]
		for k := range b.insts {
			gen[i] = gen[i].Union(defSet(&b.insts[k]))
		}
	}
	entry := g.entryID()
	if entry >= 0 {
		in[entry] = RegSet{}
	}
	for i := range out {
		out[i] = in[i].Union(gen[i])
	}
	changed := true
	for changed {
		changed = false
		for i := range g.blocks {
			ni := fullSet
			if i == entry {
				ni = RegSet{}
			}
			for _, p := range g.blocks[i].preds {
				ni = ni.intersect(out[p])
			}
			if i == entry {
				ni = RegSet{}
			}
			no := ni.Union(gen[i])
			if ni != in[i] || no != out[i] {
				in[i], out[i] = ni, no
				changed = true
			}
		}
	}
	return in
}

// checkUseBeforeDef reports reads of registers no path has written: a read
// Tangled register observes the loader's zero, and a measured Qat register
// is a never-prepared pbit.
func (g *cfg) checkUseBeforeDef(r *Report) {
	if len(g.blocks) == 0 {
		return
	}
	in := g.definiteAssignment()
	for i := range g.blocks {
		state := in[i]
		b := &g.blocks[i]
		for k := range b.insts {
			ins := &b.insts[k]
			missing := daUseSet(ins).Diff(state)
			missing.forEachMember(func(cpuReg bool, reg uint8) {
				var msg string
				if cpuReg {
					msg = fmt.Sprintf("%s reads %s before any write (the loader zeroes it)",
						ins.inst.Op.Name(), regName(true, reg))
				} else {
					msg = fmt.Sprintf("%s uses %s but no instruction has prepared that pbit",
						ins.inst.Op.Name(), regName(false, reg))
				}
				r.add(Diagnostic{Check: CheckUseBeforeDef, Severity: Warning,
					Addr: ins.addr, Line: int(ins.line), Msg: msg})
			})
			state = state.Union(defSet(ins))
		}
	}
}

// liveness computes per-block live-out sets. Exits the analysis cannot
// follow (unresolved jumpr, transfers into non-instruction words) and the
// corresponding blocks conservatively keep everything live.
func (g *cfg) liveness() []RegSet {
	n := len(g.blocks)
	sets := make([]RegSet, 4*n)
	use, def, liveOut, liveIn := sets[:n], sets[n:2*n], sets[2*n:3*n], sets[3*n:]
	for i := range g.blocks {
		b := &g.blocks[i]
		for k := len(b.insts) - 1; k >= 0; k-- {
			ins := &b.insts[k]
			d := defSet(ins)
			use[i] = use[i].Diff(d).Union(liveUseSet(ins))
			def[i] = def[i].Union(d)
		}
	}
	for i := range g.blocks {
		b := &g.blocks[i]
		switch {
		case !b.exitsUnknown && b.insts[len(b.insts)-1].haltAt:
			// Certain halt: the Tangled register file is the run's output
			// surface, but Qat state dies with the machine.
			liveOut[i] = allCPUSet
		case b.exitsUnknown || len(b.succs) == 0:
			liveOut[i] = fullSet
		}
		liveIn[i] = use[i].Union(liveOut[i].Diff(def[i]))
	}
	changed := true
	for changed {
		changed = false
		for i := n - 1; i >= 0; i-- {
			no := liveOut[i]
			for _, s := range g.blocks[i].succs {
				no = no.Union(liveIn[s])
			}
			ni := use[i].Union(no.Diff(def[i]))
			if no != liveOut[i] || ni != liveIn[i] {
				liveOut[i], liveIn[i] = no, ni
				changed = true
			}
		}
	}
	return liveOut
}

// checkDeadStores reports register writes whose value is overwritten before
// any instruction reads it, from the block live-out sets in g.liveOut.
func (g *cfg) checkDeadStores(r *Report) {
	for i := range g.blocks {
		live := g.liveOut[i]
		b := &g.blocks[i]
		for k := len(b.insts) - 1; k >= 0; k-- {
			ins := &b.insts[k]
			d := defSet(ins)
			dead := d.Diff(live)
			dead.forEachMember(func(cpuReg bool, reg uint8) {
				r.add(Diagnostic{Check: CheckDeadStore, Severity: Warning,
					Addr: ins.addr, Line: int(ins.line),
					Msg: fmt.Sprintf("value %s writes to %s is overwritten before any read",
						ins.inst.Op.Name(), regName(cpuReg, reg))})
			})
			live = live.Diff(d).Union(liveUseSet(ins))
		}
	}
}
