package opt

// The rewrite passes. Each runs over an IR freshly rebuilt from a fresh
// lint analysis (see ir.sweep), so its safety preconditions — reachability,
// br-pair marks, block liveness — exactly describe the program it rewrites.
//
//   - unreachable: drop instructions no execution reaches (the CFG is
//     precise for accepted programs, so this is exact, not heuristic).
//   - constfold: forward constant sweep per basic block over the Tangled
//     file (entry block seeded all-zero, matching the loader); folds known
//     ALU results into lex, collapses lex/lhi chains, drops no-op writes
//     and never-taken branches.
//   - peephole: structural Qat rewrites — double-not cancellation (Tangled
//     not/neg too), self-swap elimination, xor/cnot self-operand identities.
//   - energy: an abstract-state lattice over the Qat file (Zero / One /
//     Had(k) / NHad(k) / unknown) that drops redundant re-initialization
//     and replaces irreversible constant writes with the reversible not
//     when the lattice proves them equivalent — directly minimizing the
//     energy.StaticCost switched/erased-bit bounds per block.
//   - deadstore: backward walk per block from lint's live-out sets,
//     deleting effect-free instructions every written register of which is
//     dead (the rewriting counterpart of lint's dead-store diagnostic).
//
// Every rule removes an instruction or replaces it with a strictly
// lower-ranked one (ccnot→cnot→not, lhi→lex, constant and/or/xor→zero/one,
// never the reverse), so the sweep measure strictly decreases and
// iteration terminates.

import (
	"tangled/internal/isa"
	"tangled/internal/lint"
)

// entrySeedBlock returns the block whose abstract state may be seeded with
// the loader's all-zero machine: the block starting at address 0, provided
// nothing branches back into it. -1 when no block qualifies.
func (r *ir) entrySeedBlock() int {
	i, ok := r.facts.ByAddr(0)
	if !ok {
		return -1
	}
	b := r.facts.Insts[i].Block
	if b < 0 || len(r.facts.Blocks[b].Preds) > 0 || r.facts.Blocks[b].Insts[0] != i {
		return -1
	}
	return b
}

// passUnreachable removes instructions the (precise) CFG proves no
// execution reaches.
func (r *ir) passUnreachable() (removed, rewritten int) {
	for i := range r.nodes {
		if !r.nodes[i].removed && !r.nodes[i].fact.Reachable {
			r.remove(i)
			removed++
		}
	}
	return removed, rewritten
}

// fitsLex reports v is representable as lex's sign-extended 8-bit immediate.
func fitsLex(v uint16) bool {
	s := int16(v)
	return s >= -128 && s <= 127
}

// evalALU computes the integer ALU ops the folder understands, mirroring
// cpu.execTangled exactly. ok is false for ops the folder must not model
// (floating point, loads, reductions).
func evalALU(op isa.Op, dv, sv uint16) (uint16, bool) {
	switch op {
	case isa.OpAdd:
		return dv + sv, true
	case isa.OpAnd:
		return dv & sv, true
	case isa.OpOr:
		return dv | sv, true
	case isa.OpXor:
		return dv ^ sv, true
	case isa.OpMul:
		return uint16(int16(dv) * int16(sv)), true
	case isa.OpSlt:
		if int16(dv) < int16(sv) {
			return 1, true
		}
		return 0, true
	case isa.OpShift:
		return shiftVal(dv, int16(sv)), true
	case isa.OpCopy:
		return sv, true
	case isa.OpNot:
		return ^dv, true
	case isa.OpNeg:
		return uint16(-int16(dv)), true
	}
	return 0, false
}

// shiftVal mirrors the cpu shift helper: left for non-negative counts,
// arithmetic right for negative, saturating at full shifts.
func shiftVal(v uint16, by int16) uint16 {
	if by >= 0 {
		if by >= 16 {
			return 0
		}
		return v << uint(by)
	}
	n := uint(-by)
	if n >= 16 {
		n = 15
	}
	return uint16(int16(v) >> n)
}

// passConstFold propagates Tangled register constants forward through each
// block and exploits them: known ALU results fold to lex, lhi over a known
// register collapses (to nothing, or to a single lex when the full value
// fits), writes of a register's current value vanish, and branches whose
// condition is a known constant that never takes them are deleted.
func (r *ir) passConstFold() (removed, rewritten int) {
	seed := r.entrySeedBlock()
	for bi := range r.facts.Blocks {
		var known uint16
		var vals [isa.NumRegs]uint16
		if bi == seed {
			known = 1<<isa.NumRegs - 1
		}
		isKnown := func(reg uint8) bool { return known&(1<<reg) != 0 }
		set := func(reg uint8, v uint16) { known |= 1 << reg; vals[reg] = v }
		clear := func(reg uint8) { known &^= 1 << reg }

		for _, ii := range r.facts.Blocks[bi].Insts {
			n := &r.nodes[ii]
			if n.removed {
				continue
			}
			in := n.inst
			d, s := in.RD, in.RS
			switch in.Op {
			case isa.OpLex:
				v := uint16(int16(in.Imm))
				if isKnown(d) && vals[d] == v {
					r.remove(ii)
					removed++
				} else {
					set(d, v)
				}
			case isa.OpLhi:
				hv := uint16(uint8(in.Imm)) << 8
				if !isKnown(d) {
					break // high byte becomes hv, low byte unknown: still unknown
				}
				v := vals[d]&0x00FF | hv
				switch {
				case v == vals[d]:
					r.remove(ii)
					removed++
				case fitsLex(v):
					r.rewrite(ii, isa.Inst{Op: isa.OpLex, RD: d, Imm: int8(v)})
					rewritten++
					set(d, v)
				default:
					set(d, v)
				}
			case isa.OpBrf:
				if isKnown(d) && vals[d] != 0 {
					r.remove(ii) // never taken
					removed++
				}
			case isa.OpBrt:
				if isKnown(d) && vals[d] == 0 {
					r.remove(ii) // never taken
					removed++
				}
			case isa.OpAdd, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpMul,
				isa.OpSlt, isa.OpShift, isa.OpCopy, isa.OpNot, isa.OpNeg:
				oneOperand := in.Op == isa.OpNot || in.Op == isa.OpNeg
				if isKnown(d) && (oneOperand || isKnown(s)) {
					nv, ok := evalALU(in.Op, vals[d], vals[s])
					if !ok {
						clear(d)
						break
					}
					switch {
					case nv == vals[d]:
						r.remove(ii) // writes the value already there
						removed++
					case fitsLex(nv):
						r.rewrite(ii, isa.Inst{Op: isa.OpLex, RD: d, Imm: int8(nv)})
						rewritten++
						set(d, nv)
					default:
						set(d, nv) // result known even without a rewrite
					}
					break
				}
				// Identity folds that need only one side.
				switch {
				case in.Op == isa.OpCopy && d == s,
					(in.Op == isa.OpAnd || in.Op == isa.OpOr) && d == s,
					(in.Op == isa.OpAdd || in.Op == isa.OpOr || in.Op == isa.OpXor) && isKnown(s) && vals[s] == 0 && d != s,
					in.Op == isa.OpAnd && isKnown(s) && vals[s] == 0xFFFF,
					in.Op == isa.OpMul && isKnown(s) && vals[s] == 1,
					in.Op == isa.OpShift && isKnown(s) && vals[s] == 0:
					r.remove(ii) // no-op on $d
					removed++
				case in.Op == isa.OpXor && d == s:
					r.rewrite(ii, isa.Inst{Op: isa.OpLex, RD: d}) // x^x == 0
					rewritten++
					set(d, 0)
				case in.Op == isa.OpCopy && isKnown(s):
					set(d, vals[s])
				default:
					clear(d)
				}
			case isa.OpQMeas, isa.OpQNext, isa.OpQPop, isa.OpLoad,
				isa.OpAddf, isa.OpMulf, isa.OpFloat, isa.OpInt, isa.OpNegf, isa.OpRecip:
				clear(d)
			default:
				// store, sys, register-only Qat ops: no Tangled writes.
			}
		}
	}
	return removed, rewritten
}

// passPeephole applies structural identities over instruction sequences:
// self-targeting swap forms are no-ops, xor/cnot with repeated operands
// collapse to cheaper ops, and not-not pairs (Tangled and Qat) cancel when
// nothing in between observes the register.
func (r *ir) passPeephole() (removed, rewritten int) {
	for bi := range r.facts.Blocks {
		insts := r.facts.Blocks[bi].Insts
		for k, ii := range insts {
			n := &r.nodes[ii]
			if n.removed {
				continue
			}
			in := n.inst
			switch in.Op {
			case isa.OpQSwap:
				if in.QA == in.QB {
					r.remove(ii)
					removed++
				}
			case isa.OpQCswap:
				if in.QA == in.QB {
					r.remove(ii)
					removed++
				}
			case isa.OpQCnot:
				if in.QA == in.QB {
					// a ^= a: clears the register.
					r.rewrite(ii, isa.Inst{Op: isa.OpQZero, QA: in.QA})
					rewritten++
				}
			case isa.OpQXor:
				switch {
				case in.QB == in.QC:
					r.rewrite(ii, isa.Inst{Op: isa.OpQZero, QA: in.QA})
					rewritten++
				case in.QA == in.QB:
					// a = a^c: the in-place reversible form.
					r.rewrite(ii, isa.Inst{Op: isa.OpQCnot, QA: in.QA, QB: in.QC})
					rewritten++
				case in.QA == in.QC:
					r.rewrite(ii, isa.Inst{Op: isa.OpQCnot, QA: in.QA, QB: in.QB})
					rewritten++
				}
			case isa.OpQNot:
				if r.cancelQatNot(insts[k+1:], ii, in.QA) {
					removed += 2
				}
			case isa.OpNot, isa.OpNeg:
				if r.cancelCPUInv(insts[k+1:], ii, in.Op, in.RD) {
					removed += 2
				}
			}
		}
	}
	return removed, rewritten
}

// cancelQatNot removes the not at index ii together with the next not of
// the same Qat register, provided nothing in between reads or writes it.
// Qat state is invisible to sys (the register file dies at halt), so only
// Qat-side accesses form barriers.
func (r *ir) cancelQatNot(rest []int, ii int, q uint8) bool {
	for _, jj := range rest {
		m := &r.nodes[jj]
		if m.removed {
			continue
		}
		if m.inst.Op == isa.OpQNot && m.inst.QA == q {
			r.remove(ii)
			r.remove(jj)
			return true
		}
		eff := isa.InstEffects(m.inst)
		if eff.ReadsQat(q) || eff.WritesQat(q) {
			return false
		}
	}
	return false
}

// cancelCPUInv removes a not/neg pair over the same Tangled register when
// nothing in between observes it. sys is a barrier: it may halt (or fault),
// exposing the whole register file mid-pair.
func (r *ir) cancelCPUInv(rest []int, ii int, op isa.Op, reg uint8) bool {
	bit := uint16(1) << reg
	for _, jj := range rest {
		m := &r.nodes[jj]
		if m.removed {
			continue
		}
		if m.inst.Op == op && m.inst.RD == reg {
			r.remove(ii)
			r.remove(jj)
			return true
		}
		eff := isa.InstEffects(m.inst)
		if eff.MayHalt || (eff.ReadRegs|eff.WriteRegs)&bit != 0 {
			return false
		}
	}
	return false
}

// The abstract Qat register states for the energy pass live in qlattice.go
// (QState and the QInvert/QAnd/QOr/QXor transfer functions), shared with the
// static profiler.

// passEnergy walks each block with the abstract Qat lattice: initializations
// that re-create the current state vanish, constant writes over the inverse
// state become the reversible not (zero erased bits), gates over constant
// operands collapse to their result, and control-known cswap/ccnot shed
// operands — every rule a direct reduction of the block's static
// switched/erased-bit bound.
func (r *ir) passEnergy() (removed, rewritten int) {
	seed := r.entrySeedBlock()
	var st [isa.NumQRegs]QState
	for bi := range r.facts.Blocks {
		for q := range st {
			st[q] = QState{}
		}
		if bi == seed {
			for q := range st {
				st[q] = QState{Kind: QZero}
			}
		}
		for _, ii := range r.facts.Blocks[bi].Insts {
			n := &r.nodes[ii]
			if n.removed {
				continue
			}
			in := n.inst
			a, b, c := in.QA, in.QB, in.QC
			// constInit handles zero/one/had uniformly: drop when the state
			// is already want; flip reversibly when it is the exact inverse.
			constInit := func(want QState) {
				switch {
				case st[a] == want:
					r.remove(ii)
					removed++
				case st[a] == QInvert(want):
					r.rewrite(ii, isa.Inst{Op: isa.OpQNot, QA: a})
					rewritten++
					st[a] = want
				default:
					st[a] = want
				}
			}
			// foldGate replaces a two-word gate whose folded result is a
			// known constant with the one-word fill, else records the state.
			foldGate := func(res QState) {
				switch res.Kind {
				case QZero:
					r.rewrite(ii, isa.Inst{Op: isa.OpQZero, QA: a})
					rewritten++
				case QOne:
					r.rewrite(ii, isa.Inst{Op: isa.OpQOne, QA: a})
					rewritten++
				}
				st[a] = res
			}
			switch in.Op {
			case isa.OpQZero:
				constInit(QState{Kind: QZero})
			case isa.OpQOne:
				constInit(QState{Kind: QOne})
			case isa.OpQHad:
				constInit(QState{Kind: QHad, K: in.K})
			case isa.OpQNot:
				st[a] = QInvert(st[a])
			case isa.OpQAnd:
				foldGate(QAnd(st[b], st[c]))
			case isa.OpQOr:
				foldGate(QOr(st[b], st[c]))
			case isa.OpQXor:
				foldGate(QXor(st[b], st[c]))
			case isa.OpQCnot:
				switch st[b].Kind {
				case QZero:
					r.remove(ii) // a ^= 0
					removed++
				case QOne:
					r.rewrite(ii, isa.Inst{Op: isa.OpQNot, QA: a})
					rewritten++
					st[a] = QInvert(st[a])
				default:
					st[a] = QXor(st[a], st[b])
				}
			case isa.OpQCcnot:
				t := QAnd(st[b], st[c])
				switch {
				case t.Kind == QZero:
					r.remove(ii) // a ^= 0
					removed++
				case t.Kind == QOne:
					r.rewrite(ii, isa.Inst{Op: isa.OpQNot, QA: a})
					rewritten++
					st[a] = QInvert(st[a])
				case st[b].Kind == QOne:
					r.rewrite(ii, isa.Inst{Op: isa.OpQCnot, QA: a, QB: c})
					rewritten++
					st[a] = QXor(st[a], st[c])
				case st[c].Kind == QOne:
					r.rewrite(ii, isa.Inst{Op: isa.OpQCnot, QA: a, QB: b})
					rewritten++
					st[a] = QXor(st[a], st[b])
				default:
					st[a] = QXor(st[a], t)
				}
			case isa.OpQSwap:
				if a != b && st[a] == st[b] && st[a].Kind != QUnknown {
					r.remove(ii) // swapping equal values
					removed++
					break
				}
				st[a], st[b] = st[b], st[a]
			case isa.OpQCswap:
				switch {
				case a == b:
					// structural no-op; the peephole removes it
				case st[c].Kind == QZero:
					r.remove(ii) // control never set
					removed++
				case st[a] == st[b] && st[a].Kind != QUnknown:
					r.remove(ii) // swapping equal values, any control
					removed++
				case st[c].Kind == QOne:
					r.rewrite(ii, isa.Inst{Op: isa.OpQSwap, QA: a, QB: b})
					rewritten++
					st[a], st[b] = st[b], st[a]
				default:
					st[a], st[b] = QState{}, QState{}
				}
			}
		}
	}
	return removed, rewritten
}

// passDeadStore deletes instructions whose every written register is dead,
// walking each block backward from lint's live-out set. Control transfers,
// possible halts, and memory writes are never deleted; everything else is
// observable only through its register results.
func (r *ir) passDeadStore() (removed, rewritten int) {
	for bi := range r.facts.Blocks {
		bf := &r.facts.Blocks[bi]
		live := bf.LiveOut
		for k := len(bf.Insts) - 1; k >= 0; k-- {
			ii := bf.Insts[k]
			n := &r.nodes[ii]
			if n.removed {
				continue
			}
			eff := isa.InstEffects(n.inst)
			d := lint.DefSet(n.inst)
			if !eff.Control && !eff.MayHalt && !eff.MemWrite &&
				!d.Empty() && !d.Intersects(live) {
				// Dead: removing it cannot change any live value, and the
				// walk continues as if it were absent, so a whole dead
				// chain cascades in one backward sweep.
				r.remove(ii)
				removed++
				continue
			}
			live = live.Diff(d).Union(lint.LiveUseSet(n.inst, n.fact.PairBr))
		}
	}
	return removed, rewritten
}
