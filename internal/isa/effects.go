package isa

// Architectural effect metadata: which registers an instruction reads and
// writes, whether it touches memory, and how it can divert or stop control
// flow. This is the per-instruction ground truth that dataflow analyses
// (package lint) and any future forwarding/scoreboard logic share with the
// executing models — the tables here mirror the execute stage in package cpu
// and package qat exactly, and the cross-check test in effects_test.go pins
// the two together.

// Effects describes the architectural reads and writes of one decoded
// instruction. Tangled registers are bitmasks over the 16-entry file; Qat
// registers are listed explicitly (at most three read, two written).
type Effects struct {
	// ReadRegs and WriteRegs are bitmasks of Tangled registers read and
	// written (bit r = register $r).
	ReadRegs  uint16
	WriteRegs uint16

	// QReads and QWrites list the Qat registers read and written; only the
	// first NQReads / NQWrites entries are meaningful.
	QReads   [3]uint8
	NQReads  uint8
	QWrites  [2]uint8
	NQWrites uint8

	// MemRead / MemWrite report data-memory traffic (load / store).
	MemRead  bool
	MemWrite bool

	// Control reports that the instruction can divert the PC (brf, brt,
	// jumpr). MayHalt reports that it can stop the machine (sys with the
	// halt service code).
	Control bool
	MayHalt bool
}

// qread appends a Qat register to the read set, deduplicating so
// "xor @1,@1,@1" reports each register once.
func (e *Effects) qread(q uint8) {
	for i := uint8(0); i < e.NQReads; i++ {
		if e.QReads[i] == q {
			return
		}
	}
	e.QReads[e.NQReads] = q
	e.NQReads++
}

// ReadsQat reports whether q is in the instruction's Qat read set.
func (e Effects) ReadsQat(q uint8) bool {
	for i := uint8(0); i < e.NQReads; i++ {
		if e.QReads[i] == q {
			return true
		}
	}
	return false
}

// WritesQat reports whether q is in the instruction's Qat write set.
func (e Effects) WritesQat(q uint8) bool {
	for i := uint8(0); i < e.NQWrites; i++ {
		if e.QWrites[i] == q {
			return true
		}
	}
	return false
}

// InstEffects computes the architectural effects of i, following the execute
// semantics of package cpu (Tangled) and package qat (coprocessor):
//
//   - two-operand ALU ops read $d and $s and write $d; copy and load read
//     only $s;
//   - lhi reads $d (it preserves the low byte) while lex does not;
//   - sys reads $0 (the service selector) and $1 (the service argument);
//   - meas/next/pop read $d as the channel/index argument before writing
//     the result back into it, and read (never write) their Qat register;
//   - the multi-register Qat ops write their first operand (swap and cswap
//     also the second) and read every operand that feeds the result.
func InstEffects(i Inst) Effects {
	var e Effects
	d, s := uint16(1)<<(i.RD&0xF), uint16(1)<<(i.RS&0xF)
	switch i.Op {
	case OpAdd, OpAddf, OpAnd, OpMul, OpMulf, OpOr, OpShift, OpSlt, OpXor:
		e.ReadRegs = d | s
		e.WriteRegs = d
	case OpCopy:
		e.ReadRegs = s
		e.WriteRegs = d
	case OpLoad:
		e.ReadRegs = s
		e.WriteRegs = d
		e.MemRead = true
	case OpStore:
		e.ReadRegs = d | s
		e.MemWrite = true
	case OpFloat, OpInt, OpNeg, OpNegf, OpNot, OpRecip:
		e.ReadRegs = d
		e.WriteRegs = d
	case OpJumpr:
		e.ReadRegs = d
		e.Control = true
	case OpLex:
		e.WriteRegs = d
	case OpLhi:
		e.ReadRegs = d
		e.WriteRegs = d
	case OpBrf, OpBrt:
		e.ReadRegs = d
		e.Control = true
	case OpSys:
		e.ReadRegs = 1<<0 | 1<<1
		e.MayHalt = true
	case OpQNot:
		e.qread(i.QA)
	case OpQMeas, OpQNext, OpQPop:
		e.ReadRegs = d
		e.WriteRegs = d
		e.qread(i.QA)
	case OpQAnd, OpQOr, OpQXor:
		e.qread(i.QB)
		e.qread(i.QC)
	case OpQCnot, OpQSwap:
		e.qread(i.QA)
		e.qread(i.QB)
	case OpQCcnot, OpQCswap:
		e.qread(i.QA)
		e.qread(i.QB)
		e.qread(i.QC)
	}
	e.QWrites, e.NQWrites = QatWrites(i)
	return e
}

// QatWrites returns the Qat write set of i, deduplicated, with only the
// first n entries meaningful: the first operand of every register-writing
// Qat op, plus the second for swap and cswap. It is the single source of
// Effects.QWrites, and cheap enough for the coprocessor to call on every
// instruction it executes.
func QatWrites(i Inst) (w [2]uint8, n uint8) {
	switch i.Op {
	case OpQZero, OpQOne, OpQHad, OpQNot, OpQAnd, OpQOr, OpQXor, OpQCnot, OpQCcnot:
		return [2]uint8{i.QA}, 1
	case OpQSwap, OpQCswap:
		if i.QB == i.QA {
			return [2]uint8{i.QA}, 1
		}
		return [2]uint8{i.QA, i.QB}, 2
	}
	return w, 0
}
