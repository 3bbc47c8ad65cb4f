package isa

// Architectural effect metadata: which registers an instruction reads and
// writes, whether it touches memory, and how it can divert or stop control
// flow. This is the per-instruction ground truth shared by every model that
// needs it: the dataflow analyses of package lint, the hazard interlock of
// package pipeline (TangledRegs), the multi-cycle timing of package cpu
// (Op.WritesTangledReg) and the reserved-register checks of package qat
// (QatWrites). The tables here mirror the execute stage in package cpu and
// package qat exactly, and the cross-check tests in effects_test.go pin the
// two together.

// regRoles names the Tangled registers an opcode touches by the operand
// fields that select them.
type regRoles uint8

const (
	roleD   regRoles = 1 << iota // the $d field ($c of a branch)
	roleS                        // the $s field
	roleSys                      // $0 and $1: sys's service selector and argument
)

// mask resolves the roles against i's register fields.
func (r regRoles) mask(i Inst) uint16 {
	var m uint16
	if r&roleD != 0 {
		m |= 1 << (i.RD & 0xF)
	}
	if r&roleS != 0 {
		m |= 1 << (i.RS & 0xF)
	}
	if r&roleSys != 0 {
		m |= 1<<0 | 1<<1
	}
	return m
}

// tangledRoles is the one statement of which Tangled registers each opcode
// reads and writes, following the execute semantics of package cpu:
//
//   - two-operand ALU ops read $d and $s and write $d; copy and load read
//     only $s;
//   - lhi reads $d (it preserves the low byte) while lex does not;
//   - sys reads $0 (the service selector) and $1 (the service argument);
//   - meas/next/pop read $d as the channel/index argument before writing
//     the result back into it;
//   - every other Qat op touches no Tangled register.
var tangledRoles = [numOps]struct{ reads, writes regRoles }{
	OpAdd:   {roleD | roleS, roleD},
	OpAddf:  {roleD | roleS, roleD},
	OpAnd:   {roleD | roleS, roleD},
	OpBrf:   {roleD, 0},
	OpBrt:   {roleD, 0},
	OpCopy:  {roleS, roleD},
	OpFloat: {roleD, roleD},
	OpInt:   {roleD, roleD},
	OpJumpr: {roleD, 0},
	OpLex:   {0, roleD},
	OpLhi:   {roleD, roleD},
	OpLoad:  {roleS, roleD},
	OpMul:   {roleD | roleS, roleD},
	OpMulf:  {roleD | roleS, roleD},
	OpNeg:   {roleD, roleD},
	OpNegf:  {roleD, roleD},
	OpNot:   {roleD, roleD},
	OpOr:    {roleD | roleS, roleD},
	OpRecip: {roleD, roleD},
	OpShift: {roleD | roleS, roleD},
	OpSlt:   {roleD | roleS, roleD},
	OpStore: {roleD | roleS, 0},
	OpSys:   {roleSys, 0},
	OpXor:   {roleD | roleS, roleD},
	OpQMeas: {roleD, roleD},
	OpQNext: {roleD, roleD},
	OpQPop:  {roleD, roleD},
}

// TangledRegs returns the Tangled registers i reads and writes, as bitmasks
// over the 16-entry file (bit r = register $r). It is the single source of
// Effects.ReadRegs and Effects.WriteRegs, and cheap enough for the pipeline
// interlock to call on every hazard check.
func TangledRegs(i Inst) (reads, writes uint16) {
	if i.Op >= numOps {
		return 0, 0
	}
	r := tangledRoles[i.Op]
	return r.reads.mask(i), r.writes.mask(i)
}

// WritesTangledReg reports whether op writes a Tangled general register.
func (op Op) WritesTangledReg() bool {
	return op < numOps && tangledRoles[op].writes != 0
}

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
// semantics of package cpu (Tangled) and package qat (coprocessor). The
// Tangled masks come from TangledRegs; for the Qat operands, meas/next/pop
// read (never write) their register, and the multi-register ops write their
// first operand (swap and cswap also the second) and read every operand
// that feeds the result.
func InstEffects(i Inst) Effects {
	var e Effects
	e.ReadRegs, e.WriteRegs = TangledRegs(i)
	switch i.Op {
	case OpLoad:
		e.MemRead = true
	case OpStore:
		e.MemWrite = true
	case OpBrf, OpBrt, OpJumpr:
		e.Control = true
	case OpSys:
		e.MayHalt = true
	case OpQNot, OpQMeas, OpQNext, OpQPop:
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
