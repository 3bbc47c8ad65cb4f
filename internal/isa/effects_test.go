package isa_test

import (
	"bytes"
	"testing"

	"tangled/internal/aob"
	"tangled/internal/cpu"
	"tangled/internal/isa"
)

// effectsSamples covers every opcode with representative operands.
func effectsSamples() []isa.Inst {
	return []isa.Inst{
		{Op: isa.OpAdd, RD: 2, RS: 3},
		{Op: isa.OpAddf, RD: 2, RS: 3},
		{Op: isa.OpAnd, RD: 4, RS: 5},
		{Op: isa.OpBrf, RD: 6, Imm: 4},
		{Op: isa.OpBrt, RD: 6, Imm: 4},
		{Op: isa.OpCopy, RD: 2, RS: 7},
		{Op: isa.OpFloat, RD: 3},
		{Op: isa.OpInt, RD: 3},
		{Op: isa.OpJumpr, RD: 5},
		{Op: isa.OpLex, RD: 4, Imm: 9},
		{Op: isa.OpLhi, RD: 4, Imm: 9},
		{Op: isa.OpLoad, RD: 2, RS: 3},
		{Op: isa.OpMul, RD: 2, RS: 3},
		{Op: isa.OpMulf, RD: 2, RS: 3},
		{Op: isa.OpNeg, RD: 8},
		{Op: isa.OpNegf, RD: 8},
		{Op: isa.OpNot, RD: 8},
		{Op: isa.OpOr, RD: 2, RS: 3},
		{Op: isa.OpRecip, RD: 8},
		{Op: isa.OpShift, RD: 2, RS: 3},
		{Op: isa.OpSlt, RD: 2, RS: 3},
		{Op: isa.OpStore, RD: 2, RS: 3},
		{Op: isa.OpSys},
		{Op: isa.OpXor, RD: 2, RS: 3},
		{Op: isa.OpQZero, QA: 1},
		{Op: isa.OpQOne, QA: 1},
		{Op: isa.OpQNot, QA: 1},
		{Op: isa.OpQHad, QA: 1, K: 2},
		{Op: isa.OpQMeas, RD: 2, QA: 1},
		{Op: isa.OpQNext, RD: 2, QA: 1},
		{Op: isa.OpQPop, RD: 2, QA: 1},
		{Op: isa.OpQAnd, QA: 1, QB: 2, QC: 3},
		{Op: isa.OpQOr, QA: 1, QB: 2, QC: 3},
		{Op: isa.OpQXor, QA: 1, QB: 2, QC: 3},
		{Op: isa.OpQCnot, QA: 1, QB: 2},
		{Op: isa.OpQCcnot, QA: 1, QB: 2, QC: 3},
		{Op: isa.OpQSwap, QA: 1, QB: 2},
		{Op: isa.OpQCswap, QA: 1, QB: 2, QC: 3},
	}
}

// newEffectsMachine builds a machine whose register values are small,
// distinct and nonzero, with Qat registers prepared so every coprocessor op
// is well-defined.
func newEffectsMachine(t *testing.T, inst isa.Inst, out *bytes.Buffer) *cpu.Machine {
	t.Helper()
	m := cpu.New(6)
	m.Out = out
	for r := 0; r < isa.NumRegs; r++ {
		m.Regs[r] = uint16(r + 3)
	}
	if inst.Op == isa.OpSys {
		m.Regs[0] = cpu.SysPutInt
	}
	for q := uint8(0); q < 8; q++ {
		if _, _, err := m.Qat.Exec(isa.Inst{Op: isa.OpQHad, QA: q, K: q % 6}, 0); err != nil {
			t.Fatalf("prep @%d: %v", q, err)
		}
	}
	words, err := isa.Append(nil, inst)
	if err != nil {
		t.Fatalf("encode %s: %v", inst, err)
	}
	copy(m.Mem, words)
	return m
}

// TestEffectsMatchExecution pins the effect tables to the executing model:
// stepping one instruction must change exactly the declared Tangled write
// set (the samples' register values are chosen so that every write changes
// its register, so a write set naming too many registers — which would add
// interlock stalls — fails here too), and perturbing any register outside
// the declared read set must not change the written values, the PC, or the
// output.
func TestEffectsMatchExecution(t *testing.T) {
	for _, inst := range effectsSamples() {
		inst := inst
		t.Run(inst.String(), func(t *testing.T) {
			e := isa.InstEffects(inst)
			var out bytes.Buffer
			m := newEffectsMachine(t, inst, &out)
			before := m.Regs
			if err := m.Step(); err != nil {
				t.Fatalf("step: %v", err)
			}
			for r := 0; r < isa.NumRegs; r++ {
				changed, declared := m.Regs[r] != before[r], e.WriteRegs&(1<<r) != 0
				if changed && !declared {
					t.Errorf("register $%d changed (%#x -> %#x) but is not in WriteRegs %016b",
						r, before[r], m.Regs[r], e.WriteRegs)
				}
				if declared && !changed {
					t.Errorf("register $%d is in WriteRegs %016b but kept %#x",
						r, e.WriteRegs, before[r])
				}
			}
			basePC, baseRegs, baseOut := m.PC, m.Regs, out.String()

			for r := 0; r < isa.NumRegs; r++ {
				if e.ReadRegs&(1<<r) != 0 {
					continue
				}
				var out2 bytes.Buffer
				m2 := newEffectsMachine(t, inst, &out2)
				m2.Regs[r] ^= 0x0040 // perturb a register the op claims not to read
				if err := m2.Step(); err != nil {
					t.Fatalf("perturbed step ($%d): %v", r, err)
				}
				if m2.PC != basePC {
					t.Errorf("perturbing unread $%d changed PC: %#x vs %#x", r, m2.PC, basePC)
				}
				if out2.String() != baseOut {
					t.Errorf("perturbing unread $%d changed output", r)
				}
				for w := 0; w < isa.NumRegs; w++ {
					if e.WriteRegs&(1<<w) == 0 || w == r {
						continue
					}
					if m2.Regs[w] != baseRegs[w] {
						t.Errorf("perturbing unread $%d changed written $%d: %#x vs %#x",
							r, w, m2.Regs[w], baseRegs[w])
					}
				}
			}
		})
	}
}

// TestTangledRegsViews pins every view of the Tangled register table to
// it: for every opcode and every $d/$s pair, InstEffects carries the
// TangledRegs masks, and Op.WritesTangledReg reports a nonempty write mask.
func TestTangledRegsViews(t *testing.T) {
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		for d := uint8(0); d < isa.NumRegs; d++ {
			for s := uint8(0); s < isa.NumRegs; s++ {
				inst := isa.Inst{Op: op, RD: d, RS: s}
				reads, writes := isa.TangledRegs(inst)
				if e := isa.InstEffects(inst); e.ReadRegs != reads || e.WriteRegs != writes {
					t.Fatalf("%s: InstEffects reads/writes %016b/%016b, TangledRegs %016b/%016b",
						inst, e.ReadRegs, e.WriteRegs, reads, writes)
				}
				if op.WritesTangledReg() != (writes != 0) {
					t.Fatalf("%s: WritesTangledReg = %v, TangledRegs writes %016b",
						inst, op.WritesTangledReg(), writes)
				}
			}
		}
	}
}

// TestQatWritesMatchesEffects pins isa.QatWrites, the write set the
// coprocessor marks for its next reset, to InstEffects and to execution:
// the two agree for every opcode (and for swap/cswap of a register with
// itself), and stepping the instruction changes no Qat register outside it.
func TestQatWritesMatchesEffects(t *testing.T) {
	samples := append(effectsSamples(),
		isa.Inst{Op: isa.OpQSwap, QA: 3, QB: 3},
		isa.Inst{Op: isa.OpQCswap, QA: 2, QB: 2, QC: 1})
	for _, inst := range samples {
		w, n := isa.QatWrites(inst)
		e := isa.InstEffects(inst)
		if w != e.QWrites || n != e.NQWrites {
			t.Errorf("%s: QatWrites = %v/%d, InstEffects.QWrites = %v/%d",
				inst, w, n, e.QWrites, e.NQWrites)
		}
		m := newEffectsMachine(t, inst, &bytes.Buffer{})
		var before [8]*aob.Vector
		for q := range before {
			before[q] = m.Qat.Reg(uint8(q)).Clone()
		}
		if err := m.Step(); err != nil {
			t.Fatalf("%s: step: %v", inst, err)
		}
		for q := range before {
			if !m.Qat.Reg(uint8(q)).Equal(before[q]) && !e.WritesQat(uint8(q)) {
				t.Errorf("%s: @%d changed but is not in the write set %v", inst, q, w[:n])
			}
		}
	}
}

// TestEffectsControlFlags pins the control/halt/memory flags.
func TestEffectsControlFlags(t *testing.T) {
	for _, inst := range effectsSamples() {
		e := isa.InstEffects(inst)
		wantControl := inst.Op == isa.OpBrf || inst.Op == isa.OpBrt || inst.Op == isa.OpJumpr
		if e.Control != wantControl {
			t.Errorf("%s: Control = %v, want %v", inst, e.Control, wantControl)
		}
		if (e.MayHalt) != (inst.Op == isa.OpSys) {
			t.Errorf("%s: MayHalt = %v", inst, e.MayHalt)
		}
		if e.MemRead != (inst.Op == isa.OpLoad) || e.MemWrite != (inst.Op == isa.OpStore) {
			t.Errorf("%s: MemRead/MemWrite = %v/%v", inst, e.MemRead, e.MemWrite)
		}
	}
}

// TestEffectsQatDedup checks that repeated Qat operands are reported once.
func TestEffectsQatDedup(t *testing.T) {
	e := isa.InstEffects(isa.Inst{Op: isa.OpQXor, QA: 7, QB: 7, QC: 7})
	if e.NQReads != 1 || e.NQWrites != 1 || !e.ReadsQat(7) || !e.WritesQat(7) {
		t.Errorf("xor @7,@7,@7 effects = %+v", e)
	}
	if e.ReadsQat(3) || e.WritesQat(3) {
		t.Errorf("unexpected @3 membership")
	}
}
