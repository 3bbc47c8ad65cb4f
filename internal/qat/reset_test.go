package qat

import (
	"testing"

	"tangled/internal/isa"
)

// These tests pin the allocation-free Reset contract relied on by pooled
// machine reuse (package farm).

func TestResetClearsRegistersPreservingConstants(t *testing.T) {
	q := NewWithConstants(4)
	if _, _, err := q.Exec(isa.Inst{Op: isa.OpQOne, QA: 100}, 0); err != nil {
		t.Fatal(err)
	}
	q.Reset()
	if got := q.Reg(100).Pop(); got != 0 {
		t.Fatalf("non-reserved @100 not cleared: pop %d", got)
	}
	if got := q.Reg(ConstOneReg()).Pop(); got != q.Reg(0).Channels() {
		t.Fatalf("constant @1 damaged by Reset: pop %d", got)
	}
	for k := 0; k < 4; k++ {
		if got := q.Reg(ConstHadReg(k)).Pop(); got != q.Reg(0).Channels()/2 {
			t.Fatalf("constant H%d damaged by Reset: pop %d", k, got)
		}
	}
}

// TestBackToBackProgramsSeeCleanState runs two different instruction
// sequences on one coprocessor with a Reset between them and verifies the
// second sees no residue — the single-machine version of the farm's pooled
// back-to-back regression.
func TestBackToBackProgramsSeeCleanState(t *testing.T) {
	q := New(4)
	// "Program" 1: saturate a few registers.
	for _, qa := range []uint8{0, 5, 200, 255} {
		if _, _, err := q.Exec(isa.Inst{Op: isa.OpQOne, QA: qa}, 0); err != nil {
			t.Fatal(err)
		}
	}
	q.Reset()
	// "Program" 2: a pop over every register must see zero everywhere.
	for qa := 0; qa < isa.NumQRegs; qa++ {
		out, writes, err := q.Exec(isa.Inst{Op: isa.OpQPop, QA: uint8(qa)}, 0)
		if err != nil || !writes {
			t.Fatalf("@%d pop: writes=%v err=%v", qa, writes, err)
		}
		meas, _, err := q.Exec(isa.Inst{Op: isa.OpQMeas, QA: uint8(qa)}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if out+meas != 0 {
			t.Fatalf("@%d holds population %d after Reset", qa, out+meas)
		}
	}
}
