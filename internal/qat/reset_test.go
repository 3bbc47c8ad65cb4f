package qat

import (
	"testing"

	"tangled/internal/aob"
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

// TestResetMatchesFresh pins the write-marked Reset: whatever reached the
// registers — every writing op (swap and cswap's second operand included),
// SetReg, an instruction refused for a reserved destination — Reset must
// leave every register equal to a fresh coprocessor's, the reserved
// constants unchanged. Two rounds check that Reset also clears the marks.
func TestResetMatchesFresh(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"dense4", Config{Ways: 4}},
		{"dense4-const", Config{Ways: 4, ConstantRegs: true}},
		{"re4", Config{Ways: 4, Backend: BackendRE}},
		{"re20", Config{Ways: 20, Backend: BackendRE}},
		{"re20-const", Config{Ways: 20, Backend: BackendRE, ConstantRegs: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := NewFromConfig(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			fresh := snapshotRegs(q)
			for round := 0; round < 2; round++ {
				for _, r := range dirtyAll(t, q, tc.cfg.ConstantRegs) {
					if !nonzero(q, r) {
						t.Fatalf("round %d: fixture left @%d zero", round, r)
					}
				}
				q.Reset()
				if i := fresh(); i != -1 {
					t.Fatalf("round %d: @%d differs from a fresh coprocessor after Reset", round, i)
				}
			}
		})
	}
}

// dirtyAll writes registers through every path that can reach them and
// returns the registers it left nonzero.
func dirtyAll(t *testing.T, q *Coprocessor, constRegs bool) []uint8 {
	t.Helper()
	exec := func(inst isa.Inst, wantErr bool) {
		t.Helper()
		if _, _, err := q.Exec(inst, 0); (err != nil) != wantErr {
			t.Fatalf("%s: err = %v, want error %v", inst, err, wantErr)
		}
	}
	for _, inst := range []isa.Inst{
		{Op: isa.OpQOne, QA: 40},
		{Op: isa.OpQHad, QA: 41, K: 1},
		{Op: isa.OpQNot, QA: 42},
		{Op: isa.OpQOne, QA: 43},
		{Op: isa.OpQZero, QA: 43},
		{Op: isa.OpQAnd, QA: 44, QB: 40, QC: 41},
		{Op: isa.OpQOr, QA: 45, QB: 41, QC: 42},
		{Op: isa.OpQXor, QA: 46, QB: 40, QC: 41},
		{Op: isa.OpQCnot, QA: 47, QB: 40},
		{Op: isa.OpQCcnot, QA: 48, QB: 40, QC: 41},
		{Op: isa.OpQOne, QA: 49},
		{Op: isa.OpQSwap, QA: 49, QB: 50},
		{Op: isa.OpQOne, QA: 51},
		{Op: isa.OpQCswap, QA: 51, QB: 52, QC: 41},
		{Op: isa.OpQOne, QA: 53},
	} {
		exec(inst, false)
	}
	dirty := []uint8{40, 41, 42, 44, 45, 46, 47, 48, 50, 52}
	// swap into @1: a write without constants, a refusal with them.
	exec(isa.Inst{Op: isa.OpQSwap, QA: 53, QB: ConstOneReg()}, constRegs)
	exec(isa.Inst{Op: isa.OpQHad, QA: 54, K: uint8(q.Ways())}, true)
	if !constRegs {
		dirty = append(dirty, ConstOneReg())
	}
	if q.Ways() <= aob.MaxWays {
		q.SetReg(55, aob.HadVector(q.Ways(), 0))
		dirty = append(dirty, 55)
	}
	return dirty
}

// nonzero reports whether register r of q holds any 1 channel.
func nonzero(q *Coprocessor, r uint8) bool {
	if p := q.RegPattern(r); p != nil {
		return p.Pop() != 0
	}
	return q.Reg(r).Any()
}
