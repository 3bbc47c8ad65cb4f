package energy_test

import (
	"testing"

	"tangled/internal/aob"
	"tangled/internal/asm"
	"tangled/internal/compile"
	"tangled/internal/cpu"
	"tangled/internal/energy"
	"tangled/internal/isa"
	"tangled/internal/qat"
)

func TestClassify(t *testing.T) {
	rev := []isa.Op{isa.OpQNot, isa.OpQCnot, isa.OpQCcnot, isa.OpQSwap, isa.OpQCswap}
	irr := []isa.Op{isa.OpQAnd, isa.OpQOr, isa.OpQXor, isa.OpQZero, isa.OpQOne, isa.OpQHad}
	ro := []isa.Op{isa.OpQMeas, isa.OpQNext, isa.OpQPop, isa.OpAdd}
	for _, op := range rev {
		if energy.Classify(op) != energy.Reversible {
			t.Errorf("%s should be reversible", op.Name())
		}
	}
	for _, op := range irr {
		if energy.Classify(op) != energy.Irreversible {
			t.Errorf("%s should be irreversible", op.Name())
		}
	}
	for _, op := range ro {
		if energy.Classify(op) != energy.ReadOnly {
			t.Errorf("%s should be read-only", op.Name())
		}
	}
}

func TestToggles(t *testing.T) {
	a, _ := aob.FromString(3, "00001111")
	b, _ := aob.FromString(3, "01010101")
	if got := energy.Toggles(a, b); got != 4 {
		t.Errorf("toggles = %d, want 4", got)
	}
	if energy.Toggles(a, a) != 0 {
		t.Error("self toggles must be 0")
	}
}

func TestTogglesMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	energy.Toggles(aob.New(3), aob.New(4))
}

func TestMeterAccounting(t *testing.T) {
	m := energy.NewMeter()
	zero := aob.New(4)
	ones := aob.OneVector(4)
	m.Record(isa.OpQOne, [2]*aob.Vector{zero, ones}) // irreversible, 16 toggles
	m.Record(isa.OpQNot, [2]*aob.Vector{ones, zero}) // reversible, 16 toggles
	m.Record(isa.OpQMeas)                            // read-only
	if m.SwitchedBits != 32 {
		t.Errorf("switched = %d", m.SwitchedBits)
	}
	if m.ErasedBits != 16 {
		t.Errorf("erased = %d", m.ErasedBits)
	}
	if m.AdiabaticRecoverable() != 16 {
		t.Errorf("recoverable = %d", m.AdiabaticRecoverable())
	}
	if m.ReversibleOps != 1 || m.IrreversibleOps != 1 || m.ReadOps != 1 {
		t.Errorf("op classes: %+v", m)
	}
	m.Reset()
	if *m != (energy.Meter{}) {
		t.Errorf("reset incomplete: %+v", m)
	}
}

// runMetered executes an assembly program with the energy meter attached.
func runMetered(t *testing.T, src string, ways int) (*cpu.Machine, *energy.Meter) {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := cpu.New(ways)
	meter := energy.NewMeter()
	m.Qat.Meter = meter
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	return m, meter
}

func TestMeterOnMachine(t *testing.T) {
	_, meter := runMetered(t, `
	one @1            ; 256 toggles, erased
	not @1            ; 256 toggles, recoverable
	had @2,0          ; 128 toggles, erased
	lex $1,3
	meas $1,@2        ; read-only
	lex $0,0
	sys
	`, 8)
	if meter.SwitchedBits != 256+256+128 {
		t.Errorf("switched = %d", meter.SwitchedBits)
	}
	if meter.ErasedBits != 256+128 {
		t.Errorf("erased = %d", meter.ErasedBits)
	}
	if meter.ReadOps != 1 {
		t.Errorf("read ops = %d", meter.ReadOps)
	}
}

func TestSwapIsConservative(t *testing.T) {
	// Swap toggles bits but erases nothing — the billiard-ball argument.
	_, meter := runMetered(t, `
	had @1,0
	had @2,1
	swap @1,@2
	cswap @1,@2,@1
	lex $0,0
	sys
	`, 8)
	if meter.AdiabaticRecoverable() == 0 {
		t.Error("swap toggles should be recoverable")
	}
	// Only the two had initializers erase.
	if meter.ErasedBits != 128+128 {
		t.Errorf("erased = %d", meter.ErasedBits)
	}
}

// TestS5EnergyAblation is the paper's open power question quantified: the
// reversible-only compilation of the factoring program switches more bits
// in total (more instructions) but nearly all of its switching is
// adiabatically recoverable, while the irreversible compilation erases a
// large fraction outright.
func TestS5EnergyAblation(t *testing.T) {
	run := func(opts compile.Options) *energy.Meter {
		res, err := compile.FactorProgram(15, 8, 4, 4, opts)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := asm.Assemble(res.Asm)
		if err != nil {
			t.Fatal(err)
		}
		m := cpu.New(8)
		meter := energy.NewMeter()
		m.Qat.Meter = meter
		if err := m.Load(prog); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(10_000_000); err != nil {
			t.Fatal(err)
		}
		if m.Regs[4] != 5 || m.Regs[1] != 3 {
			t.Fatal("wrong factors")
		}
		return meter
	}
	irr := run(compile.Options{})
	rev := run(compile.Options{Reversible: true})

	irrErasedFrac := float64(irr.ErasedBits) / float64(irr.SwitchedBits)
	revErasedFrac := float64(rev.ErasedBits) / float64(rev.SwitchedBits)
	t.Logf("irreversible: %d switched, %d erased (%.0f%%)",
		irr.SwitchedBits, irr.ErasedBits, 100*irrErasedFrac)
	t.Logf("reversible:   %d switched, %d erased (%.0f%%)",
		rev.SwitchedBits, rev.ErasedBits, 100*revErasedFrac)
	if revErasedFrac >= irrErasedFrac {
		t.Errorf("reversible compilation erases a larger fraction (%.2f >= %.2f)",
			revErasedFrac, irrErasedFrac)
	}
	if rev.ErasedBits >= irr.ErasedBits {
		t.Errorf("reversible erases more bits outright (%d >= %d)",
			rev.ErasedBits, irr.ErasedBits)
	}
}

// TestStaticCostBoundsMeter checks that the static per-op bound dominates
// every dynamic measurement: run an op on a real coprocessor and compare the
// meter's recorded toggles against StaticCost.
func TestStaticCostBoundsMeter(t *testing.T) {
	const ways = 6
	ops := []isa.Inst{
		{Op: isa.OpQZero, QA: 1},
		{Op: isa.OpQOne, QA: 1},
		{Op: isa.OpQNot, QA: 1},
		{Op: isa.OpQHad, QA: 1, K: 3},
		{Op: isa.OpQAnd, QA: 1, QB: 2, QC: 3},
		{Op: isa.OpQXor, QA: 1, QB: 2, QC: 3},
		{Op: isa.OpQCnot, QA: 1, QB: 2},
		{Op: isa.OpQSwap, QA: 1, QB: 2},
		{Op: isa.OpQCswap, QA: 1, QB: 2, QC: 3},
		{Op: isa.OpQMeas, RD: 1, QA: 1},
	}
	for _, inst := range ops {
		q := qat.New(ways)
		q.Meter = energy.NewMeter()
		for a := uint8(1); a <= 3; a++ {
			if _, _, err := q.Exec(isa.Inst{Op: isa.OpQHad, QA: a, K: a % ways}, 0); err != nil {
				t.Fatal(err)
			}
		}
		q.Meter.Reset()
		if _, _, err := q.Exec(inst, 0); err != nil {
			t.Fatalf("%s: %v", inst, err)
		}
		sw, er := energy.StaticCost(inst.Op, ways)
		if q.Meter.SwitchedBits > sw {
			t.Errorf("%s: measured %d switched > static bound %d", inst, q.Meter.SwitchedBits, sw)
		}
		if q.Meter.ErasedBits > er {
			t.Errorf("%s: measured %d erased > static bound %d", inst, q.Meter.ErasedBits, er)
		}
	}
	if sw, er := energy.StaticCost(isa.OpAdd, ways); sw != 0 || er != 0 {
		t.Errorf("non-Qat op has static cost %d/%d", sw, er)
	}
}
