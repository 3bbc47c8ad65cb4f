package profile

// Unit tests for the static profiler: dependence-set transfer rules,
// CFG joins, re-initialization splits, imprecise-mode widening, channel
// groups, Qat write counts, and the energy bounds.

import (
	"encoding/json"
	"reflect"
	"testing"

	"tangled/internal/asm"
	"tangled/internal/lint"
)

func profileFor(t *testing.T, src string, ways int) *lint.Profile {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	_, f := lint.AnalyzeWithFacts(p, lint.Options{Ways: ways})
	prof := Compute(f, Options{Ways: ways})
	if f.Profile != prof {
		t.Fatal("Compute did not attach the profile to the facts")
	}
	return prof
}

func TestStraightLineDegrees(t *testing.T) {
	// had 0 and had 1 merged by cnot: degree 2 in @2's chain; @3 re-derived
	// from a single had: degree 1.
	p := profileFor(t, `
	had	@1, 0
	had	@2, 1
	cnot	@2, @1
	had	@3, 2
	not	@3
	lex	$0, 0
	sys
`, 4)
	if p.DegreeBound != 2 {
		t.Fatalf("DegreeBound=%d, want 2", p.DegreeBound)
	}
	if got := p.MaxReg(2); got != 2 {
		t.Fatalf("MaxReg(2)=%d, want 2", got)
	}
	if got := p.MaxReg(1); got != 1 {
		t.Fatalf("MaxReg(1)=%d, want 1", got)
	}
	if got := p.MaxReg(3); got != 1 {
		t.Fatalf("MaxReg(3)=%d, want 1 (not preserves the set)", got)
	}
	if p.RequiredWays != 3 {
		t.Fatalf("RequiredWays=%d, want 3 (had @3,2)", p.RequiredWays)
	}
	// Channels 0 and 1 entangle; channel 2 stays alone; channel 3 unused.
	want := [][]int{{0, 1}}
	if !reflect.DeepEqual(p.Groups, want) {
		t.Fatalf("Groups=%v, want %v", p.Groups, want)
	}
	if p.Imprecise {
		t.Fatal("precise program marked imprecise")
	}
}

func TestReinitSplits(t *testing.T) {
	// After merging 0,1 into @1, zero @1 resets its set; the later degree
	// never exceeds 1, but the bound keeps the historical max.
	p := profileFor(t, `
	had	@1, 0
	had	@2, 1
	ccnot	@1, @2, @1
	zero	@1
	had	@1, 2
	lex	$0, 0
	sys
`, 4)
	if got := p.MaxReg(1); got != 2 {
		t.Fatalf("MaxReg(1)=%d, want 2 (historical max before re-init)", got)
	}
	// The union of channels @1 ever depended on includes all three.
	var ch []int
	for _, r := range p.Regs {
		if r.Reg == 1 {
			ch = r.Channels
		}
	}
	if !reflect.DeepEqual(ch, []int{0, 1, 2}) {
		t.Fatalf("channels(@1)=%v, want [0 1 2]", ch)
	}
}

func TestJoinAtMerge(t *testing.T) {
	// Two branches give @1 dependence {0} or {1}; after the merge the join
	// is {0,1} even though neither path alone entangles them — the bound is
	// path-insensitive by design.
	p := profileFor(t, `
	brt	$1, alt
	had	@1, 0
	jump	out
alt:	had	@1, 1
out:	cnot	@2, @1
	lex	$0, 0
	sys
`, 4)
	if got := p.MaxReg(2); got != 2 {
		t.Fatalf("MaxReg(2)=%d, want 2 (join of {0} and {1})", got)
	}
}

func TestSwapExchanges(t *testing.T) {
	p := profileFor(t, `
	had	@1, 0
	had	@2, 1
	cnot	@2, @1
	swap	@1, @2
	zero	@2
	cnot	@3, @1
	lex	$0, 0
	sys
`, 4)
	// After swap, @1 carries the merged {0,1} set; @2 the single {0} then
	// zeroed; @3 inherits the merged set via cnot.
	if got := p.MaxReg(3); got != 2 {
		t.Fatalf("MaxReg(3)=%d, want 2 (swap moved merged set into @1)", got)
	}
}

func TestImpreciseWidens(t *testing.T) {
	p := profileFor(t, `
	lex	$1, 2
	lex	$2, 3
	add	$1, $2
	jumpr	$1
L:	had	@1, 0
	lex	$0, 0
	sys
`, 6)
	if !p.Imprecise {
		t.Skip("program unexpectedly resolved precisely")
	}
	if p.DegreeBound != 6 {
		t.Fatalf("DegreeBound=%d, want ways=6 under imprecision", p.DegreeBound)
	}
	if got := p.MaxReg(1); got != 6 {
		t.Fatalf("MaxReg(1)=%d, want 6 (widened)", got)
	}
}

func TestWritesAndCosts(t *testing.T) {
	// Every Qat op but the reductions (meas, next, pop) writes a register;
	// swap and cswap write two but count once.
	p := profileFor(t, `
	zero	@1
	one	@2
	had	@3, 1
	xor	@4, @1, @2
	swap	@1, @2
	cswap	@1, @2, @3
	meas	$1, @4
	pop	$2, @4
	lex	$0, 0
	sys
`, 4)
	if p.QatWrites != 6 {
		t.Fatalf("writes=%d, want 6", p.QatWrites)
	}
	if p.SwitchedBound == 0 {
		t.Fatal("SwitchedBound=0 despite Qat writes")
	}
	if p.QatOps != 8 || p.Insts != 10 {
		t.Fatalf("QatOps=%d Insts=%d, want 8/10", p.QatOps, p.Insts)
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	p := profileFor(t, `
	had	@1, 0
	cnot	@2, @1
	lex	$0, 0
	sys
`, 4)
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back lint.Profile
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.DegreeBound != p.DegreeBound || back.Ways != p.Ways {
		t.Fatalf("round-trip mismatch: %+v vs %+v", back, p)
	}
}

func TestDeterminism(t *testing.T) {
	src := `
	had	@1, 0
	had	@2, 1
	had	@3, 2
	ccnot	@4, @1, @2
	cswap	@3, @4, @1
	or	@5, @3, @4
	lex	$0, 0
	sys
`
	a := profileFor(t, src, 6)
	b := profileFor(t, src, 6)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("profiles differ across runs:\n%s\n%s", ja, jb)
	}
}
