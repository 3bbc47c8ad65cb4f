package lint

// Tests for the exported Facts projection (the optimizer's analysis surface)
// and the had-range check it gates on.

import (
	"testing"

	"tangled/internal/asm"
	"tangled/internal/isa"
)

func factsFor(t *testing.T, src string, opts Options) (*Report, *Facts) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return AnalyzeWithFacts(p, opts)
}

func TestFactsBasicShape(t *testing.T) {
	rep, f := factsFor(t, `
	lex	$1, 3
	lex	$2, -1
loop:	add	$1, $2
	brt	$1, loop
	lex	$0, 0
	sys
`, Options{})
	if rep.Errors > 0 {
		t.Fatalf("unexpected errors: %+v", rep.Diags)
	}
	if f.Len != 6 || len(f.Insts) != 6 {
		t.Fatalf("len=%d insts=%d, want 6/6", f.Len, len(f.Insts))
	}
	if f.Imprecise || f.DataWords != 0 {
		t.Fatalf("imprecise=%v datawords=%d on a precise program", f.Imprecise, f.DataWords)
	}
	// Three blocks: prologue, loop body, epilogue.
	if len(f.Blocks) != 3 {
		t.Fatalf("blocks=%d, want 3", len(f.Blocks))
	}
	for i := range f.Insts {
		fi := &f.Insts[i]
		if fi.Index != i {
			t.Fatalf("inst %d: index=%d", i, fi.Index)
		}
		if !fi.Reachable || fi.Block < 0 {
			t.Fatalf("inst %d unexpectedly unreachable", i)
		}
		if j, ok := f.ByAddr(fi.Addr); !ok || j != i {
			t.Fatalf("ByAddr[%#04x]=%d, want %d", fi.Addr, j, i)
		}
	}
	// The loop block must carry InLoop and a loop-carried live-out: $1 and
	// $2 are read on the next iteration.
	loopBlock := f.Blocks[f.Insts[2].Block]
	if !loopBlock.InLoop {
		t.Fatal("loop body not marked InLoop")
	}
	if !loopBlock.LiveOut.HasCPU(1) || !loopBlock.LiveOut.HasCPU(2) {
		t.Fatalf("loop live-out %+v misses the loop-carried registers", loopBlock.LiveOut)
	}
	// The final block contains a certain halt.
	last := f.Blocks[f.Insts[5].Block]
	if !last.MayHalt {
		t.Fatal("epilogue block not marked MayHalt")
	}
	if !f.HaltAt[f.Insts[5].Addr] {
		t.Fatalf("HaltAt misses the certain halt at %#04x", f.Insts[5].Addr)
	}
}

func TestFactsUnreachableBlock(t *testing.T) {
	_, f := factsFor(t, `
	lex	$0, 0
	sys
	lex	$5, 9
`, Options{})
	fi := &f.Insts[2]
	if fi.Reachable || fi.Block != -1 {
		t.Fatalf("dead tail: reachable=%v block=%d, want false/-1", fi.Reachable, fi.Block)
	}
}

func TestFactsImpreciseJumpr(t *testing.T) {
	// A jumpr whose target register the constant pass cannot resolve.
	_, f := factsFor(t, `
	had	@0, 2
	meas	$1, @0
	jumpr	$1
	lex	$0, 0
	sys
`, Options{})
	if !f.Imprecise {
		t.Fatal("unresolved jumpr did not mark the facts imprecise")
	}
}

func TestFactsResolvedJumpr(t *testing.T) {
	// The jump pseudo resolves: precise facts, target recorded.
	_, f := factsFor(t, `
	jump	skip
	lex	$4, 1
skip:	lex	$0, 0
	sys
`, Options{})
	if f.Imprecise {
		t.Fatal("resolved jump marked imprecise")
	}
	if len(f.JumprTargets) == 0 {
		t.Fatal("resolved jumpr target not recorded")
	}
}

func TestRegSetOps(t *testing.T) {
	var a, b RegSet
	a.CPU = 1<<3 | 1<<5
	a.Qat[1] = 1 << 2 // @66
	b.CPU = 1 << 5
	if !a.HasCPU(3) || !a.HasCPU(5) || a.HasCPU(4) {
		t.Fatal("HasCPU wrong")
	}
	if !a.HasQat(66) || a.HasQat(65) {
		t.Fatal("HasQat wrong")
	}
	if !a.Intersects(b) || b.Intersects(RegSet{}) {
		t.Fatal("Intersects wrong")
	}
	d := a.Diff(b)
	if d.HasCPU(5) || !d.HasCPU(3) || !d.HasQat(66) {
		t.Fatal("Diff wrong")
	}
	u := d.Union(b)
	if u != a {
		t.Fatal("Union wrong")
	}
	if !(RegSet{}).Empty() || a.Empty() {
		t.Fatal("Empty wrong")
	}
}

func TestDefUseSets(t *testing.T) {
	// lhi reads and writes its register.
	lhi := isa.Inst{Op: isa.OpLhi, RD: 4, Imm: 1}
	if d := DefSet(lhi); !d.HasCPU(4) || d.CPU != 1<<4 {
		t.Fatalf("lhi def = %+v", d)
	}
	if u := LiveUseSet(lhi, false); !u.HasCPU(4) {
		t.Fatalf("lhi use = %+v", u)
	}
	// sys: the definite-assignment use set narrows to the service
	// selector, LiveUseSet keeps all 16.
	sys := isa.Inst{Op: isa.OpSys}
	if u := daUseSet(&instNode{inst: sys, eff: isa.InstEffects(sys)}); u.CPU != 1<<0 {
		t.Fatalf("sys use = %+v", u)
	}
	if l := LiveUseSet(sys, false); l.CPU != 0xFFFF {
		t.Fatalf("sys live-use = %+v", l)
	}
	// A paired branch does not observe its condition register.
	br := isa.Inst{Op: isa.OpBrf, RD: 7, Imm: 2}
	if u := LiveUseSet(br, true); u.HasCPU(7) {
		t.Fatalf("paired brf observes the condition: %+v", u)
	}
	if u := LiveUseSet(br, false); !u.HasCPU(7) {
		t.Fatalf("unpaired brf misses the condition: %+v", u)
	}
	// swap writes both Qat registers.
	sw := isa.Inst{Op: isa.OpQSwap, QA: 3, QB: 200}
	if d := DefSet(sw); !d.HasQat(3) || !d.HasQat(200) {
		t.Fatalf("swap def = %+v", d)
	}
}

func TestCheckHadRange(t *testing.T) {
	src := `
	had	@0, 5
	lex	$0, 0
	sys
`
	// Within range at the default 16 ways: silent.
	rep, _ := factsFor(t, src, Options{})
	for _, d := range rep.Diags {
		if d.Check == CheckHadRange {
			t.Fatalf("had-range fired at 16 ways: %+v", d)
		}
	}
	// Out of range at 4 ways: a warning on the had's address.
	rep, _ = factsFor(t, src, Options{Ways: 4})
	found := false
	for _, d := range rep.Diags {
		if d.Check == CheckHadRange {
			found = true
			if d.Severity != Warning {
				t.Fatalf("had-range severity = %v, want warning", d.Severity)
			}
		}
	}
	if !found {
		t.Fatalf("had-range missing at 4 ways: %+v", rep.Diags)
	}
	// Unreachable had: silent even out of range.
	rep, _ = factsFor(t, `
	lex	$0, 0
	sys
	had	@0, 5
`, Options{Ways: 4})
	for _, d := range rep.Diags {
		if d.Check == CheckHadRange {
			t.Fatalf("had-range fired on unreachable code: %+v", d)
		}
	}
}

func TestFactsMatchAnalyze(t *testing.T) {
	// AnalyzeWithFacts must report exactly what Analyze reports.
	src := `
	lex	$1, 1
	lex	$1, 2
	lex	$0, 0
	sys
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	plain := Analyze(p, Options{})
	withFacts, _ := AnalyzeWithFacts(p, Options{})
	if len(plain.Diags) != len(withFacts.Diags) {
		t.Fatalf("diag count diverges: %d vs %d", len(plain.Diags), len(withFacts.Diags))
	}
	for i := range plain.Diags {
		if plain.Diags[i] != withFacts.Diags[i] {
			t.Fatalf("diag %d diverges: %+v vs %+v", i, plain.Diags[i], withFacts.Diags[i])
		}
	}
}
