package lint_test

// Golden-diagnostic tests: one fixture per check class, pinning the exact
// (severity, check, address) triples the analyzer reports.

import (
	"fmt"
	"strings"
	"testing"

	"tangled/internal/asm"
	"tangled/internal/cpu"
	"tangled/internal/lint"
)

func mustAssemble(t *testing.T, src string) *asm.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

// keys flattens a report into deterministic "severity check addr" strings.
func keys(r *lint.Report) []string {
	out := make([]string, 0, len(r.Diags))
	for _, d := range r.Diags {
		out = append(out, fmt.Sprintf("%s %s %#04x", d.Severity, d.Check, d.Addr))
	}
	return out
}

func wantKeys(t *testing.T, r *lint.Report, want ...string) {
	t.Helper()
	got := keys(r)
	if len(got) != len(want) {
		t.Fatalf("diagnostics:\n  got  %v\n  want %v\nfull: %v", got, want, r.Diags)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("diagnostic %d:\n  got  %v\n  want %v\nfull: %v", i, got, want, r.Diags)
		}
	}
}

func TestCleanProgram(t *testing.T) {
	r, err := lint.AnalyzeSource(`
	lex $1, 5
	lex $2, 7
	add $1, $2
	lex $0, 1
	sys
	lex $0, 0
	sys
`, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantKeys(t, r)
	if sev, any := r.Max(); any {
		t.Errorf("Max = %v, %v on a clean program", sev, any)
	}
}

func TestUseBeforeDefCPU(t *testing.T) {
	r, err := lint.AnalyzeSource(`
	lex $0, 1
	copy $1, $2
	sys
	lex $0, 0
	sys
`, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantKeys(t, r, "warning use-before-def 0x0001")
	if d := r.Diags[0]; d.Line != 3 || !strings.Contains(d.Msg, "$2") {
		t.Errorf("diag = %+v, want line 3 about $2", d)
	}
}

func TestUseBeforeDefQat(t *testing.T) {
	r, err := lint.AnalyzeSource(`
	lex $2, 0
	meas $2, @5
	lex $0, 0
	sys
`, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantKeys(t, r, "warning use-before-def 0x0001")
	if d := r.Diags[0]; !strings.Contains(d.Msg, "@5") || !strings.Contains(d.Msg, "pbit") {
		t.Errorf("diag = %+v, want never-prepared pbit about @5", d)
	}
}

func TestDeadStoreCPU(t *testing.T) {
	r, err := lint.AnalyzeSource(`
	lex $1, 5
	lex $1, 7
	lex $0, 0
	sys
`, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantKeys(t, r, "warning dead-store 0x0000")
	if !strings.Contains(r.Diags[0].Msg, "$1") {
		t.Errorf("diag = %+v, want about $1", r.Diags[0])
	}
}

func TestDeadStoreQat(t *testing.T) {
	// The first write is overwritten; the second is never observed before
	// the certain halt, after which Qat state is unreachable.
	r, err := lint.AnalyzeSource(`
	one @3
	zero @3
	lex $0, 0
	sys
`, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantKeys(t, r, "warning dead-store 0x0000", "warning dead-store 0x0001")
}

func TestUnreachableAfterBrPair(t *testing.T) {
	// br expands to a complementary brf/brt pair on $at: the pair must be
	// understood as unconditional (making the next line unreachable) and
	// must not count as a read of the never-written $at.
	r, err := lint.AnalyzeSource(`
	br end
	lex $1, 1
end:	lex $0, 0
	sys
`, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantKeys(t, r, "warning unreachable 0x0002")
}

func TestUnreachableAfterResolvedJump(t *testing.T) {
	// jump expands to lex/lhi/jumpr on $at; constant propagation must
	// resolve the target so the skipped line is provably unreachable.
	r, err := lint.AnalyzeSource(`
	jump end
	lex $1, 1
end:	lex $0, 0
	sys
`, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantKeys(t, r, "warning unreachable 0x0003")
}

func TestIndirectJumpImprecise(t *testing.T) {
	// A jumpr through a computed value cannot be resolved: labeled code
	// must then count as reachable (no false unreachable/no-halt findings)
	// and dataflow must stay conservative (no false dead stores).
	r, err := lint.AnalyzeSource(`
	lex $1, 2
	lex $2, 4
	add $1, $2
	jumpr $1
end:	lex $0, 0
	sys
`, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantKeys(t, r)
}

func TestNoHaltFallsOffEnd(t *testing.T) {
	r, err := lint.AnalyzeSource("\tlex $1, 2\n", lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantKeys(t, r, "error no-halt 0x0000", "error no-halt 0x0000")
	var sawFall, sawNoSys bool
	for _, d := range r.Diags {
		sawFall = sawFall || strings.Contains(d.Msg, "falls off the end")
		sawNoSys = sawNoSys || strings.Contains(d.Msg, "no sys instruction")
	}
	if !sawFall || !sawNoSys {
		t.Errorf("diags = %v, want fall-off-end and no-reachable-sys", r.Diags)
	}
}

func TestSelfLoop(t *testing.T) {
	r, err := lint.AnalyzeSource(`
loop:	br loop
	lex $0, 0
	sys
`, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantKeys(t, r,
		"error no-halt 0x0000",
		"error self-loop 0x0000",
		"warning unreachable 0x0002")
}

func TestBranchIntoData(t *testing.T) {
	r, err := lint.AnalyzeSource(`
	lex $1, 1
	brt $1, data
	lex $0, 0
	sys
data:	.word 7
`, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantKeys(t, r, "error no-halt 0x0001")
	if !strings.Contains(r.Diags[0].Msg, "data word at 0x0004") {
		t.Errorf("diag = %+v, want jump-into-data at 0x0004", r.Diags[0])
	}
}

func TestFallThroughIntoData(t *testing.T) {
	// sys with $0 = 1 (PutInt) does not halt, so execution continues into
	// the data word that follows.
	r, err := lint.AnalyzeSource(`
	lex $0, 1
	sys
	.word 9
`, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantKeys(t, r, "error no-halt 0x0001")
	if !strings.Contains(r.Diags[0].Msg, "falls through into") {
		t.Errorf("diag = %+v, want falls-through-into-data", r.Diags[0])
	}
}

func TestIllegalInstWordImage(t *testing.T) {
	// A raw word image (no assembler code/data marks) whose reachable path
	// runs into an undecodable word.
	p := mustAssemble(t, "\tlex $0, 1\n\tsys\n")
	p.Words = append(p.Words, 0xA000) // illegal major opcode
	r := lint.Analyze(p, lint.Options{})
	wantKeys(t, r, "error illegal-inst 0x0001")
	if !strings.Contains(r.Diags[0].Msg, "does not decode") {
		t.Errorf("diag = %+v, want does-not-decode", r.Diags[0])
	}
}

func TestSysOnlyProgramHalts(t *testing.T) {
	// The loader zeroes registers, so a bare sys is a certain halt (no
	// fall-off-the-end finding) — but it does read the implicit zero.
	r, err := lint.AnalyzeSource("\tsys\n", lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantKeys(t, r, "warning use-before-def 0x0000")
}

func TestEmptyProgram(t *testing.T) {
	r := lint.Analyze(&asm.Program{}, lint.Options{})
	wantKeys(t, r, "error no-halt 0x0000")
}

// paddedHalt is `lex $0,0; sys` zero-padded to n words, with no data marks.
func paddedHalt(t *testing.T, n int) *asm.Program {
	t.Helper()
	p := mustAssemble(t, "\tlex\t$0, 0\n\tsys\n")
	p.Words = append(p.Words, make([]uint16, n-len(p.Words))...)
	p.Source, p.Data = nil, nil
	return p
}

func TestFullMemoryImage(t *testing.T) {
	// A 65536-word image fills memory exactly: cpu.Load runs it, so it
	// lints like the same program one word shorter — the zero padding is
	// unreachable code, and the reachable sys halts.
	for _, n := range []int{cpu.MemWords - 1, cpu.MemWords} {
		r, f := lint.AnalyzeWithFacts(paddedHalt(t, n), lint.Options{})
		wantKeys(t, r, "info unreachable 0x0002")
		if f.Len != n || len(f.HaltAt) != 1 || !f.Insts[1].Reachable {
			t.Fatalf("%d words: len=%d haltAt=%v: the halting sys is not in the facts", n, f.Len, f.HaltAt)
		}
	}
}

func TestImageLongerThanMemory(t *testing.T) {
	p := paddedHalt(t, cpu.MemWords+1)
	wantKeys(t, lint.Analyze(p, lint.Options{}), "error image-size 0x0000")
	r, f := lint.AnalyzeWithFacts(p, lint.Options{})
	wantKeys(t, r, "error image-size 0x0000")
	if len(f.Insts) != 0 || len(f.Blocks) != 0 {
		t.Fatalf("refused image has %d instruction and %d block facts", len(f.Insts), len(f.Blocks))
	}
}

func TestHotBlockAndCosts(t *testing.T) {
	src := `
	lex $1, 10
	lex $3, -1
loop:	had @0, 3
	xor @1, @0, @0
	add $1, $3
	brt $1, loop
	lex $0, 0
	sys
`
	r, err := lint.AnalyzeSource(src, lint.Options{Ways: 4, HotErasedBits: 16})
	if err != nil {
		t.Fatal(err)
	}
	wantKeys(t, r,
		"info hot-block 0x0002",
		"warning dead-store 0x0003")
	var loop *lint.BlockCost
	for i := range r.Blocks {
		if r.Blocks[i].Start == 2 {
			loop = &r.Blocks[i]
		}
	}
	if loop == nil {
		t.Fatalf("no loop block cost in %+v", r.Blocks)
	}
	if !loop.InLoop || loop.QatOps != 2 || loop.IrreversibleOps != 2 ||
		loop.ErasedBitsMax != 32 || loop.SwitchedBitsMax != 32 {
		t.Errorf("loop cost = %+v", *loop)
	}
	// A bigger erasure budget silences the advisory but keeps the costs.
	r2, err := lint.AnalyzeSource(src, lint.Options{Ways: 4, HotErasedBits: 64})
	if err != nil {
		t.Fatal(err)
	}
	wantKeys(t, r2, "warning dead-store 0x0003")
}

func TestReportCounts(t *testing.T) {
	r, err := lint.AnalyzeSource(`
loop:	br loop
	lex $0, 0
	sys
`, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Errors != 2 || r.Warnings != 1 || r.Infos != 0 {
		t.Errorf("counts = %d/%d/%d, want 2/1/0", r.Errors, r.Warnings, r.Infos)
	}
	if sev, any := r.Max(); sev != lint.Error || !any {
		t.Errorf("Max = %v, %v", sev, any)
	}
	if n := r.CountAtLeast(lint.Warning); n != 3 {
		t.Errorf("CountAtLeast(Warning) = %d, want 3", n)
	}
	if n := r.CountAtLeast(lint.Error); n != 2 {
		t.Errorf("CountAtLeast(Error) = %d, want 2", n)
	}
}

func TestSeverityRoundTrip(t *testing.T) {
	for _, s := range []lint.Severity{lint.Info, lint.Warning, lint.Error} {
		got, err := lint.ParseSeverity(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSeverity(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := lint.ParseSeverity("fatal"); err == nil {
		t.Error("ParseSeverity(fatal) succeeded")
	}
	var s lint.Severity
	if err := s.UnmarshalJSON([]byte(`"error"`)); err != nil || s != lint.Error {
		t.Errorf("UnmarshalJSON = %v, %v", s, err)
	}
}

func TestImpreciseLabelIntoPartialDataNotRoot(t *testing.T) {
	// Regression: under imprecise mode the analyzer widens reachability to
	// every labeled instruction. A label pointing into a data region (a jump
	// table, say) must not qualify even when (a) the data word happens to
	// decode as an instruction and (b) the image carries only a
	// partial-length Data slice, which the stream sweep cannot use for
	// code/data breaking. Previously such a label became a CFG root and the
	// decoded garbage poisoned reachability and liveness.
	p := mustAssemble(t, `
	lex $1, 2
	lex $2, 4
	add $1, $2
	jumpr $1
end:	lex $0, 0
	sys
tbl:	.word 4096
`)
	tbl, ok := p.Symbols["tbl"]
	if !ok {
		t.Fatal("no tbl symbol")
	}
	if !p.Data[tbl] {
		t.Fatalf("word %#04x not data-marked", tbl)
	}
	// Truncate the marks to a partial-length slice (still covering tbl) by
	// appending an unmarked word, so markedData cannot break the stream and
	// the data word — which decodes as an instruction — enters the sweep.
	p.Words = append(p.Words, p.Words[0])
	_, f := lint.AnalyzeWithFacts(p, lint.Options{})
	if !f.Imprecise {
		t.Fatal("analysis not imprecise — fixture no longer exercises widening")
	}
	i, ok := f.ByAddr(tbl)
	if !ok {
		t.Fatalf("data word at %#04x did not decode; fixture needs a decodable word", tbl)
	}
	if f.Insts[i].Reachable || f.Insts[i].Block != -1 {
		t.Errorf("labeled data word at %#04x became a reachability root (reachable=%v block=%d)",
			tbl, f.Insts[i].Reachable, f.Insts[i].Block)
	}
	for _, b := range f.Blocks {
		for _, ii := range b.Insts {
			if f.Insts[ii].Addr == tbl {
				t.Errorf("block %d contains the data word at %#04x", b.ID, tbl)
			}
		}
	}
}
