package opt_test

// The recompiler's reason to exist, measured: hand-written programs dense
// in the patterns the passes target (overwritten stores, foldable constant
// chains, cancelling Qat inverters, energy-redundant re-inits). Each must be
// rewritten, and the rewrite must match the original on every backend
// before its shrink counts. The corpus suites prove the refusal discipline;
// these examples prove the passes still fire.

import (
	"testing"

	"tangled/internal/asm"
	"tangled/internal/farm"
	"tangled/internal/farm/farmtest"
	"tangled/internal/opt"
)

// peepholeExamples are lint-clean, load-free (so every rewrite is provable)
// and halt.
var peepholeExamples = []struct{ name, src string }{
	{"dead-stores", `
	lex	$1, 11
	lex	$2, 22
	lex	$3, 33
	lex	$1, 1
	lex	$2, 2
	lex	$3, 3
	add	$1, $2
	add	$1, $3
	lex	$0, 1
	sys
	lex	$0, 0
	sys
`},
	{"const-chain", `
	lex	$4, 7
	lhi	$4, 0
	copy	$5, $4
	add	$5, $4
	mul	$5, $4
	lex	$6, 0
	add	$5, $6
	lex	$0, 1
	sys
	lex	$0, 0
	sys
`},
	{"qat-not-pairs", `
	one	@1
	not	@2
	not	@2
	cnot	@3, @1
	not	@4
	not	@4
	xor	@5, @1, @3
	pop	$1, @5
	pop	$2, @3
	lex	$0, 0
	sys
`},
	{"energy-reinit", `
	zero	@1
	zero	@2
	one	@3
	one	@3
	cnot	@4, @1
	ccnot	@5, @3, @3
	swap	@6, @7
	pop	$2, @5
	pop	$3, @3
	lex	$0, 0
	sys
`},
	{"mixed-loop", `
	lex	$1, 3
	lex	$5, -1
	lex	$7, 99
	lex	$7, 1
	not	$8
	not	$8
loop:	add	$2, $1
	add	$1, $5
	brt	$1, loop
	lex	$0, 0
	sys
`},
}

// TestPeepholeExamplesShrink requires every example to be rewritten with
// byte-identical registers and output on the functional, 4-stage, 5-stage
// and RE backends, a mean static-instruction reduction of at least 5%, and
// nonzero switched-bit savings in the static energy model.
func TestPeepholeExamplesShrink(t *testing.T) {
	const minMeanReductionPct = 5
	engine := farm.New(0)
	var sumPct float64
	var switchedSaved, erasedSaved uint64
	for _, ex := range peepholeExamples {
		prog, err := asm.Assemble(ex.src)
		if err != nil {
			t.Fatalf("%s: %v", ex.name, err)
		}
		optProg, rep := opt.Optimize(prog, opt.Options{Ways: farmtest.Ways})
		if !rep.Applied {
			t.Fatalf("%s: optimizer refused (%s)", ex.name, rep.Reason)
		}
		results, _ := engine.Run(nil, append(diffBackends("orig", prog), diffBackends("opt", optProg)...))
		for _, res := range results {
			if res.Err != nil {
				t.Fatalf("%s, %s: %v", ex.name, res.Name, res.Err)
			}
		}
		for b := 0; b < 4; b++ {
			o, q := results[b], results[b+4]
			if o.Regs != q.Regs || o.Output != q.Output {
				t.Fatalf("%s, %s: rewrite diverged: regs %v vs %v, output %q vs %q",
					ex.name, o.Name, o.Regs, q.Regs, o.Output, q.Output)
			}
		}
		pct := 100 * float64(rep.InstsBefore-rep.InstsAfter) / float64(rep.InstsBefore)
		sumPct += pct
		switchedSaved += rep.SwitchedBefore - rep.SwitchedAfter
		erasedSaved += rep.ErasedBefore - rep.ErasedAfter
		t.Logf("%-14s insts %2d -> %2d (%5.1f%%), words %2d -> %2d, switched -%d, erased -%d",
			ex.name, rep.InstsBefore, rep.InstsAfter, pct, rep.WordsBefore, rep.WordsAfter,
			rep.SwitchedBefore-rep.SwitchedAfter, rep.ErasedBefore-rep.ErasedAfter)
	}
	mean := sumPct / float64(len(peepholeExamples))
	t.Logf("mean inst reduction %.1f%% over %d examples; switched bits saved %d, erased %d",
		mean, len(peepholeExamples), switchedSaved, erasedSaved)
	if mean < minMeanReductionPct {
		t.Fatalf("mean instruction reduction %.1f%% is below %d%%: the passes stopped firing", mean, minMeanReductionPct)
	}
	if switchedSaved == 0 {
		t.Fatal("examples saved zero switched bits: the energy passes stopped firing")
	}
}
