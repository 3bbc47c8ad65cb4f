package farm_test

// The auto-backend planner through the farm: resolution to a concrete
// backend before pool/memo identity, byte-identical execution against the
// explicit spelling (including the width regime dense cannot serve), memo
// probe stickiness, and the unservable error surface.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"tangled/internal/aob"
	"tangled/internal/asm"
	"tangled/internal/backend"
	"tangled/internal/farm"
	"tangled/internal/farm/farmtest"
	"tangled/internal/lint"
	"tangled/internal/memo"
	"tangled/internal/profile"
	"tangled/internal/qat"
)

// wideEntangleSrc builds a program whose one register accumulates
// dependence on `chans` distinct channels (chans <= 16: the had index is a
// 4-bit immediate): seed @1..@chans with one had each, then cnot-fold them
// all into @1.
func wideEntangleSrc(chans int) string {
	var b strings.Builder
	for k := 0; k < chans; k++ {
		fmt.Fprintf(&b, "\thad\t@%d, %d\n", k+1, k)
	}
	for k := 1; k < chans; k++ {
		fmt.Fprintf(&b, "\tcnot\t@1, @%d\n", k+1)
	}
	// Observable reductions so divergence would show in the register file.
	b.WriteString("\tmeas\t$1, @1\n")
	b.WriteString("\tpop\t$2, @1\n")
	b.WriteString("\tnext\t$3, @1\n")
	b.WriteString("\tlex\t$0, 0\n\tsys\n")
	return b.String()
}

// profileAt is the static profile the planner computes for prog at ways
// when a rule reads it.
func profileAt(prog *asm.Program, ways int) *lint.Profile {
	_, f := lint.AnalyzeWithFacts(prog, lint.Options{Ways: min(ways, aob.MaxWays)})
	return profile.Compute(f, profile.Options{Ways: ways})
}

// TestAutoPicksREBeyondDense is the acceptance case: at a width dense
// hardware cannot hold, auto must resolve to the RE backend and produce
// the same bytes as the explicit RE spelling. The width alone decides, so
// the result carries no profile; the profiler, asked directly, records
// the degree bound.
func TestAutoPicksREBeyondDense(t *testing.T) {
	const ways = 20
	src := wideEntangleSrc(16)
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v\n%s", err, src)
	}
	engine := farm.New(0)
	results, _ := engine.Run(nil, []farm.Job{
		{Name: "auto", Prog: prog, Ways: ways, Backend: backend.Auto},
		{Name: "re", Prog: prog, Ways: ways, Backend: qat.BackendRE},
		{Name: "dense", Prog: prog, Ways: ways, Backend: qat.BackendDense},
	})
	auto, re, dense := results[0], results[1], results[2]
	if auto.Err != nil || re.Err != nil {
		t.Fatalf("auto err=%v re err=%v", auto.Err, re.Err)
	}
	if dense.Err == nil {
		t.Fatal("dense accepted 20 ways: the width must be past the dense wall")
	}
	if auto.Backend != qat.BackendRE {
		t.Fatalf("auto resolved to %q, want re", auto.Backend)
	}
	if auto.Profile != nil {
		t.Fatalf("width-forced plan computed a profile: %+v", auto.Profile)
	}
	if p := profileAt(prog, ways); p.DegreeBound != 16 {
		t.Fatalf("DegreeBound=%d, want 16 (all seedable channels folded)", p.DegreeBound)
	}
	if auto.Regs != re.Regs || auto.Output != re.Output || auto.Insts != re.Insts {
		t.Fatalf("auto diverged from explicit re:\nauto %v %q %d\nre   %v %q %d",
			auto.Regs, auto.Output, auto.Insts, re.Regs, re.Output, re.Insts)
	}
	if auto.Regs[1] == 0 && auto.Regs[2] == 0 && auto.Regs[3] == 0 {
		t.Fatal("reductions all zero: the program observed nothing")
	}
}

// TestAutoPicksREOnWideDegreeBound covers the degree > 16 regime: the had
// index is a 4-bit immediate, so a precise program tops out at degree 16 —
// past that the bound comes from imprecise-mode widening (an unresolved
// indirect jump widens every dependence set to the full width). At 20 ways
// the profile reports DegreeBound 20 > 16, dense cannot serve, and auto
// must land on RE with bytes identical to the explicit spelling — on the
// width alone, without computing that profile.
func TestAutoPicksREOnWideDegreeBound(t *testing.T) {
	const ways = 20
	src := `
	lex	$1, 1
	lex	$2, 3
	add	$1, $2
	jumpr	$1
L:	had	@1, 0
	meas	$4, @1
	pop	$5, @1
	lex	$0, 0
	sys
`
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	engine := farm.New(0)
	results, _ := engine.Run(nil, []farm.Job{
		{Name: "auto", Prog: prog, Ways: ways, Backend: backend.Auto},
		{Name: "re", Prog: prog, Ways: ways, Backend: qat.BackendRE},
		{Name: "dense", Prog: prog, Ways: ways, Backend: qat.BackendDense},
	})
	auto, re, dense := results[0], results[1], results[2]
	if auto.Err != nil || re.Err != nil {
		t.Fatalf("auto err=%v re err=%v", auto.Err, re.Err)
	}
	if dense.Err == nil {
		t.Fatal("dense accepted 20 ways")
	}
	if auto.Backend != qat.BackendRE {
		t.Fatalf("auto resolved to %q, want re", auto.Backend)
	}
	if auto.Profile != nil {
		t.Fatalf("width-forced plan computed a profile: %+v", auto.Profile)
	}
	if p := profileAt(prog, ways); !p.Imprecise || p.DegreeBound != ways {
		t.Fatalf("profile=%+v, want imprecise with DegreeBound %d", p, ways)
	}
	if auto.Regs != re.Regs || auto.Output != re.Output || auto.Insts != re.Insts {
		t.Fatal("auto diverged from explicit re")
	}
}

// TestAutoPlannerDifferential sweeps a corpus slice at a dense-servable
// width: whatever the planner picks must match the dense reference
// byte-for-byte, and the choice must be reported.
func TestAutoPlannerDifferential(t *testing.T) {
	const programs = 40
	engine := farm.New(0)
	for i := 0; i < programs; i++ {
		src := farmtest.Generate(farmtest.Seed(i))
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("program %d does not assemble: %v", i, err)
		}
		results, _ := engine.Run(nil, []farm.Job{
			{Name: "auto", Prog: prog, Ways: diffWays, Backend: backend.Auto},
			{Name: "dense", Prog: prog, Ways: diffWays, Backend: qat.BackendDense},
		})
		auto, dense := results[0], results[1]
		if auto.Err != nil || dense.Err != nil {
			t.Fatalf("program %d: auto err=%v dense err=%v\n%s", i, auto.Err, dense.Err, src)
		}
		if auto.Backend != qat.BackendDense && auto.Backend != qat.BackendRE {
			t.Fatalf("program %d: auto resolved to %q", i, auto.Backend)
		}
		if auto.Regs != dense.Regs || auto.Output != dense.Output || auto.Insts != dense.Insts {
			t.Fatalf("program %d: auto (%s) diverged from dense\n%s", i, auto.Backend, src)
		}
	}
}

// TestAutoMemoProbeSticky seeds the memo under the explicit RE identity;
// a later auto job for the same program must find it and resolve to RE
// (served from cache) even though the static rules would pick dense.
func TestAutoMemoProbeSticky(t *testing.T) {
	src := wideEntangleSrc(4) // small and low-degree: statically dense
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	engine := farm.New(0)
	engine.SetMemo(memo.New(64))

	// Statically the program prefers dense.
	plan, err := backend.PlanAuto(prog, qat.Config{Ways: 6, Backend: backend.Auto}, nil)
	if err != nil || plan.Config.Backend != qat.BackendDense {
		t.Fatalf("static plan=%+v err=%v, want dense", plan.Config, err)
	}

	seed, _ := engine.Run(nil, []farm.Job{{Prog: prog, Ways: 6, Backend: qat.BackendRE}})
	if seed[0].Err != nil {
		t.Fatal(seed[0].Err)
	}
	j := farm.Job{Prog: prog, Ways: 6, Backend: backend.Auto}
	res, hit := engine.MemoProbe(&j)
	if !hit {
		t.Fatal("auto probe missed the seeded RE entry")
	}
	if j.Backend != qat.BackendRE || res.Backend != qat.BackendRE {
		t.Fatalf("auto resolved to job=%q result=%q, want re (memoized)", j.Backend, res.Backend)
	}
	if res.Regs != seed[0].Regs || res.Output != seed[0].Output {
		t.Fatal("probe result differs from the seeded run")
	}
}

// TestAutoUnservable asks for a width past every backend: the job must
// fail with backend.UnservableError carrying the profile.
func TestAutoUnservable(t *testing.T) {
	engine := farm.New(0)
	results, _ := engine.Run(nil, []farm.Job{
		{Src: wideEntangleSrc(4), Ways: qat.MaxREWays + 1, Backend: backend.Auto},
	})
	var ue *backend.UnservableError
	if !errors.As(results[0].Err, &ue) {
		t.Fatalf("err=%v, want UnservableError", results[0].Err)
	}
	if ue.Profile == nil || ue.Ways != qat.MaxREWays+1 {
		t.Fatalf("unservable detail: ways=%d profile=%v", ue.Ways, ue.Profile)
	}
}

// TestAutoPipelinedResolvesDense: the pipeline models dense hardware, so
// auto has exactly one answer there and must not be rejected.
func TestAutoPipelinedResolvesDense(t *testing.T) {
	engine := farm.New(0)
	results, _ := engine.Run(nil, []farm.Job{
		{Src: "\tlex $0, 0\n\tsys\n", Mode: farm.Pipelined, Backend: backend.Auto},
	})
	if results[0].Err != nil {
		t.Fatalf("pipelined auto: %v", results[0].Err)
	}
}
