package backend

// Planner decision tests. The canonical geometry the plans carry is pinned
// in internal/qat (TestCanonicalizeDense/RE/Unknown, TestCanonicalAgreement).
// The farm-level differential proof that an auto plan executes
// byte-identically to its explicit spelling lives in internal/farm
// (TestAutoPlannerDifferential).

import (
	"cmp"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"tangled/internal/aob"
	"tangled/internal/asm"
	"tangled/internal/farm/farmtest"
	"tangled/internal/lint"
	"tangled/internal/profile"
	"tangled/internal/qat"
)

func mustProg(t *testing.T, src string) *asm.Program {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

// wideProg needs more entanglement than dense hardware holds when run at
// ways > 16 (the had channel indexes stay within 4 bits; width forces RE).
const wideProg = `
	had	@1, 0
	cnot	@2, @1
	lex	$0, 0
	sys
`

func TestPlanAutoForcedREOverDenseWidth(t *testing.T) {
	plan, err := PlanAuto(mustProg(t, wideProg), qat.Config{Ways: 20, Backend: Auto}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Config.Backend != qat.BackendRE {
		t.Fatalf("backend=%q, want re (ways 20 exceeds dense)", plan.Config.Backend)
	}
	if plan.Config.Ways != 20 {
		t.Fatalf("planner changed ways: %d", plan.Config.Ways)
	}
	if plan.Config.ChunkWays != aob.MaxWays || plan.Config.SpillRuns != -1 {
		t.Fatalf("planned geometry %+v not the canonical RE default", plan.Config)
	}
	// The profiler itself still profiles at the requested width.
	if p := profileAt(t, mustProg(t, wideProg), 20, false); p.Ways != 20 {
		t.Fatalf("profile at wrong width: %+v", p)
	}
}

// profileAt is the eager profile PlanAuto computes for an unservable width.
func profileAt(t *testing.T, prog *asm.Program, ways int, constRegs bool) *lint.Profile {
	t.Helper()
	_, f := lint.AnalyzeWithFacts(prog, lint.Options{Ways: min(ways, aob.MaxWays)})
	return profile.Compute(f, profile.Options{Ways: ways, ConstantRegs: constRegs})
}

func TestPlanAutoDenseForSmallPrograms(t *testing.T) {
	plan, err := PlanAuto(mustProg(t, wideProg), qat.Config{Ways: 6, Backend: Auto}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Config.Backend != qat.BackendDense {
		t.Fatalf("backend=%q, want dense for a small low-degree program", plan.Config.Backend)
	}
}

func TestPlanAutoUnservable(t *testing.T) {
	_, err := PlanAuto(mustProg(t, wideProg), qat.Config{Ways: qat.MaxREWays + 1, Backend: Auto}, nil)
	var ue *UnservableError
	if !errors.As(err, &ue) {
		t.Fatalf("err=%v, want UnservableError", err)
	}
	if ue.Ways != qat.MaxREWays+1 || ue.Profile == nil {
		t.Fatalf("unservable detail: %+v", ue)
	}
}

func TestPlanAutoMemoProbeWins(t *testing.T) {
	// A memoized RE result overrides the static dense preference.
	var probed []string
	probe := func(c qat.Config) bool {
		probed = append(probed, c.Backend)
		return c.Backend == qat.BackendRE
	}
	plan, err := PlanAuto(mustProg(t, wideProg), qat.Config{Ways: 6, Backend: Auto}, probe)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Config.Backend != qat.BackendRE {
		t.Fatalf("backend=%q, want re (memoized)", plan.Config.Backend)
	}
	if !reflect.DeepEqual(probed, []string{qat.BackendDense, qat.BackendRE}) {
		t.Fatalf("probe order %v, want dense then re", probed)
	}
}

func TestDecidePassThroughNonAuto(t *testing.T) {
	plan, err := Decide(nil, qat.Config{Ways: 12, Backend: qat.BackendRE}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Config.Backend != qat.BackendRE || plan.Config.ChunkWays != 12 {
		t.Fatalf("pass-through=%+v", plan.Config)
	}
}

// TestPlanAutoMatchesEagerDecide is the differential proof that planning
// lazily decides exactly as the eager pipeline — lint, profile, then
// Decide — over the corpus and a wide program, across
// widths on both sides of the dense wall and past every backend, both Qat
// variants, and every memo state.
func TestPlanAutoMatchesEagerDecide(t *testing.T) {
	var progs []*asm.Program
	for i := 0; i < farmtest.Programs; i++ {
		progs = append(progs, mustProg(t, farmtest.Generate(farmtest.Seed(i))))
	}
	progs = append(progs, wideSubsetSum(t))

	probes := []struct {
		name  string
		probe func(qat.Config) bool
	}{
		{"nil", nil},
		{"none", func(qat.Config) bool { return false }},
		{"dense", func(c qat.Config) bool { return c.Backend == qat.BackendDense }},
		{"re", func(c qat.Config) bool { return c.Backend == qat.BackendRE }},
		{"both", func(qat.Config) bool { return true }},
	}
	cases := 0
	for pi, prog := range progs {
		for _, ways := range []int{0, 1, 6, 16, 17, 20, 24, 25} {
			for _, constRegs := range []bool{false, true} {
				cfg := qat.Config{Ways: ways, ConstantRegs: constRegs, Backend: Auto}
				eager := profileAt(t, prog, cmp.Or(ways, aob.MaxWays), constRegs)
				for _, pr := range probes {
					want, wantErr := Decide(eager, cfg, pr.probe)
					probe, calls := pr.probe, map[string]int{}
					if probe != nil {
						probe = func(c qat.Config) bool { calls[c.Backend]++; return pr.probe(c) }
					}
					got, gotErr := PlanAuto(prog, cfg, probe)
					cases++
					if calls[qat.BackendDense] > 1 || calls[qat.BackendRE] > 1 {
						t.Fatalf("program %d ways %d probe %s: probed %v, want each backend at most once",
							pi, ways, pr.name, calls)
					}
					if got.Config != want.Config || errClass(gotErr) != errClass(wantErr) {
						t.Fatalf("program %d ways %d const %v probe %s: lazy %+v (%v), eager %+v (%v)",
							pi, ways, constRegs, pr.name, got.Config, gotErr, want.Config, wantErr)
					}
				}
			}
		}
	}
	t.Logf("%d cases agree", cases)
}

// errClass names an error's kind for comparison: nil, unservable, other.
func errClass(err error) string {
	var ue *UnservableError
	switch {
	case err == nil:
		return "nil"
	case errors.As(err, &ue):
		return fmt.Sprintf("unservable(%d)", ue.Ways)
	}
	return "other"
}
