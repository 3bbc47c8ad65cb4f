package backend

// Registry, canonicalization, and planner decision tests. The farm-level
// differential proof that an auto plan executes byte-identically to its
// explicit spelling lives in internal/farm (TestAutoPlannerDifferential).

import (
	"cmp"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tangled/internal/aob"
	"tangled/internal/asm"
	"tangled/internal/farm/farmtest"
	"tangled/internal/lint"
	"tangled/internal/profile"
	"tangled/internal/qat"
)

func TestRegistryNames(t *testing.T) {
	want := []string{qat.BackendDense, qat.BackendRE}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names()=%v, want %v", got, want)
	}
	for _, n := range append([]string{""}, want...) {
		if _, ok := Lookup(n); !ok {
			t.Fatalf("Lookup(%q) failed", n)
		}
	}
	if _, ok := Lookup(Auto); ok {
		t.Fatal("Lookup(auto) resolved: the pseudo-backend must not be registered")
	}
	if _, ok := Lookup("fpga"); ok {
		t.Fatal("Lookup of unknown name resolved")
	}
}

func TestCanonicalizeDense(t *testing.T) {
	c, err := Canonicalize(qat.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := qat.Config{Ways: aob.MaxWays, Backend: qat.BackendDense}
	if c != want {
		t.Fatalf("canonical dense=%+v, want %+v", c, want)
	}
	// RE knobs on a dense config are erased, not rejected: pool/memo keys
	// must not vary on them.
	c, err = Canonicalize(qat.Config{Ways: 4, ChunkWays: 3, SpillRuns: 9, Backend: qat.BackendDense})
	if err != nil || c.ChunkWays != 0 || c.SpillRuns != 0 {
		t.Fatalf("dense knob erasure: %+v err=%v", c, err)
	}
	if _, err := Canonicalize(qat.Config{Ways: aob.MaxWays + 1, Backend: qat.BackendDense}); err == nil {
		t.Fatal("dense over-width accepted")
	}
}

func TestCanonicalizeRE(t *testing.T) {
	c, err := Canonicalize(qat.Config{Ways: 20, Backend: qat.BackendRE})
	if err != nil {
		t.Fatal(err)
	}
	want := qat.Config{Ways: 20, Backend: qat.BackendRE, ChunkWays: aob.MaxWays, SpillRuns: -1}
	if c != want {
		t.Fatalf("canonical re=%+v, want %+v", c, want)
	}
	c, err = Canonicalize(qat.Config{Ways: 8, Backend: qat.BackendRE})
	if err != nil || c.ChunkWays != 8 || c.SpillRuns != qat.DefaultSpillRuns {
		t.Fatalf("re defaults: %+v err=%v", c, err)
	}
	if _, err := Canonicalize(qat.Config{Ways: qat.MaxREWays + 1, Backend: qat.BackendRE}); err == nil {
		t.Fatal("re over-width accepted")
	}
	if _, err := Canonicalize(qat.Config{Ways: 8, ChunkWays: 9, Backend: qat.BackendRE}); err == nil {
		t.Fatal("chunk ways above total accepted")
	}
}

func TestCanonicalizeUnknown(t *testing.T) {
	_, err := Canonicalize(qat.Config{Backend: "fpga"})
	if err == nil || !strings.Contains(err.Error(), "fpga") {
		t.Fatalf("unknown backend error=%v", err)
	}
}

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
	// The width alone decides, so the planner skips lint and profile.
	if plan.Profile != nil {
		t.Fatalf("width-forced plan computed a profile: %+v", plan.Profile)
	}
	// The profiler itself still profiles at the requested width.
	if p := profileAt(t, mustProg(t, wideProg), 20, false); p.Ways != 20 {
		t.Fatalf("profile at wrong width: %+v", p)
	}
}

// profileAt is the eager profile PlanAuto computes when a rule needs one.
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

func TestPlanAutoCompressibilityRoute(t *testing.T) {
	// >= 16 Qat writes, all structured (inits and folds over known states):
	// compressibility 1.0 routes to RE even at a dense-servable width.
	plan, err := PlanAuto(mustProg(t, zeroProg()), qat.Config{Ways: 8, Backend: Auto}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Profile.Compressibility < CompressibilityFloor || plan.Profile.QatWrites < MinWritesForRE {
		t.Fatalf("test program does not trip the route: %+v", plan.Profile)
	}
	if plan.Config.Backend != qat.BackendRE {
		t.Fatalf("backend=%q, want re on compressibility", plan.Config.Backend)
	}
}

// zeroProg makes 17 structured Qat writes (inits and folds over known
// states): compressible enough for rule 4 to pick RE.
func zeroProg() string {
	var b strings.Builder
	for i := 1; i <= 17; i++ {
		b.WriteString("\tzero\t@")
		b.WriteString(string(rune('0' + i%10)))
		b.WriteString("\n")
	}
	b.WriteString("\tlex\t$0, 0\n\tsys\n")
	return b.String()
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
// Decide — over the corpus, a wide program and a compressible one, across
// widths on both sides of the dense wall and past every backend, both Qat
// variants, and every memo state.
func TestPlanAutoMatchesEagerDecide(t *testing.T) {
	var progs []*asm.Program
	for i := 0; i < farmtest.Programs; i++ {
		progs = append(progs, mustProg(t, farmtest.Generate(farmtest.Seed(i))))
	}
	progs = append(progs, wideSubsetSum(t), mustProg(t, zeroProg()))

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
	cases, rule4RE := 0, 0
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
					if got.Profile != nil && ways <= aob.MaxWays && got.Config.Backend == qat.BackendRE {
						rule4RE++
					}
				}
			}
		}
	}
	if rule4RE == 0 {
		t.Fatal("rule 4 never picked RE: the compressibility route is untested")
	}
	t.Logf("%d cases agree; rule 4 picked RE in %d", cases, rule4RE)
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
