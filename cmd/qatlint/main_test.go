package main

// Regression tests for the CLI contract, above all the -severity/-optimize
// interaction: error-level findings must suppress rewriting and fail the
// run with exit status 2, refusals must report their reason and change
// nothing, and accepted rewrites must round-trip through the emitted JSON.

import (
	"encoding/json"
	"strings"
	"testing"
)

type jsonOut struct {
	Severity string `json:"severity_gate"`
	Files    []struct {
		File           string   `json:"file"`
		AsmErrors      []string `json:"asm_errors"`
		OptimizedWords []uint16 `json:"optimized_words"`
		OptimizedAsm   []string `json:"optimized_asm"`
		Opt            *struct {
			Applied    bool   `json:"applied"`
			Reason     string `json:"reason"`
			WordsAfter int    `json:"words_after"`
		} `json:"opt"`
	} `json:"files"`
}

func runCLI(t *testing.T, args []string, stdin string) (int, string, string) {
	t.Helper()
	var out, errb strings.Builder
	code := run(args, strings.NewReader(stdin), &out, &errb)
	return code, out.String(), errb.String()
}

const cleanSrc = "\tlex\t$1, 2\n\tlex\t$2, 3\n\tadd\t$1, $2\n\tlex\t$0, 1\n\tsys\n\tlex\t$0, 0\n\tsys\n"
const brokenSrc = "\tlex\t$1, 5\n" // falls off the end: error-level no-halt

func TestOptimizeCleanProgram(t *testing.T) {
	code, out, _ := runCLI(t, []string{"-optimize"}, cleanSrc)
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "optimize: applied") {
		t.Fatalf("no applied summary:\n%s", out)
	}
	if !strings.Contains(out, "| ") {
		t.Fatalf("no rewritten listing:\n%s", out)
	}
}

func TestOptimizeErrorFindingsExit2(t *testing.T) {
	code, out, _ := runCLI(t, []string{"-optimize"}, brokenSrc)
	if code != 2 {
		t.Fatalf("exit %d, want 2 (error findings suppress rewriting)\n%s", code, out)
	}
	if !strings.Contains(out, "error-level findings suppress rewriting") {
		t.Fatalf("no suppression notice:\n%s", out)
	}
	if strings.Contains(out, "optimize: applied") {
		t.Fatalf("broken program was rewritten:\n%s", out)
	}
}

func TestWithoutOptimizeErrorFindingsExit1(t *testing.T) {
	// The same broken program without -optimize keeps the historic exit 1.
	code, _, _ := runCLI(t, nil, brokenSrc)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

func TestOptimizeRefusalIsNoOp(t *testing.T) {
	// A resolved jump is lint-clean but not rewritable: the CLI must report
	// the refusal, emit no rewritten program, and exit 0.
	src := "\tjump\tskip\n\tlex\t$4, 1\nskip:\tlex\t$0, 0\n\tsys\n"
	code, out, _ := runCLI(t, []string{"-optimize", "-severity", "error"}, src)
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "optimize: refused") {
		t.Fatalf("no refusal notice:\n%s", out)
	}
	if strings.Contains(out, "| ") {
		t.Fatalf("refused program has a rewritten listing:\n%s", out)
	}
}

func TestOptimizeJSON(t *testing.T) {
	code, out, _ := runCLI(t, []string{"-optimize", "-json"}, cleanSrc)
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	var rep jsonOut
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if len(rep.Files) != 1 || rep.Files[0].Opt == nil {
		t.Fatalf("missing opt report: %+v", rep)
	}
	f := rep.Files[0]
	if !f.Opt.Applied {
		t.Fatalf("not applied: %+v", f.Opt)
	}
	if len(f.OptimizedWords) != f.Opt.WordsAfter || len(f.OptimizedAsm) == 0 {
		t.Fatalf("optimized artifacts inconsistent: %d words vs %d reported, %d asm lines",
			len(f.OptimizedWords), f.Opt.WordsAfter, len(f.OptimizedAsm))
	}
}

func TestOptimizeJSONBrokenExit2(t *testing.T) {
	code, out, _ := runCLI(t, []string{"-optimize", "-json"}, brokenSrc)
	if code != 2 {
		t.Fatalf("exit %d, want 2\n%s", code, out)
	}
	var rep jsonOut
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(rep.Files) != 1 || rep.Files[0].Opt != nil || len(rep.Files[0].OptimizedWords) != 0 {
		t.Fatalf("broken program carries optimizer output: %+v", rep.Files[0])
	}
}

func TestFarmtestCorpusStillLints(t *testing.T) {
	code, out, _ := runCLI(t, []string{"-farmtest", "5", "-optimize"}, "")
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
}

func TestBadSeverityExit2(t *testing.T) {
	code, _, errb := runCLI(t, []string{"-severity", "nonsense"}, cleanSrc)
	if code != 2 {
		t.Fatalf("exit %d, want 2 (%s)", code, errb)
	}
}

const profileSrc = "\thad @1, 0\n\thad @2, 1\n\tcnot @1, @2\n\tmeas $3, @1\n\tlex $0, 0\n\tsys\n"

func TestProfileText(t *testing.T) {
	code, out, _ := runCLI(t, []string{"-profile", "-ways", "6", "-severity", "error"}, profileSrc)
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	for _, want := range []string{
		"profile: ways 6, degree bound 2, required ways 2 (precise)",
		"entangled channels [0 1]",
		"profile: plan: dense",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "compressibility") || strings.Contains(out, "structured") {
		t.Errorf("retired compressibility estimate printed:\n%s", out)
	}
}

func TestProfileJSON(t *testing.T) {
	code, out, _ := runCLI(t, []string{"-profile", "-json", "-ways", "20", "-severity", "error"}, profileSrc)
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	var parsed struct {
		Files []struct {
			Plan    string `json:"plan"`
			Profile *struct {
				Ways        int `json:"ways"`
				DegreeBound int `json:"degree_bound"`
			} `json:"profile"`
		} `json:"files"`
	}
	if err := json.Unmarshal([]byte(out), &parsed); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	f := parsed.Files[0]
	if f.Profile == nil || f.Profile.Ways != 20 || f.Profile.DegreeBound != 2 {
		t.Fatalf("profile = %+v", f.Profile)
	}
	// Ways 20 exceeds dense hardware: the planner must pick RE.
	if f.Plan != "re" {
		t.Fatalf("plan = %q, want re", f.Plan)
	}
}

func TestProfileFarmtestCorpus(t *testing.T) {
	code, out, _ := runCLI(t, []string{"-profile", "-farmtest", "25", "-severity", "error"}, "")
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "profile: plan:") {
		t.Fatalf("no planner decisions in corpus sweep:\n%s", out)
	}
}
