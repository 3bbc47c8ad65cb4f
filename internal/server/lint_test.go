package server

// Strict-lint admission tests: a statically broken program must be refused
// with 422 before it consumes a farm slot, the refusal must be counted, and
// the opt-in lint report must ride the /v1/assemble response.

import (
	"net/http"
	"testing"

	"tangled/internal/lint"
	"tangled/internal/obs"
)

// brokenSrc cannot leave its first block and can never halt: two
// error-severity findings (self-loop, no reachable sys).
const brokenSrc = "loop:\tbr loop\n\tlex $0, 0\n\tsys\n"

// cleanSrc halts after printing; lint-clean at every severity.
const cleanSrc = "\tlex $1, 5\n\tlex $0, 1\n\tsys\n\tlex $0, 0\n\tsys\n"

// sloppySrc has a warning-severity finding (dead store) but no errors, so
// strict mode must still run it.
const sloppySrc = "\tlex $1, 5\n\tlex $1, 7\n\tlex $0, 0\n\tsys\n"

func TestStrictLintRejectsBeforeAdmission(t *testing.T) {
	reg := obs.NewRegistry()
	s, base := startTestServer(t, Config{StrictLint: true, Registry: reg})

	resp := postJSON(t, base+"/v1/run", RunRequest{ID: "bad", Src: brokenSrc})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
	var er ErrorResponse
	decodeInto(t, resp, &er)
	if len(er.Lint) == 0 {
		t.Fatalf("422 body carries no lint findings: %+v", er)
	}
	for _, d := range er.Lint {
		if d.Severity != lint.Error {
			t.Errorf("non-error finding in rejection body: %+v", d)
		}
	}
	// The job must have been refused before admission: nothing queued,
	// nothing executed, and the refusal counted.
	if got := s.jobsDone.Load(); got != 0 {
		t.Errorf("jobsDone = %d after a lint rejection", got)
	}
	if got := s.queue.Load(); got != 0 {
		t.Errorf("queue depth = %d after a lint rejection", got)
	}
	if got := s.obs.lintRejects.Value(); got != 1 {
		t.Errorf("server_lint_rejects_total = %d, want 1", got)
	}
}

func TestStrictLintAllowsCleanAndWarningPrograms(t *testing.T) {
	s, base := startTestServer(t, Config{StrictLint: true})
	for _, src := range []string{cleanSrc, sloppySrc} {
		resp := postJSON(t, base+"/v1/run", RunRequest{Src: src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d for runnable program, want 200", resp.StatusCode)
		}
		var res RunResult
		decodeInto(t, resp, &res)
		if res.Error != "" {
			t.Fatalf("run error: %s", res.Error)
		}
	}
	if got := s.jobsDone.Load(); got == 0 {
		t.Error("no jobs executed")
	}
}

func TestStrictLintRejectsBatchMember(t *testing.T) {
	_, base := startTestServer(t, Config{StrictLint: true})
	resp := postJSON(t, base+"/v1/batch", BatchRequest{Programs: []RunRequest{
		{Src: cleanSrc},
		{Src: brokenSrc},
	}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
	var er ErrorResponse
	decodeInto(t, resp, &er)
	if len(er.Lint) == 0 || er.Error == "" {
		t.Fatalf("batch rejection body: %+v", er)
	}
}

func TestLintOffByDefault(t *testing.T) {
	// Without StrictLint the broken program is admitted and burns its step
	// budget like before — lint is opt-in, not a behavior change.
	_, base := startTestServer(t, Config{})
	resp := postJSON(t, base+"/v1/run", RunRequest{Src: brokenSrc, MaxSteps: 10_000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var res RunResult
	decodeInto(t, resp, &res)
	if res.Error == "" {
		t.Fatal("spin program finished without a budget error")
	}
}

func TestAssembleLintReport(t *testing.T) {
	_, base := startTestServer(t, Config{})

	resp := postJSON(t, base+"/v1/assemble", AssembleRequest{Src: brokenSrc, Lint: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var ar AssembleResponse
	decodeInto(t, resp, &ar)
	if ar.Lint == nil || ar.Lint.Errors == 0 {
		t.Fatalf("lint report missing or empty: %+v", ar.Lint)
	}
	found := false
	for _, d := range ar.Lint.Diags {
		if d.Check == lint.CheckSelfLoop {
			found = true
		}
	}
	if !found {
		t.Errorf("no self-loop finding in %+v", ar.Lint.Diags)
	}

	// Without the opt-in the response shape is unchanged.
	resp = postJSON(t, base+"/v1/assemble", AssembleRequest{Src: brokenSrc})
	var plain AssembleResponse
	decodeInto(t, resp, &plain)
	if plain.Lint != nil {
		t.Errorf("lint report present without opt-in")
	}
}

func TestAssembleErrorsCarryColumns(t *testing.T) {
	_, base := startTestServer(t, Config{})
	resp := postJSON(t, base+"/v1/assemble", AssembleRequest{Src: "\tlex $77, 1\n"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var er ErrorResponse
	decodeInto(t, resp, &er)
	if len(er.Lines) == 0 {
		t.Fatalf("no line diagnostics: %+v", er)
	}
	if er.Lines[0].Line != 1 || er.Lines[0].Col == 0 {
		t.Errorf("diagnostic position = %d:%d, want 1:<nonzero>", er.Lines[0].Line, er.Lines[0].Col)
	}
}
