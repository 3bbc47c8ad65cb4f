package server

// Tests of the async job subsystem's HTTP face: submission/status/cancel
// wire semantics, the NDJSON lifecycle stream with since-replay, the
// durable store across server instances, and the async differential proof —
// a job's result must be byte-identical to a synchronous /v1/run of the
// same program, with the memo on and off, over a corpus subset. The SIGKILL crash-resume path is exercised end-to-end against
// real processes in the repository root's tools_test.go.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"tangled/internal/asm"
	"tangled/internal/farm/farmtest"
	"tangled/internal/jobs"
	"tangled/internal/qasm"
)

// jsonBody marshals v into a reader for httptest requests.
func jsonBody(t *testing.T, v interface{}) *bytes.Reader {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// getJSON GETs url and decodes the body into v, returning the status code.
func getJSON(t *testing.T, url string, v interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// waitJobHTTP polls the status endpoint until the job is terminal.
func waitJobHTTP(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		if code := getJSON(t, base+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("status poll for %s: HTTP %d", id, code)
		}
		if jobs.State(st.State).Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}

func TestJobSubmitAndCompleteOverHTTP(t *testing.T) {
	_, base := startTestServer(t, Config{JobsDir: t.TempDir()})
	src := farmtest.Generate(farmtest.Seed(3))
	want, err := qasm.RunFunctional(src, farmtest.Ways)
	if err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, base+"/v1/jobs", JobRequest{
		RunRequest: RunRequest{ID: "j1", Src: src, Ways: farmtest.Ways},
		Tenant:     "acme",
		Priority:   3,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "j1" {
		t.Fatalf("X-Request-ID %q", got)
	}
	var st JobStatus
	decodeInto(t, resp, &st)
	if st.ID != "j1" || st.Tenant != "acme" || st.Priority != 3 {
		t.Fatalf("accepted record %+v", st)
	}

	fin := waitJobHTTP(t, base, "j1")
	if fin.State != string(jobs.StateCompleted) {
		t.Fatalf("job ended %s (%s)", fin.State, fin.Reason)
	}
	if fin.Result == nil {
		t.Fatal("completed job has no result")
	}
	if fin.Result.Regs != want.Regs || fin.Result.Output != want.Output || fin.Result.Insts != want.Insts {
		t.Fatalf("async result diverged from direct: %+v vs regs=%v output=%q insts=%d",
			fin.Result, want.Regs, want.Output, want.Insts)
	}
	if fin.Started == nil || fin.Finished == nil {
		t.Fatalf("terminal job missing timestamps: %+v", fin)
	}
}

func TestJobSubmitIdempotent(t *testing.T) {
	_, base := startTestServer(t, Config{JobsDir: t.TempDir()})
	src := farmtest.Generate(farmtest.Seed(4))
	req := JobRequest{RunRequest: RunRequest{ID: "dup", Src: src, Ways: farmtest.Ways}}
	if resp := postJSON(t, base+"/v1/jobs", req); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	waitJobHTTP(t, base, "dup")
	// Resubmitting the same ID returns the existing (already terminal)
	// record with 200, not a new execution.
	resp := postJSON(t, base+"/v1/jobs", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit status %d, want 200", resp.StatusCode)
	}
	var st JobStatus
	decodeInto(t, resp, &st)
	if st.State != string(jobs.StateCompleted) {
		t.Fatalf("resubmit returned state %s", st.State)
	}
}

func TestJobValidationAndRouting(t *testing.T) {
	_, base := startTestServer(t, Config{JobsDir: t.TempDir()})

	// A malformed program is refused at submission, not turned into a job.
	resp := postJSON(t, base+"/v1/jobs", JobRequest{RunRequest: RunRequest{ID: "bad", Src: "not an opcode\n"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad program: %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	if code := getJSON(t, base+"/v1/jobs/bad", nil); code != http.StatusNotFound {
		t.Fatalf("refused submission created a job: %d", code)
	}
	if code := getJSON(t, base+"/v1/jobs/ghost", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", code)
	}
	// Unknown method on the ID route.
	req, _ := http.NewRequest(http.MethodPut, base+"/v1/jobs/ghost", nil)
	pr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT on job: %d, want 405", pr.StatusCode)
	}
}

func TestJobEndpointsAbsentWithoutSubsystem(t *testing.T) {
	_, base := startTestServer(t, Config{})
	resp := postJSON(t, base+"/v1/jobs", JobRequest{RunRequest: RunRequest{Src: spinSrc}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("jobs route on a sync-only server: %d, want 404", resp.StatusCode)
	}
}

func TestJobCancelQueuedAndQueueFull(t *testing.T) {
	// One job worker, queue bound 2: a long-running job occupies the worker,
	// a queued victim can be canceled, and a third submission is refused.
	_, base := startTestServer(t, Config{JobsDir: t.TempDir(), JobWorkers: 1, JobQueueLimit: 2})
	spin := RunRequest{Src: spinSrc, TimeoutMs: 30_000}

	spin.ID = "holder"
	postJSON(t, base+"/v1/jobs", JobRequest{RunRequest: spin}).Body.Close()
	spin.ID = "victim"
	postJSON(t, base+"/v1/jobs", JobRequest{RunRequest: spin}).Body.Close()

	spin.ID = "overflow"
	resp := postJSON(t, base+"/v1/jobs", JobRequest{RunRequest: spin})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	resp.Body.Close()

	// Cancel the queued victim: immediate terminal state.
	dreq, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/victim", nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	decodeInto(t, dresp, &st)
	if st.State != string(jobs.StateCanceled) {
		t.Fatalf("canceled queued job state %s", st.State)
	}

	// Cancel the running holder: ctx cancel, terminal once exec unwinds.
	dreq, _ = http.NewRequest(http.MethodDelete, base+"/v1/jobs/holder", nil)
	dresp, err = http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	fin := waitJobHTTP(t, base, "holder")
	if fin.State != string(jobs.StateCanceled) {
		t.Fatalf("canceled running job ended %s (%s)", fin.State, fin.Reason)
	}
}

func TestJobSubmitWhileDrainingIs503(t *testing.T) {
	s, err := New(Config{JobsDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs",
		jsonBody(t, JobRequest{RunRequest: RunRequest{Src: spinSrc}}))
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", rec.Code)
	}

	// Healthz reports the drain state and the (empty) job queue.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d", rec.Code)
	}
	var h Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if !h.Draining || h.Status != "draining" {
		t.Fatalf("healthz body %+v", h)
	}
}

func TestHealthzReportsJobDepths(t *testing.T) {
	s, base := startTestServer(t, Config{JobsDir: t.TempDir(), JobWorkers: 1})
	spin := RunRequest{Src: spinSrc, TimeoutMs: 30_000}
	spin.ID = "h1"
	postJSON(t, base+"/v1/jobs", JobRequest{RunRequest: spin}).Body.Close()
	spin.ID = "h2"
	postJSON(t, base+"/v1/jobs", JobRequest{RunRequest: spin}).Body.Close()

	// One running, one queued — poll briefly (dispatch is asynchronous).
	deadline := time.Now().Add(5 * time.Second)
	for {
		var h Health
		getJSON(t, base+"/v1/healthz", &h)
		if h.JobsRunning == 1 && h.JobsQueued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never showed 1 running + 1 queued: %+v", h)
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.Close()
}

// TestJobRunsWithAdmissionFull: an async job takes no synchronous
// admission slot, so it completes while every slot is taken, and neither
// healthz queue_depth nor jobs_done counts it.
func TestJobRunsWithAdmissionFull(t *testing.T) {
	s, base := startTestServer(t, Config{JobsDir: t.TempDir(), QueueLimit: 4})
	s.queue.Store(int64(s.cfg.QueueLimit))
	defer s.queue.Store(0)

	src := farmtest.Generate(farmtest.Seed(5))
	want, err := qasm.RunFunctional(src, farmtest.Ways)
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, base+"/v1/jobs", JobRequest{RunRequest: RunRequest{ID: "full", Src: src, Ways: farmtest.Ways}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit with a full admission queue: %d, want 202", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	var st JobStatus
	for getJSON(t, base+"/v1/jobs/full", &st); !jobs.State(st.State).Terminal(); getJSON(t, base+"/v1/jobs/full", &st) {
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after 5 s with every admission slot taken", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.State != string(jobs.StateCompleted) || st.Result == nil {
		t.Fatalf("job ended %s: %s", st.State, st.Reason)
	}
	if st.Result.Regs != want.Regs || st.Result.Output != want.Output || st.Result.Insts != want.Insts {
		t.Fatalf("job result %+v, direct regs=%v output=%q insts=%d", st.Result, want.Regs, want.Output, want.Insts)
	}
	var h Health
	getJSON(t, base+"/v1/healthz", &h)
	if h.QueueDepth != int64(s.cfg.QueueLimit) || h.JobsDone != 0 {
		t.Fatalf("healthz queue_depth=%d jobs_done=%d, want %d and 0: the job touched the sync counters",
			h.QueueDepth, h.JobsDone, s.cfg.QueueLimit)
	}
}

func TestBuildinfoCapabilities(t *testing.T) {
	_, base := startTestServer(t, Config{JobsDir: t.TempDir()})
	var bi BuildInfo
	getJSON(t, base+"/v1/buildinfo", &bi)
	caps := map[string]bool{}
	for _, c := range bi.Capabilities {
		caps[c] = true
	}
	for _, want := range []string{"jobs", "events", "memo", "backend:re"} {
		if !caps[want] {
			t.Fatalf("capabilities %v missing %q", bi.Capabilities, want)
		}
	}
	// The optimizer is an offline tool (qatlint -optimize): no server
	// advertises it.
	for _, gone := range []string{"opt", "opt-admission"} {
		if caps[gone] {
			t.Fatalf("capabilities %v advertise retired %q", bi.Capabilities, gone)
		}
	}
	if bi.EventsSchema != jobs.EventsSchema || bi.EventsVer != jobs.EventsSchemaVersion {
		t.Fatalf("events schema %s/%d", bi.EventsSchema, bi.EventsVer)
	}

	_, syncBase := startTestServer(t, Config{})
	var syncBi BuildInfo
	getJSON(t, syncBase+"/v1/buildinfo", &syncBi)
	for _, c := range syncBi.Capabilities {
		if c == "jobs" || c == "events" {
			t.Fatalf("sync-only server advertises %q", c)
		}
	}
}

func TestEventsStreamOverHTTP(t *testing.T) {
	_, base := startTestServer(t, Config{JobsDir: t.TempDir()})
	src := farmtest.Generate(farmtest.Seed(5))

	// Open the stream first, then submit: the live channel must carry the
	// full lifecycle in order after the versioned header.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no header line")
	}
	var hdr EventsHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Schema != jobs.EventsSchema || hdr.Version != jobs.EventsSchemaVersion {
		t.Fatalf("stream header %+v", hdr)
	}

	postJSON(t, base+"/v1/jobs", JobRequest{RunRequest: RunRequest{ID: "ev", Src: src, Ways: farmtest.Ways}}).Body.Close()
	want := []string{jobs.EventSubmitted, jobs.EventStarted, jobs.EventCompleted}
	var got []jobs.Event
	for len(got) < len(want) && sc.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		got = append(got, ev)
	}
	for i, ev := range got {
		if ev.Type != want[i] || ev.Job != "ev" {
			t.Fatalf("event %d = %+v, want type %s for job ev", i, ev, want[i])
		}
		if i > 0 && ev.Seq <= got[i-1].Seq {
			t.Fatalf("event seq not increasing: %d then %d", got[i-1].Seq, ev.Seq)
		}
	}
}

func TestEventsSinceReplayOverHTTP(t *testing.T) {
	_, base := startTestServer(t, Config{JobsDir: t.TempDir()})
	src := farmtest.Generate(farmtest.Seed(6))
	postJSON(t, base+"/v1/jobs", JobRequest{RunRequest: RunRequest{ID: "rp", Src: src, Ways: farmtest.Ways}}).Body.Close()
	waitJobHTTP(t, base, "rp")

	// follow=false: the replay is returned whole and the stream ends.
	readEvents := func(url string) []jobs.Event {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		if !sc.Scan() {
			t.Fatal("no header")
		}
		var evs []jobs.Event
		for sc.Scan() {
			var ev jobs.Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatal(err)
			}
			evs = append(evs, ev)
		}
		return evs
	}
	all := readEvents(base + "/v1/events?follow=false")
	if len(all) != 3 {
		t.Fatalf("replayed %d events, want 3: %+v", len(all), all)
	}
	// Resume past the first event: only the later two come back.
	rest := readEvents(fmt.Sprintf("%s/v1/events?follow=false&since=%d", base, all[0].Seq))
	if len(rest) != 2 || rest[0].Seq != all[1].Seq {
		t.Fatalf("since-replay returned %+v", rest)
	}
	// Bad query parameters are 400s.
	if code := getJSON(t, base+"/v1/events?since=nope", nil); code != http.StatusBadRequest {
		t.Fatalf("bad since: %d", code)
	}
	if code := getJSON(t, base+"/v1/events?follow=maybe", nil); code != http.StatusBadRequest {
		t.Fatalf("bad follow: %d", code)
	}
}

func TestJobStorePersistsAcrossServers(t *testing.T) {
	dir := t.TempDir()
	s1, base1 := startTestServer(t, Config{JobsDir: dir})
	src := farmtest.Generate(farmtest.Seed(7))
	postJSON(t, base1+"/v1/jobs", JobRequest{RunRequest: RunRequest{ID: "persist", Src: src, Ways: farmtest.Ways}}).Body.Close()
	first := waitJobHTTP(t, base1, "persist")
	if first.State != string(jobs.StateCompleted) {
		t.Fatalf("job ended %s", first.State)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	_, base2 := startTestServer(t, Config{JobsDir: dir})
	var again JobStatus
	if code := getJSON(t, base2+"/v1/jobs/persist", &again); code != http.StatusOK {
		t.Fatalf("restarted server: HTTP %d", code)
	}
	if again.State != string(jobs.StateCompleted) || again.Result == nil {
		t.Fatalf("restored job %+v", again)
	}
	if again.Result.Regs != first.Result.Regs || again.Result.Output != first.Result.Output ||
		again.Result.Insts != first.Result.Insts {
		t.Fatalf("result changed across restart: %+v vs %+v", again.Result, first.Result)
	}
}

// TestDifferentialAsyncVsSync is the async acceptance proof: over a corpus
// subset plus sloppySrc (a dead store), a job's result — executed on the
// farm through its memo cache — must be byte-identical to
// the direct in-process execution of the same program and to a synchronous
// /v1/run of it, with the memo on (the sync run is then a hit on the entry
// the job stored) and off (both execute).
func TestDifferentialAsyncVsSync(t *testing.T) {
	const n = 32
	srcs := make([]string, n, n+1)
	for i := range srcs {
		srcs[i] = farmtest.Generate(farmtest.Seed(i))
	}
	srcs = append(srcs, sloppySrc)
	direct := runDirect(t, srcs)
	for _, tc := range []struct {
		name    string
		memoCap int
	}{{"memo-on", 0}, {"memo-off", -1}} {
		t.Run(tc.name, func(t *testing.T) {
			_, base := startTestServer(t, Config{JobsDir: t.TempDir(), MemoCap: tc.memoCap})
			for i, src := range srcs {
				id := fmt.Sprintf("diff-%d", i)
				resp := postJSON(t, base+"/v1/jobs", JobRequest{RunRequest: RunRequest{ID: id, Src: src, Ways: farmtest.Ways}})
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("submit %d: %d", i, resp.StatusCode)
				}
				resp.Body.Close()
			}
			for i := range srcs {
				id := fmt.Sprintf("diff-%d", i)
				fin := waitJobHTTP(t, base, id)
				if fin.State != string(jobs.StateCompleted) {
					t.Fatalf("job %d ended %s: %s", i, fin.State, fin.Reason)
				}
				d := direct[i]
				if fin.Result.Regs != d.Regs || fin.Result.Output != d.Output || fin.Result.Insts != d.Insts {
					t.Fatalf("program %d diverged async vs direct:\nasync:  regs=%v output=%q insts=%d\ndirect: regs=%v output=%q insts=%d\n%s",
						i, fin.Result.Regs, fin.Result.Output, fin.Result.Insts, d.Regs, d.Output, d.Insts, srcs[i])
				}
				// The acceptance criterion proper: a synchronous /v1/run of
				// the same program returns the byte-identical document.
				var sync RunResult
				decodeInto(t, postJSON(t, base+"/v1/run", RunRequest{ID: id + "-sync", Src: srcs[i], Ways: farmtest.Ways}), &sync)
				if sync.Regs != fin.Result.Regs || sync.Output != fin.Result.Output || sync.Insts != fin.Result.Insts {
					t.Fatalf("program %d: sync run diverged from its async job: %+v vs %+v", i, sync, fin.Result)
				}
				if want := tc.memoCap >= 0; sync.Cached != want {
					t.Fatalf("program %d: sync run cached=%v, want %v", i, sync.Cached, want)
				}
			}
		})
	}
}

// TestLegacyGeometryJobStillRuns: a job queued while the wire still carried
// the RE geometry fields has them in its WAL spec. The spec decodes
// leniently, so a restarted server drops them and runs the job at the
// default geometry; its result equals a synchronous /v1/run of the same
// program (RE results do not depend on geometry).
func TestLegacyGeometryJobStillRuns(t *testing.T) {
	prog, err := asm.Assemble(farmtest.Generate(farmtest.Seed(3)))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(map[string]any{"run": map[string]any{
		"id": "legacy", "words": prog.Words, "ways": farmtest.Ways, "backend": "re",
		"chunk_ways": farmtest.Ways / 2, "spill_runs": 1, "max_steps": qasm.MaxSteps}})
	if err != nil {
		t.Fatal(err)
	}
	var wal bytes.Buffer
	enc := json.NewEncoder(&wal)
	for _, line := range []any{
		map[string]any{"schema": jobs.WALSchema, "version": jobs.WALVersion},
		map[string]any{"op": "job", "job": jobs.Job{ID: "legacy", Tenant: "default", Spec: spec,
			State: jobs.StateQueued, Submitted: time.Now(), Seq: 1}},
	} {
		if err := enc.Encode(line); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "jobs.wal"), wal.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	_, base := startTestServer(t, Config{JobsDir: dir, MemoCap: -1})
	fin := waitJobHTTP(t, base, "legacy")
	if fin.State != string(jobs.StateCompleted) || fin.Result == nil {
		t.Fatalf("legacy job ended %s: %s", fin.State, fin.Reason)
	}
	var sync RunResult
	decodeInto(t, postJSON(t, base+"/v1/run", RunRequest{ID: "legacy", Words: prog.Words,
		Ways: farmtest.Ways, Backend: "re"}), &sync)
	if !reflect.DeepEqual(*fin.Result, sync) {
		t.Fatalf("legacy job result %+v, sync run %+v", *fin.Result, sync)
	}
}
