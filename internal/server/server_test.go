package server

// Endpoint tests for the serving layer. Every test that needs a real
// listener goes through startTestServer → StartLocal, which binds
// 127.0.0.1:0 — the one pattern this repository allows for server-shaped
// tests, so parallel packages never collide on a port. Handler-level tests
// (no network) drive the mux directly with httptest.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tangled/internal/farm/farmtest"
	"tangled/internal/obs"
	"tangled/internal/qasm"
)

// spinSrc never halts on its own; paired with TimeoutMs or a cancelled
// context it exercises the deadline/disconnect paths.
const spinSrc = "lex $1,1\nL:\nbrt $1,L\n"

// startTestServer is the shared listener helper: a server on 127.0.0.1:0,
// shut down with the test. Tests that need special admission/batching
// behavior pass a non-zero Config.
func startTestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.StartLocal()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, base
}

func postJSON(t *testing.T, url string, body interface{}) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeInto(t *testing.T, resp *http.Response, v interface{}) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
}

func TestRunFunctionalMatchesDirect(t *testing.T) {
	_, base := startTestServer(t, Config{})
	src := farmtest.Generate(farmtest.Seed(0))
	want, err := qasm.RunFunctional(src, farmtest.Ways)
	if err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, base+"/v1/run", RunRequest{ID: "r0", Src: src, Ways: farmtest.Ways})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "r0" {
		t.Fatalf("X-Request-ID %q, want r0", got)
	}
	var res RunResult
	decodeInto(t, resp, &res)
	if res.Error != "" {
		t.Fatalf("unexpected error: %s", res.Error)
	}
	if res.Regs != want.Regs || res.Output != want.Output || res.Insts != want.Insts {
		t.Fatalf("HTTP result diverged from direct: %+v vs regs=%v output=%q insts=%d",
			res, want.Regs, want.Output, want.Insts)
	}
}

func TestRunPipelinedReportsCycles(t *testing.T) {
	_, base := startTestServer(t, Config{})
	resp := postJSON(t, base+"/v1/run", RunRequest{
		Src: farmtest.Generate(farmtest.Seed(1)), Mode: "pipelined", Stages: 4, Ways: farmtest.Ways,
	})
	var res RunResult
	decodeInto(t, resp, &res)
	if res.Error != "" || res.Cycles == 0 {
		t.Fatalf("pipelined run: error=%q cycles=%d", res.Error, res.Cycles)
	}
}

func TestRunWordsEqualsSrc(t *testing.T) {
	_, base := startTestServer(t, Config{})
	src := farmtest.Generate(farmtest.Seed(2))

	var asmRes AssembleResponse
	decodeInto(t, postJSON(t, base+"/v1/assemble", AssembleRequest{Src: src}), &asmRes)
	if len(asmRes.Words) == 0 {
		t.Fatal("assemble returned no words")
	}

	var bySrc, byWords RunResult
	decodeInto(t, postJSON(t, base+"/v1/run", RunRequest{Src: src, Ways: farmtest.Ways}), &bySrc)
	decodeInto(t, postJSON(t, base+"/v1/run", RunRequest{Words: asmRes.Words, Ways: farmtest.Ways}), &byWords)
	if bySrc.Regs != byWords.Regs || bySrc.Output != byWords.Output || bySrc.Insts != byWords.Insts {
		t.Fatalf("word-image submission diverged from source submission:\n%+v\n%+v", bySrc, byWords)
	}
}

func TestAssemblyError400WithLineInfo(t *testing.T) {
	_, base := startTestServer(t, Config{})
	for _, route := range []string{"/v1/run", "/v1/assemble"} {
		var body interface{} = RunRequest{Src: "lex $1,7\nbogus $2\n"}
		if route == "/v1/assemble" {
			body = AssembleRequest{Src: "lex $1,7\nbogus $2\n"}
		}
		resp := postJSON(t, base+route, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", route, resp.StatusCode)
		}
		var er ErrorResponse
		decodeInto(t, resp, &er)
		if len(er.Lines) == 0 || er.Lines[0].Line != 2 {
			t.Fatalf("%s: diagnostics %+v, want line 2", route, er.Lines)
		}
	}
}

// TestOversizedImage400: a short source whose image would outgrow memory
// is refused by the assembler with a diagnostic, before any image is built.
func TestOversizedImage400(t *testing.T) {
	_, base := startTestServer(t, Config{})
	resp := postJSON(t, base+"/v1/run", RunRequest{Src: strings.Repeat(".space 65535\n", 40) + "sys\n"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var er ErrorResponse
	decodeInto(t, resp, &er)
	if len(er.Lines) != 1 || er.Lines[0].Line != 2 || !strings.Contains(er.Lines[0].Msg, "65536-word memory") {
		t.Fatalf("diagnostics %+v, want one at line 2 naming the memory size", er.Lines)
	}
}

func TestValidation400(t *testing.T) {
	_, base := startTestServer(t, Config{})
	bad := []RunRequest{
		{},                                      // neither src nor words
		{Src: "lex $1,1\n", Words: []uint16{1}}, // both
		{Src: "lex $1,1\n", Mode: "quantum"},    // unknown mode
		{Src: "lex $1,1\n", Stages: 4},          // stages without pipelined
		{Src: "lex $1,1\n", Ways: 99},           // ways out of range
	}
	for i, req := range bad {
		resp := postJSON(t, base+"/v1/run", req)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad request %d: status %d, want 400", i, resp.StatusCode)
		}
	}
}

func TestBatchStreamsNDJSONInOrder(t *testing.T) {
	_, base := startTestServer(t, Config{BatchMax: 4}) // force chunking
	const n = 10
	req := BatchRequest{ID: "b1", Programs: make([]RunRequest, n)}
	for i := range req.Programs {
		req.Programs[i] = RunRequest{Src: farmtest.Generate(farmtest.Seed(i)), Ways: farmtest.Ways}
	}
	resp := postJSON(t, base+"/v1/batch", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 8<<20)
	if !sc.Scan() {
		t.Fatal("no header line")
	}
	var hdr ResultsHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Schema != ResultsSchema || hdr.Version != ResultsSchemaVersion || hdr.Count != n {
		t.Fatalf("header %+v", hdr)
	}
	for i := 0; i < n; i++ {
		if !sc.Scan() {
			t.Fatalf("stream ended at result %d", i)
		}
		var r RunResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		if r.Index != i || r.ID != fmt.Sprintf("b1/%d", i) {
			t.Fatalf("result %d out of order: index=%d id=%q", i, r.Index, r.ID)
		}
		if r.Error != "" {
			t.Fatalf("result %d failed: %s", i, r.Error)
		}
	}
	if sc.Scan() {
		t.Fatalf("trailing data after %d results: %s", n, sc.Text())
	}
}

// TestIdempotentReplay: a retry carries the same ID and program, and the
// content-addressed memo answers it without executing anything new.
func TestIdempotentReplay(t *testing.T) {
	reg := obs.NewRegistry()
	_, base := startTestServer(t, Config{Registry: reg})
	req := RunRequest{ID: "idem-1", Src: farmtest.Generate(farmtest.Seed(3)), Ways: farmtest.Ways}

	var first RunResult
	decodeInto(t, postJSON(t, base+"/v1/run", req), &first)
	if first.Cached {
		t.Fatal("first submission claims to come from the memo")
	}
	var second RunResult
	decodeInto(t, postJSON(t, base+"/v1/run", req), &second)
	if !second.Cached {
		t.Fatal("resubmission was not answered from the memo")
	}
	if second.ID != first.ID || second.Regs != first.Regs || second.Output != first.Output || second.Insts != first.Insts {
		t.Fatalf("resubmission diverged: %+v vs %+v", first, second)
	}
	if done := reg.Counter("farm_jobs_done_total", "").Value(); done != 1 {
		t.Fatalf("engine ran %d jobs, want 1", done)
	}
}

// TestReusedIDRunsNewProgram is the regression for the request-ID replay
// cache, which answered a reused ID with the first program's result: the
// result must always be the submitted program's, whatever its ID.
func TestReusedIDRunsNewProgram(t *testing.T) {
	_, base := startTestServer(t, Config{})
	for _, v := range []uint16{9, 5} {
		var res RunResult
		resp := postJSON(t, base+"/v1/run", RunRequest{ID: "same", Src: fmt.Sprintf("lex $1,%d\nlex $0,0\nsys\n", v)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("lex %d: status %d", v, resp.StatusCode)
		}
		decodeInto(t, resp, &res)
		if res.Regs[1] != v {
			t.Fatalf("lex %d under a reused ID returned regs[1]=%d", v, res.Regs[1])
		}
	}
	resp := postJSON(t, base+"/v1/run", RunRequest{ID: "same", Src: "nonsense $9\n"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unassemblable program under a reused ID: status %d, want 400", resp.StatusCode)
	}
}

func TestQueueFull429(t *testing.T) {
	_, base := startTestServer(t, Config{QueueLimit: 2})
	req := BatchRequest{Programs: make([]RunRequest, 3)}
	for i := range req.Programs {
		req.Programs[i] = RunRequest{Src: "lex $1,1\n"}
	}
	resp := postJSON(t, base+"/v1/batch", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var er ErrorResponse
	decodeInto(t, resp, &er)
	if er.RetryAfterMs <= 0 {
		t.Fatalf("429 body %+v lacks retry_after_ms", er)
	}
}

func TestDeadline504(t *testing.T) {
	_, base := startTestServer(t, Config{})
	resp := postJSON(t, base+"/v1/run", RunRequest{Src: spinSrc, TimeoutMs: 30})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	var res RunResult
	decodeInto(t, resp, &res)
	if res.Code != http.StatusGatewayTimeout || res.Error == "" {
		t.Fatalf("result %+v, want code 504 with error", res)
	}
}

func TestDeadlineMidBatch(t *testing.T) {
	_, base := startTestServer(t, Config{})
	fine := farmtest.Generate(farmtest.Seed(4))
	req := BatchRequest{ID: "mb", Programs: []RunRequest{
		{Src: fine, Ways: farmtest.Ways},
		{Src: spinSrc, TimeoutMs: 30},
		{Src: fine, Ways: farmtest.Ways},
	}}
	resp := postJSON(t, base+"/v1/batch", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: a per-program deadline must not fail the batch", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 8<<20)
	sc.Scan() // header
	var results []RunResult
	for sc.Scan() {
		var r RunResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	if len(results) != 3 {
		t.Fatalf("%d results, want 3", len(results))
	}
	if results[0].Error != "" || results[2].Error != "" {
		t.Fatalf("healthy programs failed: %q / %q", results[0].Error, results[2].Error)
	}
	if results[1].Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline program code %d (%q), want 504", results[1].Code, results[1].Error)
	}
}

func TestClientDisconnect499(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(RunRequest{Src: spinSrc})
	req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	time.AfterFunc(50*time.Millisecond, cancel)
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("status %d, want 499", rec.Code)
	}
	var res RunResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Code != StatusClientClosedRequest {
		t.Fatalf("record code %d, want 499", res.Code)
	}
}

func TestDrainFlips503(t *testing.T) {
	s, base := startTestServer(t, Config{})
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	decodeInto(t, resp, &h)
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("pre-drain healthz: %d %q", resp.StatusCode, h.Status)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The listener is gone; the handler itself must now refuse work and
	// report draining (what a request racing the shutdown would see).
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil || h.Status != "draining" {
		t.Fatalf("draining healthz body %s", rec.Body.Bytes())
	}

	body, _ := json.Marshal(RunRequest{Src: "lex $1,1\n"})
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining run status %d, want 503", rec.Code)
	}
}

func TestTraceRowsCarryRequestID(t *testing.T) {
	reg := obs.NewRegistry()
	ring := obs.NewTraceRing(0)
	_, base := startTestServer(t, Config{Registry: reg, Trace: ring})
	resp := postJSON(t, base+"/v1/run", RunRequest{
		ID: "trace-me", Src: farmtest.Generate(farmtest.Seed(5)), Mode: "pipelined", Ways: farmtest.Ways,
	})
	var res RunResult
	decodeInto(t, resp, &res)
	if res.Error != "" {
		t.Fatal(res.Error)
	}
	events := ring.Events()
	if len(events) == 0 {
		t.Fatal("pipelined run produced no trace events")
	}
	for _, e := range events {
		if e.Req != "trace-me" {
			t.Fatalf("trace event %+v lacks the request ID", e)
		}
	}
}

func TestHealthzAndBuildinfo(t *testing.T) {
	s, base := startTestServer(t, Config{})
	var res RunResult
	decodeInto(t, postJSON(t, base+"/v1/run", RunRequest{Src: "lex $1,1\nlex $0,0\nsys\n"}), &res)

	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	decodeInto(t, resp, &h)
	if h.JobsDone != 1 || h.QueueDepth != 0 || h.Workers != s.Engine().Workers() {
		t.Fatalf("healthz %+v", h)
	}

	resp, err = http.Get(base + "/v1/buildinfo")
	if err != nil {
		t.Fatal(err)
	}
	var bi BuildInfo
	decodeInto(t, resp, &bi)
	if bi.ResultsSchema != ResultsSchema || bi.TraceVer != obs.TraceSchemaVersion || bi.MaxSteps == 0 {
		t.Fatalf("buildinfo %+v", bi)
	}
}

func TestRoutingErrors(t *testing.T) {
	_, base := startTestServer(t, Config{})
	resp, err := http.Get(base + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown route: %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(base + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Fatalf("GET /v1/run: %d Allow=%q, want 405 POST", resp.StatusCode, resp.Header.Get("Allow"))
	}

	r, err := http.Post(base+"/v1/run", "application/json",
		strings.NewReader(`{"src":"lex $1,1\n"} trailing`))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("trailing data: %d, want 400", r.StatusCode)
	}
}

func TestBodyLimit413(t *testing.T) {
	_, base := startTestServer(t, Config{})
	big := RunRequest{Src: "lex $1,1\n" + strings.Repeat("; padding comment\n", MaxBodyBytes/16)}
	resp := postJSON(t, base+"/v1/run", big)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestCoalescerGroupsSingles(t *testing.T) {
	// A wide window plus concurrent singles must form at least one
	// multi-job farm batch (fewer engine batches than jobs).
	reg := obs.NewRegistry()
	s, _ := startTestServer(t, Config{BatchWindow: 30 * time.Millisecond, Registry: reg})
	base := "http://" + s.ln.Addr().String()
	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			resp := postJSONErr(base+"/v1/run", RunRequest{
				Src: farmtest.Generate(farmtest.Seed(i)), Ways: farmtest.Ways,
			})
			errs <- resp
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if batches := s.obs.batchSize.Count(); batches >= n {
		t.Fatalf("%d farm batches for %d singles: coalescer never grouped", batches, n)
	}
}

// postJSONErr is the goroutine-safe flavor (no *testing.T methods off the
// test goroutine).
func postJSONErr(url string, body interface{}) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("status %d: %s", resp.StatusCode, msg)
	}
	var res RunResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return err
	}
	if res.Error != "" {
		return fmt.Errorf("run error: %s", res.Error)
	}
	return nil
}
