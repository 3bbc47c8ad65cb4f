package server

// Serving-layer memoization: /v1/run and /v1/batch consult the
// content-addressed execution cache before admission control. These tests
// pin the wire-visible contract — the cached field, byte-identical replays
// over the full shared corpus, hits sailing past a full admission queue.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"tangled/internal/farm/farmtest"
	"tangled/internal/obs"
)

// runOnce posts one /v1/run and decodes the result, failing on non-200.
func runOnce(t *testing.T, base string, req RunRequest) RunResult {
	t.Helper()
	resp := postJSON(t, base+"/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		b := new(bytes.Buffer)
		b.ReadFrom(resp.Body)
		resp.Body.Close()
		t.Fatalf("status %d: %s", resp.StatusCode, b.String())
	}
	var res RunResult
	decodeInto(t, resp, &res)
	return res
}

// sameRunResult compares the execution-determined fields of two results
// (IDs and indexes legitimately differ between a fresh run and its replay).
func sameRunResult(a, b RunResult) error {
	if a.Regs != b.Regs {
		return fmt.Errorf("regs %v != %v", a.Regs, b.Regs)
	}
	if a.Output != b.Output {
		return fmt.Errorf("output %q != %q", a.Output, b.Output)
	}
	if a.Insts != b.Insts {
		return fmt.Errorf("insts %d != %d", a.Insts, b.Insts)
	}
	if a.Cycles != b.Cycles || a.Stalls != b.Stalls {
		return fmt.Errorf("cycles/stalls %d/%d != %d/%d", a.Cycles, a.Stalls, b.Cycles, b.Stalls)
	}
	if a.Error != b.Error || a.Code != b.Code {
		return fmt.Errorf("error %q(%d) != %q(%d)", a.Error, a.Code, b.Error, b.Code)
	}
	return nil
}

// TestRunMemoizedDifferential repeats every corpus program through /v1/run
// under distinct request IDs and requires the cached replay to be
// byte-identical to the fresh execution.
func TestRunMemoizedDifferential(t *testing.T) {
	reg := obs.NewRegistry()
	_, base := startTestServer(t, Config{Registry: reg})
	for i := 0; i < farmtest.Programs; i++ {
		src := farmtest.Generate(farmtest.Seed(i))
		fresh := runOnce(t, base, RunRequest{ID: fmt.Sprintf("fresh-%d", i), Src: src, Ways: farmtest.Ways})
		if fresh.Cached {
			t.Fatalf("program %d: first run flagged cached", i)
		}
		replay := runOnce(t, base, RunRequest{ID: fmt.Sprintf("replay-%d", i), Src: src, Ways: farmtest.Ways})
		if !replay.Cached {
			t.Fatalf("program %d: repeat run not served from the memo", i)
		}
		if err := sameRunResult(fresh, replay); err != nil {
			t.Fatalf("program %d: cached replay differs: %v\n%s", i, err, src)
		}
	}
	snap := reg.Snapshot()
	if hits, _ := snap["memo_hits_total"].(uint64); hits < farmtest.Programs {
		t.Fatalf("memo_hits_total = %v, want >= %d", snap["memo_hits_total"], farmtest.Programs)
	}
	if misses, _ := snap["memo_misses_total"].(uint64); misses < farmtest.Programs {
		t.Fatalf("memo_misses_total = %v, want >= %d", snap["memo_misses_total"], farmtest.Programs)
	}
}

// TestRunMemoizedPipelined covers the pipelined wire path (cycles/stalls
// must replay exactly) — possible because this server attaches no trace
// ring, so pipelined programs are cacheable.
func TestRunMemoizedPipelined(t *testing.T) {
	_, base := startTestServer(t, Config{})
	src := farmtest.Generate(farmtest.Seed(3))
	fresh := runOnce(t, base, RunRequest{ID: "p-1", Src: src, Mode: "pipelined", Ways: farmtest.Ways})
	replay := runOnce(t, base, RunRequest{ID: "p-2", Src: src, Mode: "pipelined", Ways: farmtest.Ways})
	if fresh.Cached || !replay.Cached {
		t.Fatalf("cached flags: fresh=%v replay=%v", fresh.Cached, replay.Cached)
	}
	if fresh.Cycles == 0 {
		t.Fatalf("pipelined run reported no cycles")
	}
	if err := sameRunResult(fresh, replay); err != nil {
		t.Fatalf("pipelined replay differs: %v", err)
	}
}

// TestMemoTracePreventsPipelinedCaching: with a trace ring attached,
// pipelined repeats must execute for real (their rows are the product),
// while functional repeats still memoize.
func TestMemoTracePreventsPipelinedCaching(t *testing.T) {
	// Trace rides the farm Obs hook-up, which requires a registry.
	_, base := startTestServer(t, Config{Registry: obs.NewRegistry(), Trace: obs.NewTraceRing(1 << 12)})
	src := farmtest.Generate(farmtest.Seed(4))
	runOnce(t, base, RunRequest{ID: "tp-1", Src: src, Mode: "pipelined", Ways: farmtest.Ways})
	if res := runOnce(t, base, RunRequest{ID: "tp-2", Src: src, Mode: "pipelined", Ways: farmtest.Ways}); res.Cached {
		t.Fatalf("pipelined repeat served from cache while tracing")
	}
	runOnce(t, base, RunRequest{ID: "tf-1", Src: src, Ways: farmtest.Ways})
	if res := runOnce(t, base, RunRequest{ID: "tf-2", Src: src, Ways: farmtest.Ways}); !res.Cached {
		t.Fatalf("functional repeat not memoized on a tracing server")
	}
}

// TestMemoDisabled: MemoCap < 0 turns the cache off entirely.
func TestMemoDisabled(t *testing.T) {
	_, base := startTestServer(t, Config{MemoCap: -1})
	src := farmtest.Generate(farmtest.Seed(5))
	runOnce(t, base, RunRequest{ID: "d-1", Src: src, Ways: farmtest.Ways})
	if res := runOnce(t, base, RunRequest{ID: "d-2", Src: src, Ways: farmtest.Ways}); res.Cached {
		t.Fatalf("memo-disabled server served a cached result")
	}
}

// TestMemoHitBypassesAdmission: a memoized result is delivered even while
// the admission queue is completely full — hits must not consume a slot.
func TestMemoHitBypassesAdmission(t *testing.T) {
	s, base := startTestServer(t, Config{QueueLimit: 4})
	src := farmtest.Generate(farmtest.Seed(6))
	runOnce(t, base, RunRequest{ID: "warm", Src: src, Ways: farmtest.Ways})

	// Saturate the admission counter directly: every slot appears taken.
	s.queue.Store(int64(s.cfg.QueueLimit))
	defer s.queue.Store(0)

	// A fresh program cannot get in...
	resp := postJSON(t, base+"/v1/run", RunRequest{ID: "cold", Src: farmtest.Generate(farmtest.Seed(7)), Ways: farmtest.Ways})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("fresh program got %d with a full queue, want 429", resp.StatusCode)
	}
	// ...but the memoized repeat is served regardless.
	res := runOnce(t, base, RunRequest{ID: "hot", Src: src, Ways: farmtest.Ways})
	if !res.Cached {
		t.Fatalf("repeat with a full queue was not served from the memo")
	}
}

// TestBatchMemoized: a batch mixing cached repeats with a fresh program
// streams complete, input-ordered results with the cached flags set on
// exactly the repeats — and a batch of pure repeats is admitted even when
// the queue is full.
func TestBatchMemoized(t *testing.T) {
	s, base := startTestServer(t, Config{BatchMax: 2})
	warm := []string{
		farmtest.Generate(farmtest.Seed(8)),
		farmtest.Generate(farmtest.Seed(9)),
	}
	for i, src := range warm {
		runOnce(t, base, RunRequest{ID: fmt.Sprintf("warm-%d", i), Src: src, Ways: farmtest.Ways})
	}
	fresh := farmtest.Generate(farmtest.Seed(10))

	results := postBatch(t, base, BatchRequest{ID: "mix", Programs: []RunRequest{
		{Src: warm[0], Ways: farmtest.Ways},
		{Src: fresh, Ways: farmtest.Ways},
		{Src: warm[1], Ways: farmtest.Ways},
	}})
	wantCached := []bool{true, false, true}
	for i, res := range results {
		if res.Error != "" {
			t.Fatalf("program %d: %s", i, res.Error)
		}
		if res.Cached != wantCached[i] {
			t.Fatalf("program %d: cached=%v, want %v", i, res.Cached, wantCached[i])
		}
	}

	// Pure-repeat batch with a saturated queue: no admission needed.
	s.queue.Store(int64(s.cfg.QueueLimit))
	defer s.queue.Store(0)
	results = postBatch(t, base, BatchRequest{ID: "repeats", Programs: []RunRequest{
		{Src: warm[0], Ways: farmtest.Ways},
		{Src: warm[1], Ways: farmtest.Ways},
	}})
	for i, res := range results {
		if res.Error != "" || !res.Cached {
			t.Fatalf("repeat %d with a full queue: cached=%v err=%q", i, res.Cached, res.Error)
		}
	}
}

// postBatch posts a /v1/batch and decodes the full NDJSON stream, checking
// header schema and input ordering.
func postBatch(t *testing.T, base string, req BatchRequest) []RunResult {
	t.Helper()
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b := new(bytes.Buffer)
		b.ReadFrom(resp.Body)
		t.Fatalf("batch status %d: %s", resp.StatusCode, b.String())
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 8<<20)
	if !sc.Scan() {
		t.Fatal("no batch header")
	}
	var hdr ResultsHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Schema != ResultsSchema || hdr.Count != len(req.Programs) {
		t.Fatalf("header %+v, want schema %q count %d", hdr, ResultsSchema, len(req.Programs))
	}
	var out []RunResult
	for sc.Scan() {
		var r RunResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		if r.Index != len(out) {
			t.Fatalf("result %d arrived at position %d: order broken", r.Index, len(out))
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(req.Programs) {
		t.Fatalf("stream delivered %d of %d results", len(out), len(req.Programs))
	}
	return out
}
