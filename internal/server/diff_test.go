package server

// The differential lens over the wire: every program in the shared random
// corpus (internal/farm/farmtest) must come back byte-identical through the
// HTTP serving stack — request decode, admission, chunked batch execution,
// NDJSON encode — as from direct in-process batch execution
// (a farm engine, via runDirect). This is the internal/farm diff harness
// extended across the serialization boundary: any divergence is a bug in
// the serving layer, since both sides share the machine models.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"tangled/internal/farm"
	"tangled/internal/farm/farmtest"
	"tangled/internal/qasm"
)

// runDirect is the in-process reference of the serving differentials: each
// corpus program executed functionally by a farm engine, with no serving
// layer in between.
func runDirect(t *testing.T, srcs []string) []farm.Result {
	t.Helper()
	jobs := make([]farm.Job, len(srcs))
	for i, src := range srcs {
		jobs[i] = farm.Job{Src: src, Mode: farm.Functional, Ways: farmtest.Ways, MaxSteps: qasm.MaxSteps}
	}
	results, _ := farm.New(0).Run(context.Background(), jobs)
	for i := range results {
		if err := results[i].Err; err != nil {
			t.Fatalf("direct run of program %d: %v", i, err)
		}
	}
	return results
}

func TestDifferentialHTTPvsDirect(t *testing.T) {
	srcs := make([]string, farmtest.Programs)
	for i := range srcs {
		srcs[i] = farmtest.Generate(farmtest.Seed(i))
	}
	direct := runDirect(t, srcs)

	// BatchMax below the corpus size so the server's chunked streaming path
	// is the one under test, not a single engine call.
	_, base := startTestServer(t, Config{BatchMax: 32})
	req := BatchRequest{ID: "diff", Programs: make([]RunRequest, len(srcs))}
	for i, src := range srcs {
		req.Programs[i] = RunRequest{Src: src, Ways: farmtest.Ways}
	}
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
		t.Fatalf("status %d", resp.StatusCode)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 8<<20)
	if !sc.Scan() {
		t.Fatal("no header")
	}
	var hdr ResultsHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Count != len(srcs) {
		t.Fatalf("header count %d, want %d", hdr.Count, len(srcs))
	}
	n := 0
	for sc.Scan() {
		var r RunResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		if r.Index != n {
			t.Fatalf("result %d arrived at position %d: order broken", r.Index, n)
		}
		if r.Error != "" {
			t.Fatalf("program %d failed over HTTP: %s\n%s", n, r.Error, srcs[n])
		}
		d := direct[n]
		if r.Regs != d.Regs || r.Output != d.Output || r.Insts != d.Insts {
			t.Fatalf("program %d diverged over HTTP:\nhttp:   regs=%v output=%q insts=%d\ndirect: regs=%v output=%q insts=%d\n%s",
				n, r.Regs, r.Output, r.Insts, d.Regs, d.Output, d.Insts, srcs[n])
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(srcs) {
		t.Fatalf("stream delivered %d of %d results", n, len(srcs))
	}
}
