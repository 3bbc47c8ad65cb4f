package server

// The wire-level differential lens extended to the RE backend: the shared
// random corpus submitted over HTTP with backend "re" must come back
// byte-identical to direct dense in-process execution. Divergence here is
// either a serving-layer bug or an RE-backend bug; either way the corpus
// program is attached.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"tangled/internal/farm/farmtest"
)

func TestDifferentialHTTPREBackend(t *testing.T) {
	srcs := make([]string, farmtest.Programs)
	for i := range srcs {
		srcs[i] = farmtest.Generate(farmtest.Seed(i))
	}
	direct := runDirect(t, srcs)

	_, base := startTestServer(t, Config{BatchMax: 32})
	req := BatchRequest{ID: "re-diff", Programs: make([]RunRequest, len(srcs))}
	for i, src := range srcs {
		req.Programs[i] = RunRequest{Src: src, Ways: farmtest.Ways, Backend: "re"}
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
		if r.Error != "" {
			t.Fatalf("program %d failed on the re backend: %s\n%s", n, r.Error, srcs[n])
		}
		d := direct[n]
		if r.Regs != d.Regs || r.Output != d.Output || r.Insts != d.Insts {
			t.Fatalf("program %d diverged on the re backend:\nre:    regs=%v output=%q insts=%d\ndense: regs=%v output=%q insts=%d\n%s",
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

// TestREBackendValidation pins the 400-level refusals of the backend
// fields: unknown backends, pipelined RE runs, out-of-range widths, and
// the RE geometry fields the wire no longer carries (the planner owns the
// geometry), which are unknown fields on every endpoint that takes a
// program.
func TestREBackendValidation(t *testing.T) {
	cases := []string{
		`{"src":"sys","backend":"zstd"}`,
		`{"src":"sys","chunk_ways":4}`,
		`{"src":"sys","spill_runs":8}`,
		`{"src":"sys","backend":"re","mode":"pipelined"}`, // no pipelined RE
		`{"src":"sys","backend":"re","ways":25}`,          // above MaxREWays
		`{"src":"sys","backend":"re","ways":8,"chunk_ways":4}`,
		`{"src":"sys","backend":"re","spill_runs":1}`,
		`{"src":"sys","ways":17}`, // dense above the wall
	}
	_, base := startTestServer(t, Config{JobsDir: t.TempDir()})
	for i, prog := range cases {
		for path, body := range map[string]string{
			"/v1/run":   prog,
			"/v1/batch": `{"programs":[` + prog + `]}`,
			"/v1/jobs":  prog,
		} {
			resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("case %d %s %s: status %d, want 400", i, path, body, resp.StatusCode)
			}
		}
	}

	// And the happy path: an RE run above the dense wall is accepted.
	body, _ := json.Marshal(&RunRequest{Src: "sys", Backend: "re", Ways: 20})
	resp, err := http.Post(base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re ways=20 run: status %d, want 200", resp.StatusCode)
	}
}
