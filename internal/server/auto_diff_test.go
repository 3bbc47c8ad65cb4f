package server

// The auto-backend planner through the HTTP surface: a backend:"auto"
// request must resolve to a concrete backend, report the choice in the
// result record, match the explicit spelling byte-for-byte (including the
// width regime dense cannot serve), and refuse unservable widths with a
// 422 carrying the static profile.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"tangled/internal/farm/farmtest"
	"tangled/internal/obs"
	"tangled/internal/qat"
)

func postRunJSON(t *testing.T, base string, rq *RunRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(rq)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// autoWideSrc entangles all 16 seedable channels into @1 and reduces.
func autoWideSrc() string {
	var b strings.Builder
	for k := 0; k < 16; k++ {
		fmt.Fprintf(&b, "\thad\t@%d, %d\n", k+1, k)
	}
	for k := 1; k < 16; k++ {
		fmt.Fprintf(&b, "\tcnot\t@1, @%d\n", k+1)
	}
	b.WriteString("\tmeas\t$1, @1\n\tpop\t$2, @1\n\tlex\t$0, 0\n\tsys\n")
	return b.String()
}

// TestDifferentialHTTPAutoBackend proves the acceptance path end to end:
// at 20 ways (past the dense wall) an auto request must serve on RE,
// byte-identical to the explicit RE spelling, and say so in the record.
func TestDifferentialHTTPAutoBackend(t *testing.T) {
	_, base := startTestServer(t, Config{})
	src := autoWideSrc()

	resp, body := postRunJSON(t, base, &RunRequest{Src: src, Ways: 20, Backend: "auto"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("auto run: status %d: %s", resp.StatusCode, body)
	}
	var auto RunResult
	if err := json.Unmarshal(body, &auto); err != nil {
		t.Fatal(err)
	}
	if auto.Backend != qat.BackendRE {
		t.Fatalf("auto resolved to %q, want re", auto.Backend)
	}

	resp, body = postRunJSON(t, base, &RunRequest{Src: src, Ways: 20, Backend: "re"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re run: status %d: %s", resp.StatusCode, body)
	}
	var re RunResult
	if err := json.Unmarshal(body, &re); err != nil {
		t.Fatal(err)
	}
	if auto.Regs != re.Regs || auto.Output != re.Output || auto.Insts != re.Insts {
		t.Fatalf("auto diverged from explicit re:\nauto %v %q %d\nre   %v %q %d",
			auto.Regs, auto.Output, auto.Insts, re.Regs, re.Output, re.Insts)
	}

	// Dense refuses the width outright, so auto really had one servable
	// choice.
	resp, _ = postRunJSON(t, base, &RunRequest{Src: src, Ways: 20, Backend: "dense"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dense at 20 ways: status %d, want 400", resp.StatusCode)
	}
}

// TestHTTPAutoBatchDifferential submits a corpus slice twice per program
// (auto and dense) in one batch at a dense width: records must agree
// byte-for-byte and each auto record must name its backend.
func TestHTTPAutoBatchDifferential(t *testing.T) {
	const programs = 12
	_, base := startTestServer(t, Config{BatchMax: 32})
	req := BatchRequest{ID: "auto-diff"}
	for i := 0; i < programs; i++ {
		src := farmtest.Generate(farmtest.Seed(i))
		req.Programs = append(req.Programs,
			RunRequest{Src: src, Ways: farmtest.Ways, Backend: "auto"},
			RunRequest{Src: src, Ways: farmtest.Ways})
	}
	body, _ := json.Marshal(&req)
	resp, err := http.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	var hdr ResultsHeader
	if err := dec.Decode(&hdr); err != nil {
		t.Fatal(err)
	}
	results := make([]RunResult, hdr.Count)
	for i := range results {
		if err := dec.Decode(&results[i]); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	for i := 0; i < len(results); i += 2 {
		auto, dense := results[i], results[i+1]
		if auto.Error != "" || dense.Error != "" {
			t.Fatalf("pair %d failed: auto=%q dense=%q", i/2, auto.Error, dense.Error)
		}
		if auto.Backend == "" {
			t.Fatalf("pair %d: auto record does not name its backend", i/2)
		}
		if auto.Regs != dense.Regs || auto.Output != dense.Output || auto.Insts != dense.Insts {
			t.Fatalf("pair %d: auto (%s) diverged from dense", i/2, auto.Backend)
		}
	}
}

// TestHTTPAutoUnservable asks for a width past every backend: 422 with
// the static profile attached, so the client learns both the verdict and
// the reason.
func TestHTTPAutoUnservable(t *testing.T) {
	_, base := startTestServer(t, Config{})
	resp, body := postRunJSON(t, base, &RunRequest{Src: autoWideSrc(), Ways: qat.MaxREWays + 1, Backend: "auto"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Profile == nil {
		t.Fatalf("422 body carries no profile: %s", body)
	}
	if er.Profile.Ways != qat.MaxREWays {
		t.Fatalf("profile ways=%d, want clamped to %d", er.Profile.Ways, qat.MaxREWays)
	}
	if er.Profile.DegreeBound == 0 {
		t.Fatal("profile degree bound is zero for an entangling program")
	}
}

// TestHTTPAutoMemoHitCountedOnce: three identical auto requests are one
// memo miss and two hits, as for the explicit spelling — the planner's
// probe picks the backend without counting a hit of its own.
func TestHTTPAutoMemoHitCountedOnce(t *testing.T) {
	src := farmtest.Generate(farmtest.Seed(8))
	for _, b := range []string{qat.BackendDense, "auto"} {
		reg := obs.NewRegistry()
		_, base := startTestServer(t, Config{Registry: reg})
		for i := 0; i < 3; i++ {
			res := runOnce(t, base, RunRequest{ID: fmt.Sprintf("%s-%d", b, i), Src: src, Ways: 4, Backend: b})
			if res.Cached != (i > 0) || res.Backend != qat.BackendDense {
				t.Fatalf("%s run %d: cached=%v backend=%q", b, i, res.Cached, res.Backend)
			}
		}
		snap := reg.Snapshot()
		if snap["memo_hits_total"] != uint64(2) || snap["memo_misses_total"] != uint64(1) {
			t.Fatalf("%s: memo_hits_total %v, memo_misses_total %v, want 2 and 1",
				b, snap["memo_hits_total"], snap["memo_misses_total"])
		}
	}
}

// TestBuildinfoBackends pins the backend advertisement: the two backend
// names plus the auto capability.
func TestBuildinfoBackends(t *testing.T) {
	_, base := startTestServer(t, Config{})
	resp, err := http.Get(base + "/v1/buildinfo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var bi BuildInfo
	if err := json.NewDecoder(resp.Body).Decode(&bi); err != nil {
		t.Fatal(err)
	}
	want := []string{qat.BackendDense, qat.BackendRE}
	if len(bi.Backends) != len(want) || bi.Backends[0] != want[0] || bi.Backends[1] != want[1] {
		t.Fatalf("backends=%v, want %v", bi.Backends, want)
	}
	seen := map[string]bool{}
	for _, c := range bi.Capabilities {
		seen[c] = true
	}
	if !seen["backend:auto"] || !seen["backend:re"] {
		t.Fatalf("capabilities %v missing backend:auto/backend:re", bi.Capabilities)
	}
}
