package server

// FuzzServedRun drives raw word images through the serving stack with
// random request options — mode, ways, backend, stages, const_regs and a
// bounded step budget — the failure paths the well-formed corpus never
// reaches. Each program goes to /v1/run and as a one-program /v1/batch;
// both must answer 200, 400 or 422, and they must agree: the same status,
// the same record on success, the same error (batch-prefixed) on refusal.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"tangled/internal/asm"
	"tangled/internal/farm/farmtest"
)

// fuzzMaxSteps bounds every fuzzed run: at the default budget one
// pipelined word at 13 ways runs for seconds and stalls the fuzzer.
const fuzzMaxSteps = 100_000

func FuzzServedRun(f *testing.F) {
	for i := 0; i < 8; i++ {
		prog, err := asm.Assemble(farmtest.Generate(farmtest.Seed(i)))
		if err != nil {
			f.Fatal(err)
		}
		words := make([]byte, 0, 2*len(prog.Words))
		for _, w := range prog.Words {
			words = binary.LittleEndian.AppendUint16(words, w)
		}
		// mode, backend and stages index the tables in the body; each
		// corpus seed is a valid request that runs to its halt.
		mode, backend, stages := uint8(i%3), uint8(i/2%4), uint8(0)
		if mode == 2 {
			backend, stages = 0, uint8(1+i%2)
		}
		f.Add(words, mode, uint8(farmtest.Ways), backend, stages, false, uint32(fuzzMaxSteps-1))
	}
	f.Add([]byte{0xff, 0xff}, uint8(2), uint8(13), uint8(0), uint8(2), false, uint32(fuzzMaxSteps))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0), uint8(0), false, uint32(0))
	f.Add([]byte{0x00, 0x01, 0x02}, uint8(1), uint8(20), uint8(3), uint8(0), true, uint32(1))

	s, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	base, err := s.StartLocal()
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })

	f.Fuzz(func(t *testing.T, raw []byte, mode, ways, backend, stages uint8, constRegs bool, steps uint32) {
		if len(raw) > 1024 {
			raw = raw[:1024]
		}
		words := make([]uint16, len(raw)/2)
		for i := range words {
			words[i] = binary.LittleEndian.Uint16(raw[2*i:])
		}
		req := RunRequest{
			ID:        "fuzz",
			Words:     words,
			Mode:      [...]string{"", "functional", "pipelined"}[mode%3],
			Ways:      int(ways % 27), // past every backend's ceiling too
			Backend:   [...]string{"", "dense", "re", "auto", "fpga"}[backend%5],
			Stages:    [...]int{0, 4, 5, 3}[stages%4],
			ConstRegs: constRegs,
			MaxSteps:  1 + uint64(steps)%fuzzMaxSteps,
		}

		runCode, runBody := fuzzPost(t, base+"/v1/run", req)
		batchCode, batchBody := fuzzPost(t, base+"/v1/batch", BatchRequest{ID: "b", Programs: []RunRequest{req}})
		switch runCode {
		case http.StatusOK, http.StatusBadRequest, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("%+v: /v1/run status %d: %s", req, runCode, runBody)
		}
		if batchCode != runCode {
			t.Fatalf("%+v: /v1/run %d %s, /v1/batch %d %s", req, runCode, runBody, batchCode, batchBody)
		}

		if runCode != http.StatusOK {
			var re, be ErrorResponse
			if json.Unmarshal(runBody, &re) != nil || json.Unmarshal(batchBody, &be) != nil ||
				be.Error != "program 0: "+re.Error {
				t.Fatalf("%+v: refusals differ: run %s, batch %s", req, runBody, batchBody)
			}
			return
		}
		var run RunResult
		if err := json.Unmarshal(runBody, &run); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(bytes.NewReader(batchBody))
		sc.Buffer(nil, 1<<20)
		var rec RunResult
		if !sc.Scan() || !sc.Scan() || json.Unmarshal(sc.Bytes(), &rec) != nil {
			t.Fatalf("%+v: batch body has no result record: %s", req, batchBody)
		}
		// The second submission may be served from the execution cache.
		run.Cached, rec.Cached = false, false
		if run != rec {
			t.Fatalf("%+v: run %+v, batch record %+v", req, run, rec)
		}
	})
}

// fuzzPost posts v as JSON and returns the status and body.
func fuzzPost(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	resp := postJSON(t, url, v)
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}
