package client

// White-box tests of the retry discipline against scripted fake servers
// (httptest on 127.0.0.1:0, like every server-shaped test here). The sleep
// hook is stubbed so backoff schedules are asserted, not waited out.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tangled/internal/obs"
	"tangled/internal/server"
)

// scripted returns a test server that answers each attempt with the next
// status in script (the last repeats), recording request IDs.
func scripted(t *testing.T, script []int, result server.RunResult) (*httptest.Server, *[]string, *atomic.Int64) {
	t.Helper()
	var attempts atomic.Int64
	ids := &[]string{}
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(attempts.Add(1)) - 1
		var req server.RunRequest
		json.NewDecoder(r.Body).Decode(&req)
		mu.Lock()
		*ids = append(*ids, req.ID)
		mu.Unlock()
		code := script[len(script)-1]
		if n < len(script) {
			code = script[n]
		}
		if code == http.StatusOK {
			json.NewEncoder(w).Encode(result)
			return
		}
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(server.ErrorResponse{Error: fmt.Sprintf("scripted %d", code), RetryAfterMs: 250})
	}))
	t.Cleanup(ts.Close)
	return ts, ids, &attempts
}

// stubSleep replaces the client's sleep with a recorder.
func stubSleep(c *Client) *[]time.Duration {
	var mu sync.Mutex
	slept := &[]time.Duration{}
	c.sleep = func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		*slept = append(*slept, d)
		mu.Unlock()
		return ctx.Err()
	}
	return slept
}

func TestRetryAfterTransientFailures(t *testing.T) {
	want := server.RunResult{ID: "x", Insts: 7}
	ts, ids, attempts := scripted(t, []int{500, 503, 200}, want)
	c := New(ts.URL)
	stubSleep(c)

	got, err := c.Run(context.Background(), server.RunRequest{Src: "lex $1,1\n"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Insts != want.Insts {
		t.Fatalf("result %+v", got)
	}
	if n := attempts.Load(); n != 3 {
		t.Fatalf("%d attempts, want 3", n)
	}
	// Idempotent resubmission: the ID is minted once, before the first
	// attempt, and every retry carries it.
	if (*ids)[0] == "" || (*ids)[0] != (*ids)[1] || (*ids)[1] != (*ids)[2] {
		t.Fatalf("request IDs varied across retries: %q", *ids)
	}
}

func TestNoRetryOnClientError(t *testing.T) {
	ts, _, attempts := scripted(t, []int{400}, server.RunResult{})
	c := New(ts.URL)
	stubSleep(c)

	_, err := c.Run(context.Background(), server.RunRequest{Src: "bogus"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("err = %v, want APIError 400", err)
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("%d attempts for a 400, want 1 (no retry)", n)
	}
}

func TestGiveUpAfterMaxRetries(t *testing.T) {
	ts, _, attempts := scripted(t, []int{503}, server.RunResult{})
	c := NewWith(Config{BaseURL: ts.URL, MaxRetries: 2})
	stubSleep(c)

	_, err := c.Run(context.Background(), server.RunRequest{Src: "lex $1,1\n"})
	if err == nil {
		t.Fatal("expected failure")
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 503 {
		t.Fatalf("err = %v, want wrapped APIError 503", err)
	}
	if n := attempts.Load(); n != 3 {
		t.Fatalf("%d attempts, want 1 + 2 retries", n)
	}
}

func TestBackoffHonorsRetryAfterAndCap(t *testing.T) {
	ts, _, _ := scripted(t, []int{429, 429, 200}, server.RunResult{})
	c := NewWith(Config{BaseURL: ts.URL, BaseBackoff: time.Millisecond})
	slept := stubSleep(c)

	if _, err := c.Run(context.Background(), server.RunRequest{Src: "lex $1,1\n"}); err != nil {
		t.Fatal(err)
	}
	if len(*slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(*slept))
	}
	for i, d := range *slept {
		// The server advertised retry_after_ms=250; the jittered
		// exponential is at most 2ms here, so the hint must win.
		if d < 250*time.Millisecond {
			t.Fatalf("sleep %d was %v, Retry-After hint of 250ms ignored", i, d)
		}
	}
}

func TestBackoffJitterWithinBounds(t *testing.T) {
	c := NewWith(Config{BaseURL: "http://unused", BaseBackoff: 10 * time.Millisecond})
	for attempt := 0; attempt < 10; attempt++ {
		bound := min(10*time.Millisecond<<attempt, maxBackoff)
		for trial := 0; trial < 50; trial++ {
			d := c.backoff(attempt, 0)
			if d <= 0 || d > bound {
				t.Fatalf("attempt %d: backoff %v outside (0, %v]", attempt, d, bound)
			}
		}
	}
}

func TestBatchSchemaChecked(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"schema":"something-else","version":9,"count":0}`)
	}))
	defer ts.Close()
	c := New(ts.URL)
	if _, err := c.Batch(context.Background(), server.BatchRequest{Programs: []server.RunRequest{{Src: "lex $1,1\n"}}}); err == nil {
		t.Fatal("schema mismatch not detected")
	}
}

func TestBatchTruncationDetected(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "{\"schema\":%q,\"version\":%d,\"count\":2}\n{\"index\":0}\n",
			server.ResultsSchema, server.ResultsSchemaVersion)
	}))
	defer ts.Close()
	c := New(ts.URL)
	if _, err := c.Batch(context.Background(), server.BatchRequest{Programs: []server.RunRequest{{Src: "x"}}}); err == nil {
		t.Fatal("truncated stream not detected")
	}
}

// TestAgainstRealServer closes the loop: the retrying client against the
// real serving stack, including an end-to-end resubmission the memo answers.
func TestAgainstRealServer(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := server.New(server.Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.StartLocal()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := New(base)
	ctx := context.Background()

	res, err := c.Run(ctx, server.RunRequest{ID: "real-1", Src: "lex $1,9\nlex $0,0\nsys\n"})
	if err != nil || res.Regs[1] != 9 {
		t.Fatalf("run: %+v, %v", res, err)
	}
	// A resubmission under the same ID is answered by the server's memo,
	// not executed again.
	again, err := c.Run(ctx, server.RunRequest{ID: "real-1", Src: "lex $1,9\nlex $0,0\nsys\n"})
	if err != nil || !again.Cached || again.Regs != res.Regs || again.Output != res.Output || again.Insts != res.Insts {
		t.Fatalf("resubmission: %+v, %v (first %+v)", again, err, res)
	}
	if done := reg.Counter("farm_jobs_done_total", "").Value(); done != 1 {
		t.Fatalf("engine ran %d jobs, want 1", done)
	}

	results, err := c.Batch(ctx, server.BatchRequest{Programs: []server.RunRequest{
		{Src: "lex $2,3\nlex $0,0\nsys\n"}, {Src: "lex $3,4\nlex $0,0\nsys\n"},
	}})
	if err != nil || len(results) != 2 || results[0].Regs[2] != 3 || results[1].Regs[3] != 4 {
		t.Fatalf("batch: %+v, %v", results, err)
	}

	if _, err := c.Assemble(ctx, server.AssembleRequest{Src: "nonsense $9\n"}); err == nil {
		t.Fatal("assemble of nonsense succeeded")
	}
	// The request carries the lint opt-in: the dead first store must come
	// back as a warning on the attached report.
	ar, err := c.Assemble(ctx, server.AssembleRequest{
		Src: "lex $1,5\nlex $1,7\nlex $0,0\nsys\n", Lint: true,
	})
	if err != nil || ar.Lint == nil || ar.Lint.Warnings == 0 {
		t.Fatalf("assemble with lint: %+v, %v", ar.Lint, err)
	}
	h, err := c.ClusterHealth(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("health: %+v, %v", h, err)
	}
	bi, err := c.ClusterBuildInfo(ctx)
	if err != nil || bi.ResultsSchema != server.ResultsSchema {
		t.Fatalf("buildinfo: %+v, %v", bi, err)
	}
}
