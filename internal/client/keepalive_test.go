package client

// Regression tests for the connection-reuse and GET-retry fixes: response
// bodies must be drained before Close (else every retry pays a fresh dial)
// and get must ride the same backoff machinery as post (else one transport
// flake fails a healthz poll, which a heartbeat loop escalates into a
// missed beat).

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"tangled/internal/server"
)

// countingListener counts accepted connections: one dial = one Accept.
type countingListener struct {
	net.Listener
	accepts *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// TestKeepAliveAcrossRetries proves a whole retry sequence — a fat error
// response (decodeError reads a 64KiB prefix and abandons the rest), its
// retry, and trailing GET polls — rides one TCP connection. Before the
// drain-before-Close fix, the abandoned remainder tore the connection
// down and every attempt dialed fresh. (A remainder of a few buffered
// bytes is forgiven by the transport's read-ahead; past that the
// connection dies, which is why the error body here is > 64KiB.)
func TestKeepAliveAcrossRetries(t *testing.T) {
	var accepts atomic.Int64
	var runs atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) {
		var req server.RunRequest
		json.NewDecoder(r.Body).Decode(&req)
		if runs.Add(1) == 1 {
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(server.ErrorResponse{Error: strings.Repeat("boom ", 24<<10)})
			return
		}
		json.NewEncoder(w).Encode(server.RunResult{ID: req.ID, Insts: 42})
	})
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.Health{Status: "ok"})
	})
	ts := httptest.NewUnstartedServer(mux)
	ts.Listener = countingListener{ts.Listener, &accepts}
	ts.Start()
	t.Cleanup(ts.Close)

	// Dedicated transport: the shared default pool must not donate or
	// steal connections while we count.
	c := NewWith(Config{BaseURL: ts.URL, HTTPClient: &http.Client{Transport: &http.Transport{}}})
	stubSleep(c)
	ctx := context.Background()

	if _, err := c.ClusterHealth(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(ctx, server.RunRequest{Src: "lex $1,1\n"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Insts != 42 {
		t.Fatalf("result %+v", got)
	}
	if _, err := c.ClusterHealth(ctx); err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("run attempts = %d, want 2 (one 500, one retry)", n)
	}
	if n := accepts.Load(); n != 1 {
		t.Fatalf("server accepted %d connections across the sequence, want 1 (keep-alive reuse)", n)
	}
}

// TestGetRetriesTransportFlake injects a mid-flight connection abort into
// the first healthz poll and asserts get retries through it.
func TestGetRetriesTransportFlake(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("response writer is not a Hijacker")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatalf("hijack: %v", err)
			}
			conn.Close() // slam the door before any bytes of response
			return
		}
		json.NewEncoder(w).Encode(server.Health{Status: "ok", Workers: 3})
	}))
	t.Cleanup(ts.Close)

	c := New(ts.URL)
	stubSleep(c)
	h, err := c.ClusterHealth(context.Background())
	if err != nil {
		t.Fatalf("health after one transport flake: %v", err)
	}
	if h.Workers != 3 {
		t.Fatalf("health %+v", h)
	}
	if n := attempts.Load(); n != 2 {
		t.Fatalf("attempts = %d, want 2", n)
	}
}

// TestGetDoesNotRetry503 pins the draining semantics: 503 on the GET
// surface is a real answer (a draining server's healthz), so get must
// surface it immediately instead of burning retries against it.
func TestGetDoesNotRetry503(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(server.Health{Status: "draining", Draining: true})
	}))
	t.Cleanup(ts.Close)

	c := New(ts.URL)
	stubSleep(c)
	_, err := c.ClusterHealth(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want immediate 503 APIError", err)
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("attempts = %d, want 1 (503 is an answer, not a flake)", n)
	}
}
