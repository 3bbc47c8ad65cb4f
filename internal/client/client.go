// Package client is the Go client for the Qat serving API (internal/server):
// one typed method per endpoint (POST /v1/run, /v1/batch, /v1/assemble; GET
// /v1/healthz, /v1/buildinfo; jobs.go adds the async surface), with the
// retry discipline a remote accelerator front-end needs — exponential
// backoff with full jitter, Retry-After honored on 429/503 backpressure, and
// idempotent resubmission: every run is assigned its request ID before the
// first attempt, so a retry after a lost response carries the same ID and
// the server's content-addressed memo answers it (cached:true); with the
// memo disabled the retry re-executes, and deterministic execution gives
// the same result.
package client

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	mrand "math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"tangled/internal/server"
)

// Config parameterizes a Client; the zero value (plus a BaseURL) is a
// sensible production client.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient overrides the transport; nil means a dedicated
	// http.Client with no global timeout (deadlines come from ctx).
	HTTPClient *http.Client
	// MaxRetries bounds attempts beyond the first; <0 disables retries,
	// 0 means 4.
	MaxRetries int
	// BaseBackoff seeds the exponential schedule; <=0 means 50ms.
	BaseBackoff time.Duration
}

// maxBackoff caps one backoff sleep (a Retry-After hint may exceed it).
const maxBackoff = 2 * time.Second

// Client talks to one qatserver. Safe for concurrent use.
type Client struct {
	cfg      Config
	http     *http.Client
	jitterMu sync.Mutex
	rng      *mrand.Rand // jitter source, guarded by jitterMu
	// sleep is swapped out by tests so retry schedules don't burn wall
	// clock.
	sleep func(ctx context.Context, d time.Duration) error
}

// New builds a client for baseURL with Config defaults.
func New(baseURL string) *Client { return NewWith(Config{BaseURL: baseURL}) }

// NewWith builds a client from an explicit Config.
func NewWith(cfg Config) *Client {
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 4
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	h := cfg.HTTPClient
	if h == nil {
		h = &http.Client{}
	}
	var seed [8]byte
	rand.Read(seed[:])
	return &Client{
		cfg:  cfg,
		http: h,
		rng:  mrand.New(mrand.NewSource(int64(binary.BigEndian.Uint64(seed[:])))),
		sleep: func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		},
	}
}

// APIError is a non-2xx server response: its status and its body (up to
// 64 KiB) decoded.
type APIError struct {
	Status int
	Resp   server.ErrorResponse
}

func (e *APIError) Error() string {
	if len(e.Resp.Lines) > 0 {
		return fmt.Sprintf("server: HTTP %d: %s (line %d: %s)",
			e.Status, e.Resp.Error, e.Resp.Lines[0].Line, e.Resp.Lines[0].Msg)
	}
	return fmt.Sprintf("server: HTTP %d: %s", e.Status, e.Resp.Error)
}

// retryable reports whether a response status is worth another attempt:
// backpressure (429, 503) and transient server faults (5xx other than the
// run-outcome 504, which is the program's deadline, not the transport's).
func retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusInternalServerError, http.StatusBadGateway:
		return true
	}
	return false
}

// retryableGet is the GET variant: 503 is excluded because on the GET
// surface it is a meaningful answer, not a transient fault — a draining
// server reports 503 from /v1/healthz, and a health prober (the cluster
// coordinator's heartbeat) must see that state immediately instead of
// burning its retry budget against it.
func retryableGet(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusBadGateway:
		return true
	}
	return false
}

// drainLimit bounds how much of a leftover response body is read before
// Close. Anything this client receives is far smaller; a body still going
// past the limit is cheaper to abandon (closing the connection) than to
// stream to /dev/null.
const drainLimit = 256 << 10

// drainClose consumes the unread remainder of a response body (bounded)
// and closes it. Closing an undrained body tears down the TCP connection,
// so without this every retry and every poll pays a fresh dial instead of
// reusing the keep-alive connection.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(body, drainLimit))
	body.Close()
}

// backoff computes the sleep before attempt n (0-based), honoring a server
// Retry-After hint when one was given: exponential with full jitter,
// capped.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := time.Duration(float64(c.cfg.BaseBackoff) * math.Pow(2, float64(attempt)))
	if d > maxBackoff {
		d = maxBackoff
	}
	// Full jitter: uniform in (0, d]. Decorrelates a fleet of clients that
	// all saw the same 429.
	c.jitterMu.Lock()
	d = time.Duration(c.rng.Int63n(int64(d))) + 1
	c.jitterMu.Unlock()
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// post runs one POST with the retry loop; ok bodies decode into out.
func (c *Client) post(ctx context.Context, path string, body, out interface{}) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return c.do(ctx, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.BaseURL+path, bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	}, retryable, out)
}

// get runs one GET through the same backoff/Retry-After machinery as post,
// so a single transient transport flake doesn't fail a healthz/buildinfo
// poll (which a heartbeat loop would escalate into a missed beat).
func (c *Client) get(ctx context.Context, path string, out interface{}) error {
	return c.do(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.cfg.BaseURL+path, nil)
	}, retryableGet, out)
}

// do is the shared retry loop: mkReq builds a fresh request per attempt,
// retryStatus decides which HTTP statuses are worth another one (transport
// errors always are), and ok bodies decode into out. Bodies are drained
// before Close on every path so the connection returns to the keep-alive
// pool.
func (c *Client) do(ctx context.Context, mkReq func() (*http.Request, error), retryStatus func(int) bool, out interface{}) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := mkReq()
		if err != nil {
			return err
		}
		resp, err := c.http.Do(req)
		var retryAfter time.Duration
		if err == nil {
			if resp.StatusCode < 300 {
				err = json.NewDecoder(resp.Body).Decode(out)
				drainClose(resp.Body)
				return err
			}
			apiErr := decodeError(resp)
			drainClose(resp.Body)
			if !retryStatus(resp.StatusCode) {
				return apiErr
			}
			lastErr = apiErr
			retryAfter = retryAfterOf(resp, apiErr)
		} else {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = err // transport error: always retryable
		}
		if attempt >= c.cfg.MaxRetries {
			return fmt.Errorf("client: giving up after %d attempts: %w", attempt+1, lastErr)
		}
		if err := c.sleep(ctx, c.backoff(attempt, retryAfter)); err != nil {
			return err
		}
	}
}

func decodeError(resp *http.Response) *APIError {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	apiErr := &APIError{Status: resp.StatusCode}
	if err := json.Unmarshal(body, &apiErr.Resp); err != nil || apiErr.Resp.Error == "" {
		apiErr.Resp.Error = strings.TrimSpace(string(body))
	}
	return apiErr
}

func retryAfterOf(resp *http.Response, apiErr *APIError) time.Duration {
	if apiErr != nil && apiErr.Resp.RetryAfterMs > 0 {
		return time.Duration(apiErr.Resp.RetryAfterMs) * time.Millisecond
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if d, ok := parseRetryAfter(s, time.Now()); ok {
			return d
		}
	}
	return 0
}

// parseRetryAfter interprets a Retry-After header value per RFC 9110
// §10.2.3: either a non-negative decimal delta in seconds, or an HTTP-date
// (RFC 1123, RFC 850, or ANSI C asctime — http.ParseTime tries all three).
// Negative deltas and dates already in the past clamp to zero (retry now);
// an unparseable value reports !ok so the caller falls back to its own
// backoff schedule.
func parseRetryAfter(s string, now time.Time) (time.Duration, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(s); err == nil {
		if secs < 0 {
			return 0, true
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(s); err == nil {
		d := t.Sub(now)
		if d < 0 {
			return 0, true
		}
		return d, true
	}
	return 0, false
}

// Run executes one program. A request without an ID is assigned one before
// the first attempt, so every retry resubmits the same ID. The server's memo
// answers a retry of a program that already ran (cached:true); with the
// memo disabled the retry re-executes deterministically.
func (c *Client) Run(ctx context.Context, req server.RunRequest) (server.RunResult, error) {
	if req.ID == "" {
		req.ID = NewRequestID()
	}
	var out server.RunResult
	err := c.post(ctx, "/v1/run", &req, &out)
	return out, err
}

// Batch executes a program list, returning results in input order after
// verifying the stream's schema header. The server streams NDJSON; this
// collects it (load generation reads the stream incrementally instead).
func (c *Client) Batch(ctx context.Context, req server.BatchRequest) ([]server.RunResult, error) {
	if req.ID == "" {
		req.ID = NewRequestID()
	}
	payload, err := json.Marshal(&req)
	if err != nil {
		return nil, err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.BaseURL+"/v1/batch", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(httpReq)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode >= 300 {
		return nil, decodeError(resp)
	}
	return ReadResults(resp.Body)
}

// ReadResults reads a /v1/batch NDJSON stream: it checks the versioned
// header line, then returns every result line in stream order, failing if
// the stream ends before the header's count.
func ReadResults(r io.Reader) ([]server.RunResult, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 8<<20)
	if !sc.Scan() {
		return nil, errors.New("client: empty batch response")
	}
	var hdr server.ResultsHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("client: bad results header: %w", err)
	}
	if hdr.Schema != server.ResultsSchema || hdr.Version != server.ResultsSchemaVersion {
		return nil, fmt.Errorf("client: results schema %q v%d, want %q v%d",
			hdr.Schema, hdr.Version, server.ResultsSchema, server.ResultsSchemaVersion)
	}
	results := make([]server.RunResult, 0, hdr.Count)
	for sc.Scan() {
		var r server.RunResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("client: bad result line: %w", err)
		}
		results = append(results, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(results) != hdr.Count {
		return nil, fmt.Errorf("client: stream truncated: %d results, header said %d", len(results), hdr.Count)
	}
	return results, nil
}

// Assemble assembles source remotely; assembler diagnostics come back as an
// *APIError with Lines populated, and the opt-in lint report on the
// response.
func (c *Client) Assemble(ctx context.Context, req server.AssembleRequest) (server.AssembleResponse, error) {
	var out server.AssembleResponse
	err := c.post(ctx, "/v1/assemble", &req, &out)
	return out, err
}

// ClusterHealth fetches /v1/healthz. It decodes the coordinator's superset
// shape: against a plain worker Nodes is empty and the embedded Health is
// the worker's, so callers use it for either and branch on len(Nodes) to
// detect a coordinator. A draining worker or a degraded cluster answers
// 503 with a body, surfaced as (*APIError, zero value).
func (c *Client) ClusterHealth(ctx context.Context) (server.ClusterHealth, error) {
	var out server.ClusterHealth
	err := c.get(ctx, "/v1/healthz", &out)
	return out, err
}

// ClusterBuildInfo fetches /v1/buildinfo: a worker's BuildInfo, with
// per-node rows when the far side is a coordinator (empty Nodes against a
// plain worker).
func (c *Client) ClusterBuildInfo(ctx context.Context) (server.ClusterBuildInfo, error) {
	var out server.ClusterBuildInfo
	err := c.get(ctx, "/v1/buildinfo", &out)
	return out, err
}

// NewRequestID mints a random request ID ("cli-<16 hex>").
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("cli-%d", time.Now().UnixNano())
	}
	return fmt.Sprintf("cli-%016x", binary.BigEndian.Uint64(b[:]))
}
