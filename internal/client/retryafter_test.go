package client

// Regression tests for Retry-After parsing. The original implementation
// accepted only the delta-seconds form; RFC 9110 §10.2.3 also allows an
// HTTP-date, which real proxies and load balancers emit. A date-form header
// used to be silently ignored, collapsing the server's hint into the
// client's own (much shorter) backoff schedule.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseRetryAfter(t *testing.T) {
	// A fixed "now" keeps the date-form cases deterministic.
	now := time.Date(2026, time.August, 5, 12, 0, 0, 0, time.UTC)

	cases := []struct {
		name string
		in   string
		want time.Duration
		ok   bool
	}{
		{"delta seconds", "120", 120 * time.Second, true},
		{"delta zero", "0", 0, true},
		{"delta with whitespace", "  7 ", 7 * time.Second, true},
		{"negative delta clamps", "-30", 0, true},
		{"rfc1123 future", now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second, true},
		{"rfc1123 past clamps", now.Add(-time.Hour).Format(http.TimeFormat), 0, true},
		{"rfc850 future", now.Add(2 * time.Minute).Format("Monday, 02-Jan-06 15:04:05 GMT"), 2 * time.Minute, true},
		{"ansi c future", now.Add(45 * time.Second).Format(time.ANSIC), 45 * time.Second, true},
		{"empty", "", 0, false},
		{"blank", "   ", 0, false},
		{"garbage", "soon", 0, false},
		{"fractional seconds rejected", "1.5", 0, false},
		{"malformed date", "Tue, 99 Zed 2026 12:00:00 GMT", 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := parseRetryAfter(tc.in, now)
			if ok != tc.ok || got != tc.want {
				t.Fatalf("parseRetryAfter(%q) = (%v, %v), want (%v, %v)", tc.in, got, ok, tc.want, tc.ok)
			}
		})
	}
}

// TestRetryAfterHTTPDateHonored drives the full retry loop against a server
// that backpressures with a date-form Retry-After and checks the computed
// sleep respects it — the end-to-end shape of the original bug.
func TestRetryAfterHTTPDateHonored(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", time.Now().Add(30*time.Second).UTC().Format(http.TimeFormat))
			http.Error(w, `{"error":"busy"}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	c := NewWith(Config{BaseURL: srv.URL, BaseBackoff: time.Millisecond})
	var slept time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) error {
		slept = d
		return nil
	}
	var out struct{}
	if err := c.post(t.Context(), "/v1/run", struct{}{}, &out); err != nil {
		t.Fatalf("post: %v", err)
	}
	// The hint said ~30s; allow slack for wall clock elapsed between the
	// server stamping the date and the client parsing it, but it must be far
	// above the 1ms backoff that would apply if the header were dropped.
	if slept < 20*time.Second {
		t.Fatalf("slept %v; date-form Retry-After hint was ignored", slept)
	}
}
