package server

// The optimizing recompiler (internal/opt) is an offline tool behind
// qatlint -optimize, not part of the serving API: POST /v1/assemble has no
// optimize field, and the strict decoder refuses a body that still sends
// one instead of silently returning the unoptimized image.

import (
	"net/http"
	"strings"
	"testing"
)

func TestAssembleOptimizeFieldRejected(t *testing.T) {
	_, base := startTestServer(t, Config{})
	resp := postJSON(t, base+"/v1/assemble", map[string]any{"src": sloppySrc, "optimize": true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 for the retired optimize field", resp.StatusCode)
	}
	var er ErrorResponse
	decodeInto(t, resp, &er)
	if !strings.Contains(er.Error, "optimize") {
		t.Fatalf("error %q does not name the unknown field", er.Error)
	}
}
