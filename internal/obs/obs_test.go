package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryAndHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{1})
	v := r.CounterVec("v", "", "k", []string{"a"})
	r.GaugeFunc("f", "", func() float64 { return 1 })
	if c != nil || g != nil || h != nil || v != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	// None of these may panic, and all reads must be zero.
	c.Inc()
	c.Add(3)
	g.Set(5)
	g.Add(-2)
	h.Observe(0.5)
	v.At(0).Inc()
	v.At(99).Add(7)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 ||
		v.Total() != 0 || v.Len() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if sb.Len() != 0 || r.Snapshot() != nil {
		t.Fatal("nil registry must export nothing")
	}
}

func TestCounterGaugeHistogramVec(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
	h := r.Histogram("lat", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("histogram count = %d, want 4", h.Count())
	}
	if got, want := h.Sum(), 5.555; got != want {
		t.Fatalf("histogram sum = %g, want %g", got, want)
	}
	v := r.CounterVec("ops", "per-op", "op", []string{"add", "mul"})
	v.At(0).Add(2)
	v.At(1).Inc()
	v.At(7).Inc() // out of range: ignored
	if v.Total() != 3 || v.At(0).Value() != 2 || v.At(1).Value() != 1 {
		t.Fatalf("vec values: total=%d at0=%d at1=%d", v.Total(), v.At(0).Value(), v.At(1).Value())
	}
}

func TestRegistryDedupAndTypeClash(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x", "")
	b := r.Counter("x", "")
	if a != b {
		t.Fatal("same-name same-type registration must return the existing handle")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a name as a different type must panic")
		}
	}()
	r.Gauge("x", "")
}

// promLine matches one sample line of the text exposition format.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? ` +
		`(-?[0-9.eE+-]+|\+Inf|-Inf|NaN)$`)

// checkPrometheusText validates every line of a text exposition dump: each
// is a HELP comment, a TYPE comment with a known type, or a sample line.
func checkPrometheusText(t *testing.T, text string) (samples int) {
	t.Helper()
	typed := map[string]string{}
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 || (f[3] != "counter" && f[3] != "gauge" && f[3] != "histogram") {
				t.Fatalf("line %d: bad TYPE line %q", ln+1, line)
			}
			typed[f[2]] = f[3]
		default:
			if !promLine.MatchString(line) {
				t.Fatalf("line %d: unparseable sample %q", ln+1, line)
			}
			samples++
		}
	}
	if len(typed) == 0 {
		t.Fatal("no TYPE lines in exposition")
	}
	return samples
}

func TestWritePrometheusParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a counter").Add(3)
	r.Gauge("b", "a gauge").Set(-2)
	r.GaugeFunc("c", "a gauge func", func() float64 { return 1.5 })
	h := r.Histogram("d_seconds", "a histogram", []float64{0.001, 0.1})
	h.Observe(0.0005)
	h.Observe(3)
	v := r.CounterVec("e_total", "a vec", "op", []string{"add", `quo"te`})
	v.At(0).Inc()
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if n := checkPrometheusText(t, sb.String()); n < 9 {
		t.Fatalf("expected >= 9 sample lines, got %d:\n%s", n, sb.String())
	}
	// Histogram buckets must be cumulative and end at +Inf == count.
	out := sb.String()
	for _, want := range []string{
		`d_seconds_bucket{le="0.001"} 1`,
		`d_seconds_bucket{le="0.1"} 1`,
		`d_seconds_bucket{le="+Inf"} 2`,
		`d_seconds_count 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n", "")
	v := r.CounterVec("vec", "", "k", []string{"a", "b"})
	h := r.Histogram("h", "", []float64{1, 10})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				v.At(w % 2).Inc()
				h.Observe(float64(i % 20))
			}
		}(w)
	}
	// Concurrent scrapes must be safe too.
	for i := 0; i < 10; i++ {
		r.WritePrometheus(io.Discard)
	}
	wg.Wait()
	if c.Value() != 8000 || v.Total() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: c=%d vec=%d h=%d", c.Value(), v.Total(), h.Count())
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total", "").Add(42)
	srv, addr, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/metrics", "/debug/vars"} {
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if path == "/metrics" {
			if !strings.Contains(string(body), "served_total 42") {
				t.Fatalf("metrics body missing counter:\n%s", body)
			}
			checkPrometheusText(t, string(body))
		}
	}
}

func TestCounterSet(t *testing.T) {
	r := NewRegistry()
	cs := r.CounterSet("node_routed_total", "requests routed per node", "node")
	cs.With("n1").Inc()
	cs.With("n1").Add(2)
	cs.With("n2").Inc()
	if got := cs.With("n1").Value(); got != 3 {
		t.Fatalf("n1 = %d, want 3", got)
	}
	if got := cs.Total(); got != 4 {
		t.Fatalf("total = %d, want 4", got)
	}
	if vals := cs.Values(); len(vals) != 2 || vals[0] != "n1" || vals[1] != "n2" {
		t.Fatalf("values = %v", vals)
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE node_routed_total counter",
		`node_routed_total{node="n1"} 3`,
		`node_routed_total{node="n2"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	snap := r.Snapshot()
	if snap[`node_routed_total{node="n1"}`] != uint64(3) {
		t.Fatalf("snapshot = %v", snap)
	}

	// Nil-safety, like every other handle.
	var nilSet *CounterSet
	nilSet.With("x").Inc()
	if nilSet.Total() != 0 || nilSet.Values() != nil {
		t.Fatal("nil CounterSet must be a no-op")
	}
	var nilReg *Registry
	if nilReg.CounterSet("x", "", "k") != nil {
		t.Fatal("nil registry must hand out nil CounterSet")
	}
}

// failWriter refuses every write, like a full disk.
type failWriter struct{}

var errFull = errors.New("no space left on device")

func (failWriter) Write([]byte) (int, error) { return 0, errFull }

func TestWriteErrorsReported(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a counter").Inc()
	if err := r.WritePrometheus(failWriter{}); !errors.Is(err, errFull) {
		t.Fatalf("WritePrometheus to a failing writer: %v, want %v", err, errFull)
	}
	path := filepath.Join(t.TempDir(), "m.prom")
	if err := WriteFile(path, func(io.Writer) error { return r.WritePrometheus(failWriter{}) }); !errors.Is(err, errFull) {
		t.Fatalf("WriteFile with a failing write: %v, want %v", err, errFull)
	}
	if err := WriteFile(filepath.Join(path, "no-such-dir", "m.prom"), r.WritePrometheus); err == nil {
		t.Fatal("WriteFile under a missing directory reported no error")
	}
	if err := WriteFile(path, r.WritePrometheus); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || !strings.Contains(string(b), "a_total 1") {
		t.Fatalf("written file %q, %v", b, err)
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		if err := WriteFile("/dev/full", r.WritePrometheus); err == nil {
			t.Fatal("WriteFile to /dev/full reported no error")
		}
	}
}

// TestDebugVarsPerHandler: two handlers over two registries each show
// their own registry at /debug/vars, beside the process's expvar variables.
func TestDebugVarsPerHandler(t *testing.T) {
	ra, rb := NewRegistry(), NewRegistry()
	ra.Counter("only_a_total", "").Add(1)
	rb.Counter("only_b_total", "").Add(2)
	for _, tc := range []struct {
		r          *Registry
		own, other string
	}{{ra, "only_a_total", "only_b_total"}, {rb, "only_b_total", "only_a_total"}} {
		rec := httptest.NewRecorder()
		Handler(tc.r).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
		var page struct {
			Memstats json.RawMessage        `json:"memstats"`
			Metrics  map[string]interface{} `json:"tangled_metrics"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatalf("/debug/vars body: %v\n%s", err, rec.Body.Bytes())
		}
		if page.Memstats == nil {
			t.Fatalf("/debug/vars lost the process expvar variables:\n%s", rec.Body.Bytes())
		}
		if _, ok := page.Metrics[tc.own]; !ok {
			t.Fatalf("/debug/vars lacks its own %s: %v", tc.own, page.Metrics)
		}
		if _, ok := page.Metrics[tc.other]; ok {
			t.Fatalf("/debug/vars shows the other registry's %s: %v", tc.other, page.Metrics)
		}
	}
}
