// Package obs is the observability spine of the simulator stack: a
// zero-dependency, allocation-conscious metrics registry (counters, gauges,
// fixed-bucket histograms) plus a bounded cycle-trace ring buffer with JSONL
// export (trace.go) and an HTTP face exposing Prometheus text, expvar and
// pprof (http.go).
//
// The design follows the same philosophy as hardware performance counters:
// instrumentation points are compiled into the machine models (cpu, qat,
// pipeline, farm) but cost one nil check when disabled. Every metric handle
// (*Counter, *Gauge, *Histogram, *CounterVec) is safe to use with a nil
// receiver, and a nil *Registry hands out nil handles, so the idiomatic
// wiring is
//
//	met := cpu.NewMetrics(reg) // reg == nil -> met == nil -> all no-ops
//
// and the hot path stays clean unless an operator opts in (qatfarm/
// tangled-run -metrics).
//
// Handles are updated with atomics and registries are mutex-guarded, so one
// registry may be shared by every worker of a farm batch: per-opcode counts
// aggregate across pooled machines exactly because the handles are shared.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric. The zero value is
// usable; all methods are nil-receiver safe no-ops.
type Counter struct {
	name, help string
	n          atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.n.Add(1)
	}
}

// Add adds delta.
func (c *Counter) Add(delta uint64) {
	if c != nil {
		c.n.Add(delta)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a settable int64 metric (queue depths, in-flight jobs). All
// methods are nil-receiver safe.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta (negative to decrement).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram: bucket upper bounds are chosen at
// registration (an implicit +Inf bucket is appended) and observations are
// recorded with atomics, so concurrent Observe calls never allocate.
type Histogram struct {
	name, help string
	bounds     []float64 // sorted upper bounds, exclusive of +Inf
	counts     []atomic.Uint64
	count      atomic.Uint64
	sumBits    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// CounterVec is a dense family of counters over one label with a fixed,
// registration-time value set — sized for per-opcode or per-stage counting,
// where the index is already a small integer and a map lookup per event
// would dominate the cost of the event itself.
type CounterVec struct {
	name, help, label string
	values            []string
	counters          []Counter
}

// At returns the counter for label-value index i. Out-of-range indices and
// nil vecs return nil, which is safe to use.
func (v *CounterVec) At(i int) *Counter {
	if v == nil || i < 0 || i >= len(v.counters) {
		return nil
	}
	return &v.counters[i]
}

// Len returns the number of label values (0 for nil).
func (v *CounterVec) Len() int {
	if v == nil {
		return 0
	}
	return len(v.counters)
}

// Total sums the whole family.
func (v *CounterVec) Total() uint64 {
	if v == nil {
		return 0
	}
	var n uint64
	for i := range v.counters {
		n += v.counters[i].Value()
	}
	return n
}

// GaugeVec is a gauge family over one label with a dynamic value set:
// children are created on first use (With), unlike CounterVec's fixed
// registration-time values. Built for per-tenant gauges, where the label
// population (tenant names) is only known at serving time. Children are
// never removed; a serving layer's tenant set is assumed to be bounded by
// its own admission policy.
type GaugeVec struct {
	name, help, label string
	mu                sync.Mutex
	gauges            map[string]*Gauge
}

// With returns the child gauge for the label value, creating it on first
// use. Nil vecs return nil, which every Gauge method accepts.
func (v *GaugeVec) With(value string) *Gauge {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	g, ok := v.gauges[value]
	if !ok {
		g = &Gauge{name: v.name}
		v.gauges[value] = g
	}
	return g
}

// Values returns the current label values, sorted (empty for nil).
func (v *GaugeVec) Values() []string {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	vals := make([]string, 0, len(v.gauges))
	for k := range v.gauges {
		vals = append(vals, k)
	}
	sort.Strings(vals)
	return vals
}

// CounterSet is a counter family over one label with a dynamic value set —
// the counter analog of GaugeVec, for populations only known at serving
// time (cluster node IDs, tenant names). Children are created on first use
// and never removed; the label population is assumed bounded by the owning
// layer (a cluster's node set, an admission policy's tenant set).
type CounterSet struct {
	name, help, label string
	mu                sync.Mutex
	counters          map[string]*Counter
}

// With returns the child counter for the label value, creating it on first
// use. Nil sets return nil, which every Counter method accepts.
func (v *CounterSet) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.counters[value]
	if !ok {
		c = &Counter{name: v.name}
		v.counters[value] = c
	}
	return c
}

// Values returns the current label values, sorted (empty for nil).
func (v *CounterSet) Values() []string {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	vals := make([]string, 0, len(v.counters))
	for k := range v.counters {
		vals = append(vals, k)
	}
	sort.Strings(vals)
	return vals
}

// Total sums the whole family (0 for nil).
func (v *CounterSet) Total() uint64 {
	if v == nil {
		return 0
	}
	var n uint64
	for _, val := range v.Values() {
		n += v.With(val).Value()
	}
	return n
}

// gaugeFunc is a scrape-time gauge: the function is called during export.
type gaugeFunc struct {
	name, help string
	fn         func() float64
}

// metric is anything the registry can export.
type metric interface {
	metricName() string
	metricType() string
	write(w io.Writer)
}

// Registry holds named metrics and renders them in Prometheus text format.
// A nil *Registry is valid and hands out nil (no-op) handles, which is how
// instrumentation is disabled.
type Registry struct {
	mu      sync.Mutex
	ordered []metric
	byName  map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]metric)}
}

// add registers m under its name, or returns the existing metric when one
// with the same name and concrete type is already present (so layered
// wiring is idempotent). Re-registering a name as a different type panics:
// that is a programming error, like a duplicate flag.
func (r *Registry) add(m metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byName[m.metricName()]; ok {
		if fmt.Sprintf("%T", old) != fmt.Sprintf("%T", m) {
			panic("obs: metric " + m.metricName() + " re-registered as a different type")
		}
		return old
	}
	r.byName[m.metricName()] = m
	r.ordered = append(r.ordered, m)
	return m
}

// Counter registers (or fetches) a counter. Nil registries return nil.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.add(&Counter{name: name, help: help}).(*Counter)
}

// Gauge registers (or fetches) a gauge. Nil registries return nil.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.add(&Gauge{name: name, help: help}).(*Gauge)
}

// GaugeFunc registers a scrape-time gauge computed by fn. Nil registries
// ignore the call.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.add(&gaugeFunc{name: name, help: help, fn: fn})
}

// Histogram registers (or fetches) a histogram with the given upper bucket
// bounds (sorted ascending; +Inf is implicit). Nil registries return nil.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	h := &Histogram{name: name, help: help, bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	return r.add(h).(*Histogram)
}

// GaugeVec registers (or fetches) a dynamic-label gauge family. Nil
// registries return nil.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	if r == nil {
		return nil
	}
	v := &GaugeVec{name: name, help: help, label: label, gauges: make(map[string]*Gauge)}
	return r.add(v).(*GaugeVec)
}

// CounterVec registers (or fetches) a counter family over one label with the
// given fixed value set. Nil registries return nil.
func (r *Registry) CounterVec(name, help, label string, values []string) *CounterVec {
	if r == nil {
		return nil
	}
	v := &CounterVec{name: name, help: help, label: label,
		values: append([]string(nil), values...), counters: make([]Counter, len(values))}
	return r.add(v).(*CounterVec)
}

// CounterSet registers (or fetches) a dynamic-label counter family. Nil
// registries return nil.
func (r *Registry) CounterSet(name, help, label string) *CounterSet {
	if r == nil {
		return nil
	}
	v := &CounterSet{name: name, help: help, label: label, counters: make(map[string]*Counter)}
	return r.add(v).(*CounterSet)
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4), in registration order, and returns
// the first write error.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ms := append([]metric(nil), r.ordered...)
	r.mu.Unlock()
	// A bufio.Writer keeps its first error and refuses every later write,
	// so the metric writers need no error plumbing of their own.
	bw := bufio.NewWriter(w)
	for _, m := range ms {
		fmt.Fprintf(bw, "# HELP %s %s\n", m.metricName(), escapeHelp(helpOf(m)))
		fmt.Fprintf(bw, "# TYPE %s %s\n", m.metricName(), m.metricType())
		m.write(bw)
	}
	return bw.Flush()
}

// WriteFile runs write on the file at path ("-" means stdout) and reports
// the first create, write or close error: the one way the CLIs export
// metrics (Registry.WritePrometheus) and traces (TraceRing.WriteJSONL).
func WriteFile(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Snapshot returns a name -> value map of every metric, for expvar export.
// Vectors flatten to name{label="value"} keys; histograms to _count/_sum.
func (r *Registry) Snapshot() map[string]interface{} {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ms := append([]metric(nil), r.ordered...)
	r.mu.Unlock()
	out := make(map[string]interface{})
	for _, m := range ms {
		switch m := m.(type) {
		case *Counter:
			out[m.name] = m.Value()
		case *Gauge:
			out[m.name] = m.Value()
		case *gaugeFunc:
			out[m.name] = m.fn()
		case *Histogram:
			out[m.name+"_count"] = m.Count()
			out[m.name+"_sum"] = m.Sum()
		case *CounterVec:
			for i, v := range m.values {
				out[m.name+"{"+m.label+"="+strconv.Quote(v)+"}"] = m.counters[i].Value()
			}
		case *GaugeVec:
			for _, v := range m.Values() {
				out[m.name+"{"+m.label+"="+strconv.Quote(v)+"}"] = m.With(v).Value()
			}
		case *CounterSet:
			for _, v := range m.Values() {
				out[m.name+"{"+m.label+"="+strconv.Quote(v)+"}"] = m.With(v).Value()
			}
		}
	}
	return out
}

func helpOf(m metric) string {
	switch m := m.(type) {
	case *Counter:
		return m.help
	case *Gauge:
		return m.help
	case *gaugeFunc:
		return m.help
	case *Histogram:
		return m.help
	case *CounterVec:
		return m.help
	case *GaugeVec:
		return m.help
	case *CounterSet:
		return m.help
	}
	return ""
}

func (c *Counter) metricName() string { return c.name }
func (c *Counter) metricType() string { return "counter" }
func (c *Counter) write(w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", c.name, c.Value())
}

func (g *Gauge) metricName() string { return g.name }
func (g *Gauge) metricType() string { return "gauge" }
func (g *Gauge) write(w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", g.name, g.Value())
}

func (f *gaugeFunc) metricName() string { return f.name }
func (f *gaugeFunc) metricType() string { return "gauge" }
func (f *gaugeFunc) write(w io.Writer) {
	fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(f.fn()))
}

func (h *Histogram) metricName() string { return h.name }
func (h *Histogram) metricType() string { return "histogram" }
func (h *Histogram) write(w io.Writer) {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, formatFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", h.name, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count %d\n", h.name, h.Count())
}

func (v *CounterVec) metricName() string { return v.name }
func (v *CounterVec) metricType() string { return "counter" }
func (v *CounterVec) write(w io.Writer) {
	for i, val := range v.values {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", v.name, v.label, escapeLabel(val), v.counters[i].Value())
	}
}

func (v *GaugeVec) metricName() string { return v.name }
func (v *GaugeVec) metricType() string { return "gauge" }
func (v *GaugeVec) write(w io.Writer) {
	for _, val := range v.Values() {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", v.name, v.label, escapeLabel(val), v.With(val).Value())
	}
}

func (v *CounterSet) metricName() string { return v.name }
func (v *CounterSet) metricType() string { return "counter" }
func (v *CounterSet) write(w io.Writer) {
	for _, val := range v.Values() {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", v.name, v.label, escapeLabel(val), v.With(val).Value())
	}
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format; %q in the
// writers above adds the surrounding quotes and escapes quotes/backslashes,
// so this only normalizes newlines (which %q would render as \n already —
// kept for values built outside the writers).
func escapeLabel(s string) string {
	return strings.NewReplacer("\n", " ").Replace(s)
}

func escapeHelp(s string) string {
	return strings.NewReplacer("\\", `\\`, "\n", `\n`).Replace(s)
}
