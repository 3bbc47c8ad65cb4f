package server

// Serving-layer observability: request counters by route and by status,
// queue-depth/in-flight gauges, end-to-end latency histograms, and the
// coalescer's batch-size distribution — layered on the same registry as the
// farm/cpu/qat/pipeline counter sets, so one /metrics scrape shows the
// whole stack from HTTP ingress down to per-opcode retire counts. As
// everywhere else, a nil registry hands out nil handles and the serving hot
// path pays one nil check.

import (
	"strconv"

	"tangled/internal/obs"
)

// routes label the per-route request counter; "other" collects 404 traffic.
var routeLabels = []string{"run", "batch", "assemble", "healthz", "buildinfo", "jobs", "events", "other"}

const (
	routeRun = iota
	routeBatch
	routeAssemble
	routeHealthz
	routeBuildinfo
	routeJobs
	routeEvents
	routeOther
)

// statusLabels are the statuses the server can produce; unexpected codes
// fold onto their class ("2xx".."5xx" would lose 429 vs 400, so the known
// set is explicit).
var statusLabels = []string{"200", "202", "400", "404", "405", "409", "413", "422", "429", "499", "500", "503", "504"}

// requestLatencyBuckets span HTTP round-trips from sub-millisecond cached
// replies to multi-second deep batches.
var requestLatencyBuckets = []float64{
	1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30,
}

// batchSizeBuckets span the coalescer's output: 1 means the window closed
// with a lone request, larger values are amortization wins.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// serverObs is the serving-layer metric set; nil when metrics are off.
type serverObs struct {
	requests  *obs.CounterVec // by route
	responses *obs.CounterVec // by status

	queueDepth *obs.Gauge // admitted jobs not yet finished
	inFlight   *obs.Gauge // HTTP requests currently being served

	latency   *obs.Histogram // end-to-end request seconds
	batchSize *obs.Histogram // jobs per coalesced farm batch

	rejected429 *obs.Counter // admissions refused for a full queue
	lintRejects *obs.Counter // programs refused by strict lint before admission

	// autoPlanned counts "auto" requests the static planner resolved to a
	// concrete backend; unservable those it refused with 422 because the
	// requested width exceeds every backend.
	autoPlanned *obs.Counter
	unservable  *obs.Counter
}

// newServerObs registers the serving metric set on r. A nil registry yields
// a set of nil handles, which every obs method accepts as a no-op — the
// same off-by-default contract as the machine-level instrumentation.
func newServerObs(r *obs.Registry) *serverObs {
	if r == nil {
		return &serverObs{}
	}
	return &serverObs{
		requests: r.CounterVec("server_requests_total",
			"HTTP requests received, by route", "route", routeLabels),
		responses: r.CounterVec("server_responses_total",
			"HTTP responses sent, by status", "status", statusLabels),
		queueDepth: r.Gauge("server_queue_depth",
			"admitted jobs not yet finished (the admission-control gauge)"),
		inFlight: r.Gauge("server_inflight_requests",
			"HTTP requests currently being served"),
		latency: r.Histogram("server_request_seconds",
			"end-to-end request latency", requestLatencyBuckets),
		batchSize: r.Histogram("server_coalesced_batch_jobs",
			"jobs per farm batch formed by the dynamic coalescer", batchSizeBuckets),
		rejected429: r.Counter("server_admission_rejects_total",
			"requests refused with 429 because the queue was full"),
		lintRejects: r.Counter("server_lint_rejects_total",
			"programs refused with 422 by strict lint before admission"),
		autoPlanned: r.Counter("server_backend_auto_planned_total",
			"\"auto\" requests the static planner resolved to a concrete backend"),
		unservable: r.Counter("server_backend_unservable_total",
			"\"auto\" requests refused with 422: width exceeds every backend"),
	}
}

// observeStatus counts a response status; unknown codes land on "500".
func (so *serverObs) observeStatus(code int) {
	s := strconv.Itoa(code)
	for i, l := range statusLabels {
		if l == s {
			so.responses.At(i).Inc()
			return
		}
	}
	so.responses.At(statusFallback).Inc()
}

// statusFallback indexes "500" in statusLabels.
var statusFallback = func() int {
	for i, l := range statusLabels {
		if l == "500" {
			return i
		}
	}
	panic("statusLabels lacks 500")
}()
