package server

// Wire types of the JSON/NDJSON serving API, shared with internal/client.
// The schema is versioned the same way the cycle-trace stream is: batch
// responses open with a header record naming ResultsSchema and
// ResultsSchemaVersion, and both sides reject a mismatch.

import (
	"fmt"
	"time"

	"tangled/internal/aob"
	"tangled/internal/backend"
	"tangled/internal/farm"
	"tangled/internal/lint"
	"tangled/internal/opt"
	"tangled/internal/pipeline"
	"tangled/internal/qasm"
	"tangled/internal/qat"
)

// ResultsSchema names the NDJSON result stream written by POST /v1/batch.
const ResultsSchema = "tangled-run-results"

// ResultsSchemaVersion is bumped whenever a RunResult field changes
// meaning; README.md ("Serving") records the schema.
const ResultsSchemaVersion = 1

// RunRequest is one program submission: the body of POST /v1/run and one
// element of BatchRequest.Programs. Exactly one of Src (Tangled/Qat
// assembly) or Words (a pre-assembled word image, the hex-file form) must
// be set.
type RunRequest struct {
	// ID is the caller's request ID for this program; the server
	// generates one when empty. It labels the result only: no cache is
	// keyed by it, so a retry is answered by the execution cache. It comes back in RunResult.ID, in the
	// X-Request-ID response header, and as the req field of cycle-trace
	// rows the run contributes.
	ID string `json:"id,omitempty"`

	// Src is Tangled/Qat assembly source.
	Src string `json:"src,omitempty"`
	// Words is a pre-assembled word image loaded at address 0 — the
	// word-level submission path, equivalent to a $readmemh hex file.
	Words []uint16 `json:"words,omitempty"`

	// Mode is "functional" (default) or "pipelined".
	Mode string `json:"mode,omitempty"`
	// Ways is the Qat entanglement degree; 0 means the full 16-way
	// hardware.
	Ways int `json:"ways,omitempty"`
	// ConstRegs selects the Section 5 constant-register Qat variant.
	ConstRegs bool `json:"const_regs,omitempty"`
	// Backend selects the Qat register-file representation for functional
	// runs: "" or "dense" is the paper's bit-parallel file, "re" the
	// run-encoded compressed file, which also unlocks Ways beyond the
	// dense wall (up to qat.MaxREWays), and "auto" lets the server's
	// static planner pick from the program's profile (the choice comes
	// back in RunResult.Backend). Pipelined runs are dense-only.
	Backend string `json:"backend,omitempty"`
	// ChunkWays and SpillRuns tune the "re" backend (0 means the backend
	// defaults; negative SpillRuns disables spilling). Rejected for dense
	// and "auto" runs so every accepted request has one canonical
	// spelling (the planner owns the geometry it plans).
	ChunkWays int `json:"chunk_ways,omitempty"`
	SpillRuns int `json:"spill_runs,omitempty"`
	// Stages picks the pipeline organization for pipelined runs (4 or 5;
	// 0 means 5).
	Stages int `json:"stages,omitempty"`

	// MaxSteps bounds retired instructions (functional) or cycles
	// (pipelined); 0 means the server's default budget. The server caps it
	// at its configured ceiling either way.
	MaxSteps uint64 `json:"max_steps,omitempty"`
	// TimeoutMs bounds the program's wall-clock execution in milliseconds;
	// it is combined with the request context's own deadline.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	// ID labels the batch; per-program IDs are derived as "<ID>/<index>"
	// for programs that do not carry their own.
	ID string `json:"id,omitempty"`
	// Programs are executed as one farm batch; results stream back in
	// this order.
	Programs []RunRequest `json:"programs"`
}

// DeriveBatchProgramID names program i of a batch that did not carry its
// own ID. Exported because the cluster coordinator derives the same IDs
// before splitting a batch across nodes, so a failed-over program keeps
// its ID.
func DeriveBatchProgramID(batchID string, i int) string {
	return fmt.Sprintf("%s/%d", batchID, i)
}

// ResultsHeader is the first NDJSON line of a batch response.
type ResultsHeader struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	Count   int    `json:"count"`
}

// RunResult is one program outcome: the body of a /v1/run response and one
// NDJSON line of a /v1/batch response.
type RunResult struct {
	// ID echoes (or supplies) the program's request ID.
	ID string `json:"id,omitempty"`
	// Index is the program's position in its batch (0 for single runs).
	Index int `json:"index"`

	// Regs is the final Tangled register file.
	Regs [16]uint16 `json:"regs"`
	// Output is everything the program printed through sys.
	Output string `json:"output,omitempty"`
	// Insts is the retired instruction count.
	Insts uint64 `json:"insts"`
	// Cycles and Stalls carry the pipeline accounting of pipelined runs.
	Cycles uint64 `json:"cycles,omitempty"`
	Stalls uint64 `json:"stalls,omitempty"`

	// Error is the program's failure, empty on success. Code carries the
	// HTTP-style status of this record: 0/200 ok, 400 bad program, 499
	// cancelled, 504 deadline exceeded, 500 other execution failure. For
	// single runs the HTTP response status matches Code.
	Error string `json:"error,omitempty"`
	Code  int    `json:"code,omitempty"`

	// Cached reports that the result was served from the server's
	// content-addressed execution cache instead of being executed for this
	// request. (Additive field; the schema version is unchanged.)
	Cached bool `json:"cached,omitempty"`

	// Backend is the canonical register file that served a functional run
	// ("dense"/"re"), reporting in particular what a "auto" request
	// resolved to. (Additive field; the schema version is unchanged.)
	Backend string `json:"backend,omitempty"`
}

// JobRequest is the body of POST /v1/jobs: one program submission plus the
// async-queue placement fields. The embedded RunRequest is validated (and
// strict-linted) exactly like a synchronous run before the job is admitted,
// so a 202 means the program will execute.
type JobRequest struct {
	RunRequest
	// Tenant names the fair-queuing principal; empty means "default". Each
	// tenant receives service proportional to its weight under saturation.
	Tenant string `json:"tenant,omitempty"`
	// Priority orders this tenant's own jobs (higher first, ties in submit
	// order); it never preempts other tenants.
	Priority int `json:"priority,omitempty"`
	// Weight sets the tenant's fair-share weight (<= 0 means 1).
	Weight int `json:"weight,omitempty"`
}

// JobStatus is the body of POST/GET/DELETE /v1/jobs responses: the job's
// lifecycle record, with the result attached once terminal.
type JobStatus struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant,omitempty"`
	// State is queued/running/completed/failed/canceled; Reason explains
	// failed and canceled states.
	State  string `json:"state"`
	Reason string `json:"reason,omitempty"`
	// Priority echoes the submission's placement.
	Priority int `json:"priority,omitempty"`
	// Resumed marks a job re-admitted from the WAL after a server restart.
	Resumed bool `json:"resumed,omitempty"`

	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`

	// Result is the program outcome, present on terminal jobs that
	// executed (completed always; failed when execution produced a
	// classified record before erroring).
	Result *RunResult `json:"result,omitempty"`
}

// EventsHeader is the first NDJSON line of a GET /v1/events stream,
// versioned like the batch results header and the cycle-trace stream.
type EventsHeader struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
}

// LineError is one assembler diagnostic in an ErrorResponse.
type LineError struct {
	Line int `json:"line"`
	// Col is the 1-based byte column of the offending token, 0 when the
	// assembler could not attribute the failure to one token.
	Col int    `json:"col,omitempty"`
	Msg string `json:"msg"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Lines carries assembler diagnostics with 1-based source lines when
	// the failure was an assembly error (HTTP 400).
	Lines []LineError `json:"lines,omitempty"`
	// Lint carries the static-analysis findings when a strict-mode server
	// refused the program (HTTP 422) before admission.
	Lint []lint.Diagnostic `json:"lint,omitempty"`
	// Profile carries the static entanglement/cost profile when the auto
	// planner refused the program as unservable (HTTP 422: the requested
	// width exceeds every backend), documenting why.
	Profile *lint.Profile `json:"profile,omitempty"`
	// RetryAfterMs hints when to retry a 429/503; the Retry-After header
	// carries the same figure in whole seconds.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// Health is the body of GET /v1/healthz.
type Health struct {
	// Status is "ok", or "draining" once shutdown has begun (the HTTP
	// status is 503 then, so load balancers stop routing here).
	Status string `json:"status"`
	// QueueDepth is the number of admitted jobs not yet finished and
	// QueueLimit the admission bound that produces 429s.
	QueueDepth int64 `json:"queue_depth"`
	QueueLimit int64 `json:"queue_limit"`
	// InFlight is the number of HTTP requests currently being served.
	InFlight int64 `json:"in_flight"`
	// Workers is the farm's concurrency bound.
	Workers int `json:"workers"`
	// JobsDone counts jobs completed over the server's lifetime.
	JobsDone uint64 `json:"jobs_done"`
	// Draining mirrors Status == "draining" as a boolean, so pollers and
	// routers branch without string comparison.
	Draining bool `json:"draining"`
	// JobsQueued/JobsRunning describe the async job subsystem's queue (both
	// zero when the server runs without one).
	JobsQueued  int `json:"jobs_queued"`
	JobsRunning int `json:"jobs_running"`
	// JobsWALErrors counts the job store's failed log writes, and
	// JobsWALFailed reports a log that could not be repaired: job
	// submissions then get 503 until restart. Sync runs are unaffected.
	JobsWALErrors uint64 `json:"jobs_wal_errors,omitempty"`
	JobsWALFailed bool   `json:"jobs_wal_failed,omitempty"`
}

// BuildInfo is the body of GET /v1/buildinfo.
type BuildInfo struct {
	GoVersion     string `json:"go_version"`
	Module        string `json:"module,omitempty"`
	Revision      string `json:"revision,omitempty"`
	NumCPU        int    `json:"num_cpu"`
	Workers       int    `json:"workers"`
	MaxWays       int    `json:"max_ways"`
	MaxREWays     int    `json:"max_re_ways"`
	MaxSteps      uint64 `json:"max_steps"`
	ResultsSchema string `json:"results_schema"`
	ResultsVer    int    `json:"results_version"`
	TraceSchema   string `json:"trace_schema"`
	TraceVer      int    `json:"trace_version"`
	// Capabilities lists the server's feature set ("jobs", "events",
	// "memo", "opt", "opt-admission", "backend:re", "backend:auto") so
	// clients feature-detect from one probe instead of poking endpoints.
	Capabilities []string `json:"capabilities,omitempty"`
	// Backends lists the registered register-file backends by name
	// (sorted); "auto" is a planner pseudo-backend, advertised through the
	// "backend:auto" capability instead.
	Backends []string `json:"backends,omitempty"`
	// EventsSchema/EventsVer version the /v1/events lifecycle stream,
	// present when the jobs subsystem is enabled.
	EventsSchema string `json:"events_schema,omitempty"`
	EventsVer    int    `json:"events_version,omitempty"`
}

// AssembleRequest is the body of POST /v1/assemble.
type AssembleRequest struct {
	Src string `json:"src"`
	// Lint asks the server to run the static analyzer on the assembled
	// program and attach the report to the response.
	Lint bool `json:"lint,omitempty"`
	// Ways is the entanglement degree the lint energy estimates assume;
	// 0 means the full hardware.
	Ways int `json:"ways,omitempty"`
	// Optimize asks the server to rewrite the program through the
	// optimizing recompiler (internal/opt) and attach the delta report.
	// Programs with error-level lint findings are never rewritten: the
	// report comes back refused with reason "lint-errors".
	Optimize bool `json:"optimize,omitempty"`
}

// AssembleResponse is the success body of POST /v1/assemble.
type AssembleResponse struct {
	// Words is the assembled image, loadable back through
	// RunRequest.Words.
	Words []uint16 `json:"words"`
	// Symbols maps labels to word addresses.
	Symbols map[string]uint16 `json:"symbols,omitempty"`
	// Lint is the static-analysis report, present when the request set
	// Lint.
	Lint *lint.Report `json:"lint,omitempty"`
	// Opt is the optimizer's per-pass delta report, present when the
	// request set Optimize. When Opt.Applied, OptimizedWords carries the
	// rewritten image (loadable through RunRequest.Words exactly like
	// Words); on refusal OptimizedWords is absent and Words is the only
	// artifact, unchanged.
	Opt            *opt.Report `json:"opt,omitempty"`
	OptimizedWords []uint16    `json:"optimized_words,omitempty"`
}

// validate checks a RunRequest and resolves it into a farm job skeleton
// (program assembly happens separately so assembler diagnostics can surface
// with line info).
// Validate checks the request's schema without touching a server: the
// cluster coordinator runs it before deriving a routing key, so requests
// that no worker could accept skip keyed routing.
func (r *RunRequest) Validate() error { return r.validate() }

func (r *RunRequest) validate() error {
	if r.Src == "" && len(r.Words) == 0 {
		return fmt.Errorf("program %q has neither src nor words", r.ID)
	}
	if r.Src != "" && len(r.Words) > 0 {
		return fmt.Errorf("program %q has both src and words", r.ID)
	}
	switch r.Mode {
	case "", "functional", "pipelined":
	default:
		return fmt.Errorf("program %q: mode %q is not \"functional\" or \"pipelined\"", r.ID, r.Mode)
	}
	switch r.Backend {
	case "", qat.BackendDense:
		if r.Ways < 0 || r.Ways > aob.MaxWays {
			return fmt.Errorf("program %q: ways %d out of range [0,%d]", r.ID, r.Ways, aob.MaxWays)
		}
		if r.ChunkWays != 0 || r.SpillRuns != 0 {
			return fmt.Errorf("program %q: chunk_ways/spill_runs apply only to the \"re\" backend", r.ID)
		}
	case qat.BackendRE:
		if r.Mode == "pipelined" {
			return fmt.Errorf("program %q: pipelined runs support only the dense backend", r.ID)
		}
		if r.Ways < 0 || r.Ways > qat.MaxREWays {
			return fmt.Errorf("program %q: ways %d out of range [0,%d] for backend \"re\"", r.ID, r.Ways, qat.MaxREWays)
		}
		ways := r.Ways
		if ways == 0 {
			ways = aob.MaxWays
		}
		if r.ChunkWays < 0 || r.ChunkWays > aob.MaxWays || r.ChunkWays > ways {
			return fmt.Errorf("program %q: chunk_ways %d out of range [0,min(%d,ways)]",
				r.ID, r.ChunkWays, aob.MaxWays)
		}
	case backend.Auto:
		if r.Mode == "pipelined" {
			return fmt.Errorf("program %q: pipelined runs support only the dense backend", r.ID)
		}
		// Widths past every backend pass validation and fail at planning
		// time as a 422 with the profile attached — the planner, not the
		// request schema, owns that verdict.
		if r.Ways < 0 {
			return fmt.Errorf("program %q: negative ways %d", r.ID, r.Ways)
		}
		if r.ChunkWays != 0 || r.SpillRuns != 0 {
			return fmt.Errorf("program %q: chunk_ways/spill_runs apply only to the \"re\" backend", r.ID)
		}
	default:
		return fmt.Errorf("program %q: backend %q is not \"dense\", \"re\", or \"auto\"", r.ID, r.Backend)
	}
	if r.Stages != 0 && r.Stages != 4 && r.Stages != 5 {
		return fmt.Errorf("program %q: stages %d is not 4 or 5", r.ID, r.Stages)
	}
	if r.Stages != 0 && r.Mode != "pipelined" {
		return fmt.Errorf("program %q: stages applies only to pipelined runs", r.ID)
	}
	if r.TimeoutMs < 0 {
		return fmt.Errorf("program %q: negative timeout_ms", r.ID)
	}
	return nil
}

// pipelineConfig builds the pipeline organization a pipelined RunRequest
// asked for, on the paper's default timing.
func (r *RunRequest) pipelineConfig() pipeline.Config {
	cfg := pipeline.DefaultConfig()
	if r.Stages != 0 {
		cfg.Stages = r.Stages
	}
	if r.Ways != 0 {
		cfg.Ways = r.Ways
	}
	cfg.ConstantRegs = r.ConstRegs
	return cfg
}

// maxSteps resolves the request's budget against the server's ceiling.
func (r *RunRequest) maxSteps(cap uint64) uint64 {
	if cap == 0 {
		cap = qasm.MaxSteps
	}
	if r.MaxSteps == 0 || r.MaxSteps > cap {
		return cap
	}
	return r.MaxSteps
}

// resultFrom converts one farm result into its wire form. Execution errors
// are classified into the record's Code.
func resultFrom(fr *farm.Result, id string, index int) RunResult {
	out := RunResult{
		ID:     id,
		Index:  index,
		Regs:   fr.Regs,
		Output: fr.Output,
		Insts:  fr.Insts,
		Cached: fr.Cached,
	}
	out.Backend = fr.Backend
	if fr.Pipe != nil {
		out.Cycles = fr.Pipe.Cycles
		out.Stalls = fr.Pipe.TotalStalls()
	}
	if fr.Err != nil {
		out.Error = fr.Err.Error()
		out.Code = codeForRunError(fr.Err)
	}
	return out
}

// ClusterHealth is the body of GET /v1/healthz served by a cluster
// coordinator: the fleet aggregate in the same top-level fields a single
// server reports (so existing pollers keep working unmodified), plus the
// per-node detail.
type ClusterHealth struct {
	Health
	// NodesHealthy counts nodes currently eligible for routing.
	NodesHealthy int `json:"nodes_healthy"`
	// Nodes describes every registered worker, healthy or not.
	Nodes []NodeHealth `json:"nodes,omitempty"`
}

// NodeHealth is one worker's row in the coordinator's health aggregate.
type NodeHealth struct {
	ID  string `json:"id"`
	URL string `json:"url"`
	// State is "healthy", "draining", "demoted", or "dead".
	State string `json:"state"`
	// MissedBeats counts consecutive failed heartbeat probes.
	MissedBeats int `json:"missed_beats,omitempty"`
	// DemotedMs is the remaining backpressure-demotion window.
	DemotedMs int64 `json:"demoted_ms,omitempty"`
	// InFlight is the coordinator's count of requests on this node.
	InFlight int64 `json:"in_flight"`
	// Routed counts requests this coordinator sent to the node.
	Routed uint64 `json:"routed"`
	// QueueDepth/Workers/JobsDone echo the node's last health report.
	QueueDepth int64  `json:"queue_depth"`
	Workers    int    `json:"workers"`
	JobsDone   uint64 `json:"jobs_done"`
}

// ClusterBuildInfo is the body of GET /v1/buildinfo served by a cluster
// coordinator: fleet-wide conservative aggregates (minimum ceilings,
// capability intersection) in the single-server fields, plus per-node
// detail.
type ClusterBuildInfo struct {
	BuildInfo
	Nodes []NodeBuildInfo `json:"nodes,omitempty"`
}

// NodeBuildInfo is one worker's buildinfo row; Err is set (and Info zero)
// when the node could not be probed.
type NodeBuildInfo struct {
	ID   string    `json:"id"`
	URL  string    `json:"url"`
	Info BuildInfo `json:"info,omitempty"`
	Err  string    `json:"err,omitempty"`
}
