// Package server is the Qat-as-a-service layer: a stdlib-only net/http
// JSON/NDJSON API that accepts Tangled assembly or pre-assembled word
// images, executes them on a shared internal/farm fleet, and streams
// per-program results back. It is the host/accelerator boundary of the
// paper made remotely callable — a classical front-end dispatching programs
// to the quantum-inspired execution unit over the network — with the
// serving machinery a production deployment needs:
//
//   - admission control: a bounded job queue; requests beyond it are
//     refused with 429 and a Retry-After hint instead of queuing without
//     bound (backpressure, not collapse);
//   - dynamic batching: single /v1/run submissions are coalesced into farm
//     batches under a configurable latency window (coalesce.go);
//   - deadline propagation: per-request deadlines and client disconnects
//     ride context into farm.Job.Ctx and down to cpu/pipeline RunContext;
//   - graceful drain: Drain stops intake (healthz flips to 503 so load
//     balancers steer away), finishes every admitted job, and only then
//     returns so the operator can flush metrics and traces;
//   - idempotent resubmission: a client retrying a lost response resends
//     the same program, and the content-addressed execution cache answers
//     it (cached:true) instead of re-executing; with the cache disabled the
//     retry re-executes, and deterministic execution gives the same result;
//   - observability: request/status counters, queue and in-flight gauges,
//     latency histograms (obs.go), and the request ID stamped into every
//     cycle-trace row the run contributes (obs.TagTrace).
//
// Routes: POST /v1/run, /v1/batch, /v1/assemble; GET /v1/healthz,
// /v1/buildinfo; plus the obs debug face (/metrics, /debug/...) when a
// registry is attached. README.md ("Serving") documents the wire schema.
package server

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tangled/internal/aob"
	"tangled/internal/asm"
	"tangled/internal/backend"
	"tangled/internal/farm"
	"tangled/internal/jobs"
	"tangled/internal/lint"
	"tangled/internal/memo"
	"tangled/internal/obs"
	"tangled/internal/qasm"
	"tangled/internal/qat"
)

// MaxBodyBytes bounds a request body; a longer one is answered 413. A
// cluster coordinator applies the same limit.
const MaxBodyBytes = 8 << 20

// StatusClientClosedRequest is the 499 pseudo-status (from the nginx
// convention) recorded when a request's client went away before its result
// was ready.
const StatusClientClosedRequest = 499

// Config parameterizes a Server; the zero value serves with the defaults
// noted per field.
type Config struct {
	// Workers bounds the concurrency of each farm batch (one coalescer
	// flush, one /v1/batch chunk); <= 0 means GOMAXPROCS. Concurrent
	// batches add up: the only server-wide bound is QueueLimit.
	Workers int
	// QueueLimit bounds admitted synchronous jobs (queued + running)
	// across all /v1/run and /v1/batch requests; beyond it submissions get
	// 429. <= 0 means 256.
	QueueLimit int
	// BatchWindow is the coalescer's latency window for /v1/run
	// submissions; <= 0 means 2ms.
	BatchWindow time.Duration
	// BatchMax caps a coalesced batch; <= 0 means 64.
	BatchMax int
	// MemoCap bounds the content-addressed execution cache shared by every
	// run and batch program (internal/memo): identical (program,
	// configuration, budget) submissions are answered from it before
	// admission control, so hits never consume a queue slot or batching
	// latency, and concurrent identical misses collapse onto one
	// execution. 0 means 4096 entries, < 0 disables memoization. Pipelined
	// programs are not memoized while Trace is attached (their rows must
	// be emitted by a real execution).
	MemoCap int

	// JobsDir enables the async job subsystem (POST /v1/jobs, GET
	// /v1/events): the durable WAL-backed store lives here and queued jobs
	// survive restarts. Empty disables the endpoints entirely — the
	// synchronous API is unchanged either way.
	JobsDir string
	// JobQueueLimit bounds queued+running async jobs; <= 0 means 1024.
	JobQueueLimit int
	// JobWorkers bounds concurrently executing async jobs, the async
	// path's only bound (a job takes no QueueLimit slot); <= 0 means half
	// the farm's workers (min 1), so synchronous traffic keeps farm
	// capacity even under a saturated job queue.
	JobWorkers int

	// StrictLint runs the static analyzer over every submitted program and
	// refuses those with error-severity findings (cannot halt, illegal
	// instructions, inescapable loops) with 422 before admission, so
	// certainly-broken programs never consume a farm slot or a step
	// budget. The findings come back in ErrorResponse.Lint.
	StrictLint bool

	// Registry, when non-nil, receives the serving metric set and the farm
	// fleet's counters, and mounts the obs debug face on the server's mux.
	Registry *obs.Registry
	// Trace, when non-nil, receives the cycle trace of every pipelined
	// job, each row stamped with its request ID.
	Trace *obs.TraceRing
}

func (c Config) withDefaults() Config {
	if c.QueueLimit <= 0 {
		c.QueueLimit = 256
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 64
	}
	if c.MemoCap == 0 {
		c.MemoCap = memo.DefaultCap
	}
	return c
}

// Server executes Tangled/Qat programs over HTTP on a shared farm fleet.
// Construct with New, serve with Start (or mount Handler on your own
// listener), stop with Drain.
type Server struct {
	cfg    Config
	engine *farm.Engine
	obs    *serverObs
	mux    *http.ServeMux

	queue    atomic.Int64 // admitted jobs not yet finished
	jobsDone atomic.Uint64
	draining atomic.Bool
	reqSeq   atomic.Uint64
	reqSalt  string

	coal *coalescer
	jobs *jobs.Manager // nil unless the async job subsystem is enabled

	httpSrv *http.Server
	ln      net.Listener
	started atomic.Bool
	serveWG sync.WaitGroup
}

// New builds a Server over a fresh farm engine. The error is non-nil only
// when the async job store could not be opened (bad JobsDir, corrupt WAL
// header); servers without a job subsystem cannot fail to construct.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	engine := farm.New(cfg.Workers)
	so := newServerObs(cfg.Registry)
	if cfg.Registry != nil {
		fo := farm.NewObs(cfg.Registry)
		fo.Trace = cfg.Trace
		engine.SetObs(fo)
	}
	if cfg.MemoCap > 0 {
		cache := memo.New(cfg.MemoCap)
		cache.SetObs(memo.NewObs(cfg.Registry))
		engine.SetMemo(cache)
	}
	s := &Server{
		cfg:     cfg,
		engine:  engine,
		obs:     so,
		reqSalt: randomSalt(),
	}
	s.coal = newCoalescer(engine, cfg.BatchWindow, cfg.BatchMax, so)

	if cfg.JobsDir != "" {
		jw := cfg.JobWorkers
		if jw <= 0 {
			jw = engine.Workers() / 2
			if jw < 1 {
				jw = 1
			}
		}
		var jo *jobs.Obs
		if cfg.Registry != nil {
			jo = jobs.NewObs(cfg.Registry)
		}
		mgr, err := jobs.New(jobs.Config{
			Dir:        cfg.JobsDir,
			Workers:    jw,
			QueueLimit: cfg.JobQueueLimit,
			Obs:        jo,
		}, s.execJob)
		if err != nil {
			return nil, err
		}
		s.jobs = mgr
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.route(routeRun, http.MethodPost, s.handleRun))
	mux.HandleFunc("/v1/batch", s.route(routeBatch, http.MethodPost, s.handleBatch))
	mux.HandleFunc("/v1/assemble", s.route(routeAssemble, http.MethodPost, s.handleAssemble))
	mux.HandleFunc("/v1/healthz", s.route(routeHealthz, http.MethodGet, s.handleHealthz))
	mux.HandleFunc("/v1/buildinfo", s.route(routeBuildinfo, http.MethodGet, s.handleBuildinfo))
	if s.jobs != nil {
		mux.HandleFunc("/v1/jobs", s.route(routeJobs, http.MethodPost, s.handleJobSubmit))
		mux.HandleFunc("/v1/jobs/{id}", s.route(routeJobs, "", s.handleJobByID))
		mux.HandleFunc("/v1/events", s.route(routeEvents, http.MethodGet, s.handleEvents))
	}
	if cfg.Registry != nil {
		mux.Handle("/metrics", obs.Handler(cfg.Registry))
		mux.Handle("/debug/", obs.Handler(cfg.Registry))
	}
	mux.HandleFunc("/", s.route(routeOther, "", func(w http.ResponseWriter, r *http.Request) {
		s.writeError(w, http.StatusNotFound, ErrorResponse{Error: "no such route: " + r.URL.Path})
	}))
	s.mux = mux
	return s, nil
}

// Engine exposes the underlying farm engine.
func (s *Server) Engine() *farm.Engine { return s.engine }

// Handler returns the server's HTTP handler, for callers that manage their
// own listener (tests mount it on httptest servers).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr and serves in a background goroutine, returning the
// bound address. Tests and CLIs that must avoid port collisions pass
// "127.0.0.1:0" and read the port back from the returned address — the one
// shared helper every server-shaped test in this repository uses.
func (s *Server) Start(addr string) (net.Addr, error) {
	if !s.started.CompareAndSwap(false, true) {
		return nil, errors.New("server: already started")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.mux}
	s.serveWG.Add(1)
	go func() {
		defer s.serveWG.Done()
		s.httpSrv.Serve(ln)
	}()
	return ln.Addr(), nil
}

// StartLocal is Start("127.0.0.1:0") returning the base URL — the test
// helper that makes port collisions impossible.
func (s *Server) StartLocal() (string, error) {
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	return "http://" + addr.String(), nil
}

// Drain gracefully stops the server: new work is refused with 503 (and
// healthz flips to draining so load balancers steer away), every admitted
// job runs to completion and delivers its response, and the listener shuts
// down. ctx bounds the wait; on expiry the remaining connections are closed
// hard and ctx.Err() is returned. Safe to call on a server that was never
// started (it just stops the coalescer).
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	var err error
	if s.jobs != nil {
		// The job manager drains first: running jobs finish on the farm,
		// queued jobs are persisted by the closing compaction and resume on
		// the next start, and the event stream closes — which ends any
		// long-lived /v1/events handlers so Shutdown can complete.
		err = s.jobs.Close(ctx)
	}
	if s.httpSrv != nil {
		// Shutdown stops accepting and waits for in-flight handlers —
		// each of which is waiting on its jobs' results — so admitted work
		// finishes before this returns.
		serr := s.httpSrv.Shutdown(ctx)
		if serr != nil {
			s.httpSrv.Close()
			if err == nil {
				err = serr
			}
		}
		s.serveWG.Wait()
	}
	s.coal.stop()
	return err
}

// Close shuts the server down immediately without waiting for in-flight
// work (tests; production uses Drain).
func (s *Server) Close() error {
	s.draining.Store(true)
	if s.jobs != nil {
		// An already-expired context: running jobs are canceled rather than
		// awaited, then the store compacts and closes.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		s.jobs.Close(ctx)
	}
	if s.httpSrv != nil {
		s.httpSrv.Close()
		s.serveWG.Wait()
	}
	s.coal.stop()
	return nil
}

// route wraps a handler with the cross-cutting serving concerns: method
// check, body bound, request counting, in-flight gauge, latency histogram
// and status accounting.
func (s *Server) route(ri int, method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.obs.requests.At(ri).Inc()
		s.obs.inFlight.Add(1)
		defer s.obs.inFlight.Add(-1)
		sw := &statusWriter{ResponseWriter: w}
		if method != "" && r.Method != method {
			sw.Header().Set("Allow", method)
			s.writeError(sw, http.StatusMethodNotAllowed,
				ErrorResponse{Error: fmt.Sprintf("%s requires %s", r.URL.Path, method)})
		} else {
			if r.Body != nil {
				r.Body = http.MaxBytesReader(sw, r.Body, MaxBodyBytes)
			}
			h(sw, r)
		}
		s.obs.observeStatus(sw.status())
		s.obs.latency.Observe(time.Since(start).Seconds())
	}
}

// statusWriter records the status code for the response counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// Flush forwards to the underlying writer so NDJSON streaming works.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// admit reserves n queue slots, or counts and reports the refusal the
// caller must turn into a 429. The corresponding release is mandatory.
func (s *Server) admit(n int) bool {
	limit := int64(s.cfg.QueueLimit)
	for {
		cur := s.queue.Load()
		if cur+int64(n) > limit {
			s.obs.rejected429.Inc()
			return false
		}
		if s.queue.CompareAndSwap(cur, cur+int64(n)) {
			s.obs.queueDepth.Set(cur + int64(n))
			return true
		}
	}
}

// release returns n queue slots and counts the finished jobs.
func (s *Server) release(n int) {
	s.obs.queueDepth.Set(s.queue.Add(-int64(n)))
	s.jobsDone.Add(uint64(n))
}

// QueueDepth reports the admitted-but-unfinished job count.
func (s *Server) QueueDepth() int64 { return s.queue.Load() }

// QueueLimit reports the admission bound beyond which submissions get 429.
func (s *Server) QueueLimit() int { return s.cfg.QueueLimit }

// requestID returns the caller's ID for a program, falling back to the
// header and then to a generated "req-<seq>-<salt>".
func (s *Server) requestID(given string, r *http.Request) string {
	if given != "" {
		return given
	}
	if h := r.Header.Get("X-Request-ID"); h != "" {
		return h
	}
	return fmt.Sprintf("req-%d-%s", s.reqSeq.Add(1), s.reqSalt)
}

// randomSalt distinguishes generated request IDs across server restarts,
// so a replayed trace never aliases two different processes' requests.
func randomSalt() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0"
	}
	return fmt.Sprintf("%08x", binary.BigEndian.Uint32(b[:]))
}

// ---- handlers ----

// handleRun executes one program through the dynamic-batching coalescer and
// returns its result as a single JSON object. Status: 200 (including runs
// whose program failed at runtime — see RunResult.Code for per-record
// classification of budget exhaustion), 400 for malformed bodies and
// assembly errors (with line diagnostics), 429 when the queue is full, 503
// while draining, 499/504 for cancelled/deadline-exceeded runs.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	id := s.requestID(req.ID, r)
	w.Header().Set("X-Request-ID", id)
	if s.draining.Load() {
		s.writeUnavailable(w)
		return
	}
	job, failStatus, errResp := s.buildJob(&req, id, r.Context())
	if errResp != nil {
		s.writeError(w, failStatus, *errResp)
		return
	}
	// Memoized result? Answered before admission control, so a hit never
	// consumes a queue slot or the coalescer's batching window.
	if fr, ok := s.engine.MemoProbe(&job); ok {
		s.finishRun(w, resultFrom(&fr, id, 0))
		return
	}
	if !s.admit(1) {
		s.write429(w)
		return
	}
	defer s.release(1)
	done, ok := s.coal.submit(job)
	if !ok {
		s.writeUnavailable(w)
		return
	}
	fr := <-done
	s.finishRun(w, resultFrom(&fr, id, 0))
}

// finishRun delivers a completed /v1/run result: caller-dependent failures
// (deadline/cancel) and bad programs surface as the HTTP status; everything
// else, runtime failures included, is returned 200.
func (s *Server) finishRun(w http.ResponseWriter, res RunResult) {
	code := http.StatusOK
	if res.Code >= 400 && res.Code != http.StatusInternalServerError {
		code = res.Code
	}
	s.writeJSON(w, code, res)
}

// handleBatch executes a program list as farm batches and streams one
// NDJSON result line per program, in input order, after a header line. The
// whole batch is admitted (or 429ed) atomically; results stream as each
// engine chunk completes, so a long batch delivers early lines while later
// chunks still run.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Programs) == 0 {
		s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: "batch has no programs"})
		return
	}
	if s.draining.Load() {
		s.writeUnavailable(w)
		return
	}
	batchID := s.requestID(req.ID, r)
	w.Header().Set("X-Request-ID", batchID)

	// Build every job up front so malformed programs fail the request
	// before any execution: a batch is admitted whole or not at all.
	ids := make([]string, len(req.Programs))
	jobs := make([]farm.Job, len(req.Programs))
	for i := range req.Programs {
		p := &req.Programs[i]
		ids[i] = p.ID
		if ids[i] == "" {
			ids[i] = DeriveBatchProgramID(batchID, i)
		}
		job, failStatus, errResp := s.buildJob(p, ids[i], r.Context())
		if errResp != nil {
			errResp.Error = fmt.Sprintf("program %d: %s", i, errResp.Error)
			s.writeError(w, failStatus, *errResp)
			return
		}
		jobs[i] = job
	}
	// Probe the memo for every program first: hits are already-finished
	// results, so only the misses ask for admission slots — a batch of
	// repeats sails through even when the queue is otherwise full.
	results := make([]*RunResult, len(jobs))
	var missJobs []farm.Job
	var missIdx []int
	for i := range jobs {
		if fr, ok := s.engine.MemoProbe(&jobs[i]); ok {
			rr := resultFrom(&fr, ids[i], i)
			results[i] = &rr
		} else {
			missJobs = append(missJobs, jobs[i])
			missIdx = append(missIdx, i)
		}
	}
	if len(missJobs) > 0 {
		if !s.admit(len(missJobs)) {
			s.write429(w)
			return
		}
		defer s.release(len(missJobs))
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	enc.Encode(ResultsHeader{Schema: ResultsSchema, Version: ResultsSchemaVersion, Count: len(jobs)})
	flusher, _ := w.(http.Flusher)

	// Stream results in input order as they become available: the
	// contiguous finished prefix flushes after the header (cached results
	// ahead of the first miss go out immediately) and again after each
	// executed chunk fills in its slots.
	next := 0
	flush := func() {
		for next < len(results) && results[next] != nil {
			enc.Encode(results[next])
			next++
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	flush()

	// Chunked execution of the misses: each chunk is one farm batch.
	for off := 0; off < len(missJobs); off += s.cfg.BatchMax {
		end := off + s.cfg.BatchMax
		if end > len(missJobs) {
			end = len(missJobs)
		}
		chunk := missJobs[off:end]
		s.obs.batchSize.Observe(float64(len(chunk)))
		rs, _ := s.engine.Run(context.Background(), chunk)
		for i := range rs {
			gi := missIdx[off+i]
			rr := resultFrom(&rs[i], ids[gi], gi)
			results[gi] = &rr
		}
		flush()
	}
}

// handleAssemble assembles source and returns the word image, or 400 with
// per-line diagnostics.
func (s *Server) handleAssemble(w http.ResponseWriter, r *http.Request) {
	var req AssembleRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Src == "" {
		s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: "empty src"})
		return
	}
	prog, err := asm.Assemble(req.Src)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, assembleErrorResponse(err))
		return
	}
	resp := AssembleResponse{Words: prog.Words, Symbols: prog.Symbols}
	if req.Lint {
		resp.Lint = lint.Analyze(prog, lint.Options{Ways: req.Ways})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleHealthz reports liveness and the admission picture; 503 while
// draining so load balancers stop routing here before the listener closes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{
		Status:     "ok",
		QueueDepth: s.queue.Load(),
		QueueLimit: int64(s.cfg.QueueLimit),
		InFlight:   s.obs.inFlight.Value(),
		Workers:    s.engine.Workers(),
		JobsDone:   s.jobsDone.Load(),
	}
	if s.jobs != nil {
		h.JobsQueued, h.JobsRunning = s.jobs.Depths()
		h.JobsWALErrors, h.JobsWALFailed = s.jobs.WALHealth()
	}
	code := http.StatusOK
	if s.draining.Load() {
		h.Status = "draining"
		h.Draining = true
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, h)
}

// handleBuildinfo reports the build and the server's execution envelope.
func (s *Server) handleBuildinfo(w http.ResponseWriter, r *http.Request) {
	info := BuildInfo{
		GoVersion:     runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		Workers:       s.engine.Workers(),
		MaxWays:       aob.MaxWays,
		MaxREWays:     qat.MaxREWays,
		MaxSteps:      qasm.MaxSteps,
		ResultsSchema: ResultsSchema,
		ResultsVer:    ResultsSchemaVersion,
		TraceSchema:   obs.TraceSchema,
		TraceVer:      obs.TraceSchemaVersion,
	}
	info.Capabilities = []string{"backend:re", "backend:auto"}
	info.Backends = []string{qat.BackendDense, qat.BackendRE}
	if s.cfg.MemoCap > 0 {
		info.Capabilities = append(info.Capabilities, "memo")
	}
	if s.jobs != nil {
		info.Capabilities = append(info.Capabilities, "jobs", "events")
		info.EventsSchema = jobs.EventsSchema
		info.EventsVer = jobs.EventsSchemaVersion
	}
	sort.Strings(info.Capabilities)
	if bi, ok := debug.ReadBuildInfo(); ok {
		info.Module = bi.Main.Path
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				info.Revision = kv.Value
			}
		}
	}
	s.writeJSON(w, http.StatusOK, info)
}

// ---- request plumbing ----

// buildJob resolves one RunRequest into a farm job, assembling source here
// so diagnostics surface as a 400 with line info instead of a failed job.
// On failure the returned status is 400, or 422 when a strict-lint server
// refused a statically broken program.
func (s *Server) buildJob(req *RunRequest, id string, reqCtx context.Context) (farm.Job, int, *ErrorResponse) {
	if err := req.validate(); err != nil {
		return farm.Job{}, http.StatusBadRequest, &ErrorResponse{Error: err.Error()}
	}
	var prog *asm.Program
	if req.Src != "" {
		p, err := asm.Assemble(req.Src)
		if err != nil {
			resp := assembleErrorResponse(err)
			return farm.Job{}, http.StatusBadRequest, &resp
		}
		prog = p
	} else {
		prog = &asm.Program{Words: append([]uint16(nil), req.Words...)}
	}
	if s.cfg.StrictLint {
		report := lint.Analyze(prog, lint.Options{Ways: req.Ways})
		if report.Errors > 0 {
			s.obs.lintRejects.Inc()
			var diags []lint.Diagnostic
			for _, d := range report.Diags {
				if d.Severity == lint.Error {
					diags = append(diags, d)
				}
			}
			return farm.Job{}, http.StatusUnprocessableEntity, &ErrorResponse{
				Error: fmt.Sprintf("program %q rejected by strict lint: %d error finding(s)", id, report.Errors),
				Lint:  diags,
			}
		}
	}
	job := farm.Job{
		Name:     id,
		Prog:     prog,
		MaxSteps: req.StepBudget(),
		Ctx:      reqCtx,
		TraceTag: id,
	}
	if req.TimeoutMs > 0 {
		job.Timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	if req.Mode == "pipelined" {
		job.Mode = farm.Pipelined
		job.Pipeline = req.pipelineConfig()
	} else {
		job.Mode = farm.Functional
		job.Ways = req.Ways
		job.ConstantRegs = req.ConstRegs
		job.Backend = req.Backend
	}
	if job.Backend == backend.Auto {
		// Resolve the pseudo-backend here, before the memo probe and
		// admission, so every downstream identity (coalescing, memo keys)
		// is over the concrete backend.
		if err := s.engine.Resolve(&job); err != nil {
			var ue *backend.UnservableError
			if errors.As(err, &ue) {
				s.obs.unservable.Inc()
				return farm.Job{}, http.StatusUnprocessableEntity, &ErrorResponse{
					Error:   fmt.Sprintf("program %q: %s", id, err),
					Profile: ue.Profile,
				}
			}
			return farm.Job{}, http.StatusBadRequest, &ErrorResponse{
				Error: fmt.Sprintf("program %q: %s", id, err),
			}
		}
		s.obs.autoPlanned.Inc()
	}
	return job, 0, nil
}

// codeForRunError classifies an execution failure into a record code.
func codeForRunError(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

// assembleErrorResponse flattens an assembler error into line diagnostics.
func assembleErrorResponse(err error) ErrorResponse {
	resp := ErrorResponse{Error: "assembly failed: " + err.Error()}
	var list asm.ErrorList
	if errors.As(err, &list) {
		for _, e := range list {
			resp.Lines = append(resp.Lines, LineError{Line: e.Line, Col: e.Col, Msg: e.Msg})
		}
	} else {
		var one asm.Error
		if errors.As(err, &one) {
			resp.Lines = []LineError{{Line: one.Line, Col: one.Col, Msg: one.Msg}}
		}
	}
	return resp
}

// DecodeBody is the request-body rule of every qatserver endpoint, and of a
// coordinator that stands in for one: body must hold exactly one JSON value
// with no unknown fields. On failure it returns the status and error body to
// answer with — 413 when body is an http.MaxBytesReader past its limit, 400
// for anything else — and a nil response on success.
func DecodeBody(body io.Reader, v interface{}) (int, *ErrorResponse) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return http.StatusRequestEntityTooLarge,
				&ErrorResponse{Error: fmt.Sprintf("body exceeds %d bytes", tooLarge.Limit)}
		}
		return http.StatusBadRequest, &ErrorResponse{Error: "bad request body: " + err.Error()}
	}
	// Tolerate (and require no more than) one JSON value.
	if err := dec.Decode(&struct{}{}); !errors.Is(err, io.EOF) {
		return http.StatusBadRequest, &ErrorResponse{Error: "trailing data after JSON body"}
	}
	return 0, nil
}

// decodeBody applies DecodeBody to r's body, writing the refusal on failure.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if code, resp := DecodeBody(r.Body, v); resp != nil {
		s.writeError(w, code, *resp)
		return false
	}
	return true
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, code int, resp ErrorResponse) {
	s.writeJSON(w, code, resp)
}

// write429 is the backpressure response: queue full, retry shortly.
func (s *Server) write429(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	s.writeError(w, http.StatusTooManyRequests, ErrorResponse{
		Error:        fmt.Sprintf("admission queue full (%d jobs)", s.cfg.QueueLimit),
		RetryAfterMs: 1000,
	})
}

// writeUnavailable is the draining response.
func (s *Server) writeUnavailable(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	s.writeError(w, http.StatusServiceUnavailable, ErrorResponse{
		Error:        "server is draining",
		RetryAfterMs: 1000,
	})
}
