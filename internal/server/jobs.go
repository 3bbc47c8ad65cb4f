package server

// Async job endpoints: the durable-queue face of the serving API.
//
//	POST   /v1/jobs       submit a program, get a job ID back immediately
//	GET    /v1/jobs/{id}  lifecycle status + result once terminal
//	DELETE /v1/jobs/{id}  cancel (queued: immediate; running: ctx cancel)
//	GET    /v1/events     NDJSON lifecycle stream with `since` replay
//
// The job manager (internal/jobs) owns durability, fairness, the FSM and
// the async path's only bound: at most JobWorkers jobs run at once, and a
// job waits in the manager's fair queue alone. This file owns the wire
// schema and the execution bridge: a job's spec is its fully resolved
// RunRequest (source already assembled to words, step budget already
// clamped), so replaying it after a crash cannot depend on the submitting
// process's config. A dispatched job runs straight on the shared farm,
// whose execution cache answers a stored result and collapses identical
// in-flight runs exactly as for a synchronous /v1/run, so a job's result is
// byte-identical to a synchronous run of the same program.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"tangled/internal/farm"
	"tangled/internal/jobs"
)

// jobSpec is the durable execution description stored in the WAL: the
// resolved RunRequest under a "run" envelope so the format can grow
// without re-versioning the WAL itself.
type jobSpec struct {
	Run RunRequest `json:"run"`
}

// handleJobSubmit admits one program into the async queue. The program is
// validated, assembled and (on strict servers) linted exactly like a
// synchronous run, so a 202 means it will execute. Status: 202 accepted,
// 200 for an idempotent resubmission of an existing job ID, 400/422 for
// bad programs, 429 when the job queue is full, 503 while draining.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if s.draining.Load() {
		s.writeUnavailable(w)
		return
	}
	id := s.requestID(req.ID, r)
	w.Header().Set("X-Request-ID", id)
	built, failStatus, errResp := s.buildJob(&req.RunRequest, id, r.Context())
	if errResp != nil {
		s.writeError(w, failStatus, *errResp)
		return
	}
	// Freeze the request into its durable, process-independent form: the
	// assembled word image and the clamped step budget, so a crash-resumed
	// replay executes exactly what was admitted.
	spec := req.RunRequest
	spec.ID = id
	spec.Src = ""
	spec.Words = built.Prog.Words
	spec.MaxSteps = req.StepBudget()
	raw, err := json.Marshal(jobSpec{Run: spec})
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, ErrorResponse{Error: "encode job spec: " + err.Error()})
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	rec, existed, err := s.jobs.Submit(jobs.Job{
		ID:       id,
		Tenant:   tenant,
		Priority: req.Priority,
		Weight:   req.Weight,
		Spec:     raw,
	})
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		s.write429(w)
		return
	case errors.Is(err, jobs.ErrDraining):
		s.writeUnavailable(w)
		return
	case errors.Is(err, jobs.ErrWALFailed):
		s.writeError(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error()})
		return
	case err != nil:
		s.writeError(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	code := http.StatusAccepted
	if existed {
		// Idempotent resubmission: the existing record, not a new job.
		code = http.StatusOK
	}
	s.writeJSON(w, code, jobStatusFrom(rec))
}

// handleJobByID serves GET (status+result) and DELETE (cancel).
func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch r.Method {
	case http.MethodGet:
		j, ok := s.jobs.Get(id)
		if !ok {
			s.writeError(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("no job %q", id)})
			return
		}
		s.writeJSON(w, http.StatusOK, jobStatusFrom(j))
	case http.MethodDelete:
		j, err := s.jobs.Cancel(id)
		if err != nil {
			s.writeError(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("no job %q", id)})
			return
		}
		s.writeJSON(w, http.StatusOK, jobStatusFrom(j))
	default:
		w.Header().Set("Allow", "GET, DELETE")
		s.writeError(w, http.StatusMethodNotAllowed,
			ErrorResponse{Error: r.URL.Path + " requires GET or DELETE"})
	}
}

// handleEvents streams lifecycle events as NDJSON after a versioned header
// line. `since=<seq>` replays buffered events past that sequence number
// first; `follow=false` returns after the replay instead of streaming
// (pagination for pollers and the post-restart verification path). The
// stream ends on client disconnect or server drain.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var since uint64
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: "bad since: " + err.Error()})
			return
		}
		since = n
	}
	follow := true
	if v := q.Get("follow"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: "bad follow: " + err.Error()})
			return
		}
		follow = b
	}
	replay, ch, cancel := s.jobs.Subscribe(since)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	enc.Encode(EventsHeader{Schema: jobs.EventsSchema, Version: jobs.EventsSchemaVersion})
	for i := range replay {
		enc.Encode(&replay[i])
	}
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	if !follow {
		return
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return // manager closed: drain in progress
			}
			enc.Encode(&ev)
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
}

// execJob is the jobs.Exec bridge: it rebuilds the farm job from the
// durable spec and runs it on the farm. It takes no synchronous admission
// slot and no coalescer window: the manager's worker count is the async
// bound. The returned document is a RunResult; the returned error is the
// execution error (the manager classifies it into failed/canceled).
func (s *Server) execJob(ctx context.Context, j jobs.Job) (json.RawMessage, error) {
	var spec jobSpec
	if err := json.Unmarshal(j.Spec, &spec); err != nil {
		return nil, fmt.Errorf("corrupt job spec: %w", err)
	}
	job, _, errResp := s.buildJob(&spec.Run, j.ID, ctx)
	if errResp != nil {
		// Cannot normally happen — the spec was validated at submission —
		// but a WAL written by a stricter future config could re-lint
		// differently; classify as a failed job, not a crash.
		return nil, errors.New(errResp.Error)
	}
	rs, _ := s.engine.Run(ctx, []farm.Job{job})
	raw, err := json.Marshal(resultFrom(&rs[0], j.ID, 0))
	if err != nil {
		return nil, err
	}
	return raw, rs[0].Err
}

// jobStatusFrom converts a manager record into its wire form.
func jobStatusFrom(j jobs.Job) JobStatus {
	st := JobStatus{
		ID:        j.ID,
		Tenant:    j.Tenant,
		State:     string(j.State),
		Reason:    j.Reason,
		Priority:  j.Priority,
		Resumed:   j.Resumed,
		Submitted: j.Submitted,
	}
	if !j.Started.IsZero() {
		t := j.Started
		st.Started = &t
	}
	if !j.Finished.IsZero() {
		t := j.Finished
		st.Finished = &t
	}
	if len(j.Result) > 0 {
		var rr RunResult
		if json.Unmarshal(j.Result, &rr) == nil {
			st.Result = &rr
		}
	}
	return st
}
