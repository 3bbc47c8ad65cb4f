// Package jobs is the asynchronous job subsystem of the serving stack: a
// durable, bounded job store with a write-ahead log, a lifecycle FSM
// (queued → running → completed/failed/canceled), per-tenant weighted fair
// queuing with priorities, crash-resume of queued work, and a bounded
// lifecycle-event ring with streaming subscribers.
//
// The paper's coprocessor model treats every Qat program as a discrete
// submitted unit with a deterministic result — exactly the contract a
// durable job store can checkpoint and replay: a job's spec is a pure
// description of its execution, so re-running a queued job after a crash
// yields a byte-identical outcome. The package is deliberately agnostic
// about what a job *is*: specs and results are opaque JSON documents and
// execution is delegated to an Exec callback, so the serving layer
// (internal/server) owns the wire schema and the farm hook-up while this
// package owns durability, ordering, fairness, and lifecycle.
//
// Durability model: every state transition (submit, start, terminal) is
// appended to an append-only JSONL WAL and fsynced before the transition
// is visible. On restart the WAL is replayed (dedupe by job ID, last
// record wins): terminal jobs keep their results, queued jobs are
// re-admitted in their original submit order (exactly once — the WAL is
// the queue), and jobs that were running when the process died are marked
// failed with a resume reason, because a half-executed job's side effects
// (none, in this system, but the contract is conservative) cannot be
// proven absent. The log is compacted to a snapshot once it accumulates
// enough dead records (wal.go).
//
// Fairness: the scheduler is stride-based weighted fair queuing over
// tenants — each tenant's virtual pass advances by 1/weight per dispatched
// job, and the tenant with the smallest pass runs next — with a strict
// priority heap (higher first, then submit order) inside each tenant
// (fair.go). Two tenants with equal weight therefore complete within a
// small constant factor of each other's throughput under saturation, no
// matter how unbalanced their submission rates are.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// State is a job's position in the lifecycle FSM.
type State string

const (
	// StateQueued means admitted and waiting for a dispatch slot.
	StateQueued State = "queued"
	// StateRunning means handed to the Exec callback.
	StateRunning State = "running"
	// StateCompleted means Exec returned a result and no error.
	StateCompleted State = "completed"
	// StateFailed means Exec returned an error (including a crash-resume
	// of a job that was mid-execution; see Job.Reason).
	StateFailed State = "failed"
	// StateCanceled means the job was canceled before or during execution.
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateCanceled
}

func (s State) valid() bool {
	switch s {
	case StateQueued, StateRunning, StateCompleted, StateFailed, StateCanceled:
		return true
	}
	return false
}

// ResumeReason is the failure reason stamped on jobs that were running
// when the process died: their partial execution cannot be proven
// side-effect-free, so they are not silently re-run.
const ResumeReason = "server restarted while the job was running; resubmit to re-run"

// Job is one asynchronous execution and its durable record. The Spec and
// Result payloads are opaque JSON owned by the caller (the serving layer
// stores its run request and run result here); everything else is the
// lifecycle this package manages. The JSON encoding of this struct is the
// WAL schema — see wal.go for versioning.
type Job struct {
	// ID is the caller-chosen unique identity; resubmitting an existing ID
	// returns the existing job (idempotent submission).
	ID string `json:"id"`
	// Tenant names the fair-queuing principal ("" is normalized by the
	// serving layer; this package treats it as an ordinary name).
	Tenant string `json:"tenant,omitempty"`
	// Priority orders jobs within a tenant: higher runs first, ties in
	// submit order. It never lets one tenant preempt another — cross-tenant
	// ordering is the weighted fair queue's alone.
	Priority int `json:"priority,omitempty"`
	// Weight is the tenant's fair-queuing weight (<= 0 means 1). The
	// tenant's weight is updated by each submission that sets it.
	Weight int `json:"weight,omitempty"`
	// Spec is the opaque execution description handed to Exec.
	Spec json.RawMessage `json:"spec,omitempty"`

	// State is the FSM position; Reason explains failed/canceled states.
	State  State  `json:"state"`
	Reason string `json:"reason,omitempty"`
	// Result is the opaque outcome document (set on completed jobs, and on
	// failed jobs whose Exec produced a partial/classified result).
	Result json.RawMessage `json:"result,omitempty"`

	// Submitted/Started/Finished are the lifecycle timestamps.
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`

	// Resumed marks a job re-admitted from the WAL after a restart.
	Resumed bool `json:"resumed,omitempty"`
	// Seq is the global admission order, persisted so replay reconstructs
	// the queue in the original order.
	Seq uint64 `json:"seq"`

	// heapIdx is the job's position in its tenant's priority heap while
	// queued (fair.go); -1 otherwise.
	heapIdx int
	// cancelReq marks a running job whose cancellation was requested, so
	// the terminal classifier can distinguish "canceled" from an Exec
	// error that happens to wrap context.Canceled for its own reasons.
	cancelReq bool
}

// Exec executes one job: it receives a snapshot of the job (never the
// manager's live pointer) and a context canceled when the job is canceled
// or the manager is hard-closed. It returns the opaque result document and
// the execution error; a nil error means completed. An error wrapping
// context.Canceled after a cancel request classifies as canceled, any
// other error as failed — in both cases a non-nil result is kept on the
// job record.
type Exec func(ctx context.Context, j Job) (json.RawMessage, error)

// Config parameterizes a Manager.
type Config struct {
	// Dir is the durable store directory; "" disables persistence (the
	// manager is then a purely in-memory queue with the same API).
	Dir string
	// Workers bounds concurrently executing jobs; <= 0 means GOMAXPROCS.
	Workers int
	// QueueLimit bounds queued+running jobs; beyond it Submit returns
	// ErrQueueFull. <= 0 means 1024.
	QueueLimit int
	// Obs, when non-nil, receives the jobs metric family (obs.go).
	Obs *Obs

	// retention bounds retained terminal jobs; the oldest are evicted
	// (and erased from the WAL at the next compaction). <= 0 means 4096.
	retention int
	// compactEvery triggers WAL compaction after this many appended
	// records. <= 0 means 4096.
	compactEvery int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 1024
	}
	if c.retention <= 0 {
		c.retention = 4096
	}
	if c.compactEvery <= 0 {
		c.compactEvery = 4096
	}
	return c
}

// Submission errors.
var (
	// ErrQueueFull is returned by Submit when queued+running jobs are at
	// the configured bound; the serving layer turns it into a 429.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrDraining is returned by Submit once Close has begun.
	ErrDraining = errors.New("jobs: manager is draining")
	// ErrNotFound is returned by Cancel for an unknown job ID.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrWALFailed is returned by Submit once the WAL could not record a
	// transition and could not be repaired: the store is read-only until
	// restart (the serving layer turns it into a 503).
	ErrWALFailed = errors.New("jobs: write-ahead log failed")
)

// Manager owns the job store, the WAL, the fair queue, the dispatcher
// pool, and the event ring. Construct with New; stop with Close. Safe for
// concurrent use.
type Manager struct {
	cfg  Config
	exec Exec

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*Job
	term     []string // terminal job IDs in retirement order (retention FIFO)
	fq       *fairQueue
	cancels  map[string]context.CancelFunc
	runningN int
	seq      uint64
	draining bool
	closed   bool

	wal    *wal
	events *eventRing
	wg     sync.WaitGroup

	// walErrors counts failed WAL writes (appends and snapshots).
	walErrors uint64
}

// New builds a manager, replaying the WAL in cfg.Dir (when set): terminal
// jobs are restored with their results, queued jobs are re-admitted in
// submit order, and jobs left running by a crash are marked failed with
// ResumeReason. The dispatcher pool starts immediately.
func New(cfg Config, exec Exec) (*Manager, error) {
	cfg = cfg.withDefaults()
	if exec == nil {
		return nil, errors.New("jobs: nil Exec")
	}
	m := &Manager{
		cfg:     cfg,
		exec:    exec,
		jobs:    make(map[string]*Job),
		fq:      newFairQueue(),
		cancels: make(map[string]context.CancelFunc),
		events:  newEventRing(eventBuf, cfg.Obs),
	}
	m.cond = sync.NewCond(&m.mu)
	if cfg.Dir != "" {
		w, replayed, err := openWAL(cfg.Dir)
		if err != nil {
			return nil, err
		}
		m.wal = w
		m.adopt(replayed)
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// adopt rebuilds in-memory state from the WAL replay. Called before the
// dispatcher pool starts, so no locking is needed; WAL appends for the
// resume transitions are still written (and the log compacted) so the
// on-disk truth matches memory before the first new submission.
func (m *Manager) adopt(replayed []*Job) {
	now := time.Now()
	for _, j := range replayed {
		if j.Seq >= m.seq {
			m.seq = j.Seq + 1
		}
		j.heapIdx = -1
		switch {
		case j.State.Terminal():
			m.jobs[j.ID] = j
			m.term = append(m.term, j.ID)
		case j.State == StateRunning:
			// Mid-execution at crash: conservatively failed, never re-run.
			j.State = StateFailed
			j.Reason = ResumeReason
			j.Finished = now
			j.Resumed = true
			m.jobs[j.ID] = j
			m.term = append(m.term, j.ID)
			m.walApplied(walRecord{Op: opState, ID: j.ID, State: j.State, Reason: j.Reason, Time: now})
			m.events.publish(Event{Type: EventFailed, Job: j.ID, Tenant: j.Tenant, State: j.State, Reason: j.Reason})
			m.cfg.Obs.countState(StateFailed)
			m.cfg.Obs.incResumeFailed()
		default: // queued: re-admit exactly once, in original order
			j.State = StateQueued
			j.Resumed = true
			m.jobs[j.ID] = j
			m.fq.push(j)
			m.cfg.Obs.setQueueDepth(j.Tenant, m.fq.depth(j.Tenant))
			m.events.publish(Event{Type: EventResumed, Job: j.ID, Tenant: j.Tenant, State: j.State})
			m.cfg.Obs.incResumed()
		}
	}
	m.enforceRetention()
	// Snapshot immediately: the resume transitions above and any evictions
	// are folded in, so a crash loop cannot grow the log without bound. A
	// failed snapshot is counted and leaves the replayed log, which the
	// appends above extended, in place.
	_ = m.compactLocked()
}

// Submit admits one job. The job must carry a non-empty ID; Tenant,
// Priority, Weight and Spec are the caller's. Resubmitting an existing ID
// returns the existing record with existed=true (idempotent submission —
// the WAL replay dedupes the same way). The submit record is fsynced
// before the job is visible or schedulable.
func (m *Manager) Submit(j Job) (Job, bool, error) {
	if j.ID == "" {
		return Job{}, false, errors.New("jobs: empty job ID")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return Job{}, false, ErrDraining
	}
	if existing, ok := m.jobs[j.ID]; ok {
		return existing.snapshot(), true, nil
	}
	if m.wal != nil && m.wal.broken != nil {
		return Job{}, false, m.wal.broken
	}
	if m.fq.size+m.runningN >= m.cfg.QueueLimit {
		m.cfg.Obs.incRejected()
		return Job{}, false, ErrQueueFull
	}
	if j.Weight <= 0 {
		j.Weight = 1
	}
	j.State = StateQueued
	j.Submitted = time.Now()
	j.Seq = m.seq
	m.seq++
	j.heapIdx = -1
	jp := &j
	if err := m.walAppend(walRecord{Op: opJob, Job: jp}); err != nil {
		// Not admitted: the log holds no trace of it either.
		return Job{}, false, err
	}
	m.jobs[j.ID] = jp
	m.fq.push(jp)
	m.cfg.Obs.setQueueDepth(j.Tenant, m.fq.depth(j.Tenant))
	m.cfg.Obs.countState(StateQueued)
	m.events.publish(Event{Type: EventSubmitted, Job: j.ID, Tenant: j.Tenant, State: StateQueued})
	m.cond.Signal()
	return jp.snapshot(), false, nil
}

// Get returns a copy of the job record.
func (m *Manager) Get(id string) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}, false
	}
	return j.snapshot(), true
}

// Cancel requests cancellation: a queued job transitions to canceled
// immediately (and is removed from the queue); a running job has its
// context canceled and transitions when Exec returns; terminal jobs are
// unchanged (idempotent). The returned snapshot is the post-call state —
// still "running" for an in-flight job whose cancellation is now pending.
func (m *Manager) Cancel(id string) (Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}, ErrNotFound
	}
	switch j.State {
	case StateQueued:
		m.fq.remove(j)
		m.cfg.Obs.setQueueDepth(j.Tenant, m.fq.depth(j.Tenant))
		m.terminalLocked(j, StateCanceled, "canceled before start")
	case StateRunning:
		j.cancelReq = true
		if c := m.cancels[id]; c != nil {
			c()
		}
	}
	return j.snapshot(), nil
}

// Depths reports the queued and running job counts (the healthz numbers).
func (m *Manager) Depths() (queued, running int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fq.size, m.runningN
}

// Subscribe returns buffered lifecycle events with Seq > since, a live
// channel for subsequent ones, and a cancel function the caller must
// invoke. The channel is closed by cancel or by Close.
func (m *Manager) Subscribe(since uint64) ([]Event, <-chan Event, func()) {
	return m.events.subscribe(since)
}

// worker is one dispatcher: it pulls the fair queue and runs Exec.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for !m.draining && m.fq.size == 0 {
			m.cond.Wait()
		}
		if m.draining {
			m.mu.Unlock()
			return
		}
		j := m.fq.pop()
		m.cfg.Obs.setQueueDepth(j.Tenant, m.fq.depth(j.Tenant))
		j.State = StateRunning
		j.Started = time.Now()
		// The job context is detached: jobs outlive the HTTP request that
		// submitted them by design. Cancel comes from DELETE or hard-close.
		ctx, cancel := context.WithCancel(context.Background())
		m.cancels[j.ID] = cancel
		m.runningN++
		m.cfg.Obs.setRunning(int64(m.runningN))
		m.walApplied(walRecord{Op: opState, ID: j.ID, State: StateRunning, Time: j.Started})
		m.cfg.Obs.countState(StateRunning)
		m.events.publish(Event{Type: EventStarted, Job: j.ID, Tenant: j.Tenant, State: StateRunning})
		snap := j.snapshot()
		m.mu.Unlock()

		result, err := m.exec(ctx, snap)

		m.mu.Lock()
		cancel()
		delete(m.cancels, j.ID)
		m.runningN--
		m.cfg.Obs.setRunning(int64(m.runningN))
		j.Result = result
		switch {
		case err == nil:
			m.terminalLocked(j, StateCompleted, "")
		case j.cancelReq && errors.Is(err, context.Canceled):
			m.terminalLocked(j, StateCanceled, "canceled while running")
		case errors.Is(err, context.Canceled):
			// Canceled without a request: the manager was hard-closed.
			m.terminalLocked(j, StateCanceled, "server shut down while the job was running")
		default:
			m.terminalLocked(j, StateFailed, err.Error())
		}
		m.mu.Unlock()
	}
}

// terminalLocked applies a terminal transition: WAL append (fsynced),
// event publication, retention enforcement. Caller holds m.mu.
func (m *Manager) terminalLocked(j *Job, st State, reason string) {
	j.State = st
	j.Reason = reason
	j.Finished = time.Now()
	m.walApplied(walRecord{Op: opState, ID: j.ID, State: st, Reason: reason, Result: j.Result, Time: j.Finished})
	m.cfg.Obs.countState(st)
	m.events.publish(Event{Type: eventTypeFor(st), Job: j.ID, Tenant: j.Tenant, State: st, Reason: reason})
	m.term = append(m.term, j.ID)
	m.enforceRetention()
}

// enforceRetention evicts the oldest terminal jobs beyond the bound.
// Caller holds m.mu (or runs pre-start from adopt).
func (m *Manager) enforceRetention() {
	for len(m.term) > m.cfg.retention {
		id := m.term[0]
		// Reslice without retaining the dead prefix of the backing array.
		m.term = append([]string(nil), m.term[1:]...)
		if _, ok := m.jobs[id]; ok {
			delete(m.jobs, id)
			m.walApplied(walRecord{Op: opEvict, ID: id})
			m.cfg.Obs.incEvicted()
		}
	}
}

// walAppend appends one fsynced record and triggers compaction past the
// threshold. Caller holds m.mu (or runs pre-start). A nil WAL (no Dir) is
// a no-op. A failed append is counted and leaves the log as it was before
// the call (see wal.writeLine), or else broken.
func (m *Manager) walAppend(rec walRecord) error {
	if m.wal == nil {
		return nil
	}
	if err := m.wal.append(rec); err != nil {
		m.walErrors++
		m.cfg.Obs.incWALErrors()
		return err
	}
	m.cfg.Obs.setWAL(m.wal.records, m.wal.bytes)
	if m.wal.records >= m.cfg.compactEvery {
		m.compactLocked()
	}
	return nil
}

// walApplied logs a transition already applied in memory. If the append
// fails and was undone, the log is one transition behind memory, so it is
// caught up with a snapshot; if that fails too, or the append could not be
// undone, the WAL is broken and Submit refuses new work with ErrWALFailed.
func (m *Manager) walApplied(rec walRecord) {
	if m.walAppend(rec) == nil || m.wal.broken != nil {
		return
	}
	if err := m.compactLocked(); err != nil {
		m.wal.broken = fmt.Errorf("%w: could not record a %s: %v", ErrWALFailed, rec.Op, err)
	}
}

// compactLocked rewrites the WAL as a snapshot of the live job set. A
// failed snapshot leaves the previous log in place and is counted.
func (m *Manager) compactLocked() error {
	if m.wal == nil {
		return nil
	}
	all := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		all = append(all, j)
	}
	err := m.wal.compact(all)
	if err == nil {
		m.cfg.Obs.incCompactions()
	} else {
		m.walErrors++
		m.cfg.Obs.incWALErrors()
	}
	m.cfg.Obs.setWAL(m.wal.records, m.wal.bytes)
	return err
}

// WALHealth reports the failed WAL writes so far and whether the WAL is
// broken (Submit then returns ErrWALFailed). Both are zero without a Dir.
func (m *Manager) WALHealth() (failures uint64, broken bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.walErrors, m.wal != nil && m.wal.broken != nil
}

// Close drains the manager: submissions are refused, queued jobs stay
// queued (persisted — they resume on the next start), running jobs finish.
// ctx bounds the wait; on expiry the running jobs' contexts are canceled
// and the wait continues until Exec returns. The WAL is compacted and
// closed last, so the final on-disk state is one clean snapshot.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.draining = true
	m.cond.Broadcast()
	m.mu.Unlock()

	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		m.mu.Lock()
		for _, c := range m.cancels {
			c()
		}
		m.mu.Unlock()
		<-done
	}

	m.mu.Lock()
	m.events.close()
	if m.wal != nil {
		_ = m.compactLocked() // counted; the log it would replace stays
		m.wal.close()
		m.wal = nil
	}
	m.mu.Unlock()
	return err
}

// snapshot returns a value copy safe to hand out. The RawMessage payloads
// are shared but treated as immutable by contract.
func (j *Job) snapshot() Job {
	c := *j
	c.heapIdx = -1
	return c
}
