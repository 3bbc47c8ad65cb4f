// Package farm is a concurrent batch-execution engine for Tangled/Qat
// machines: it fans a queue of independent jobs (assembled program + machine
// configuration) out across a bounded worker pool, reusing the expensive
// per-machine state — the Qat register file (up to 256 x 65,536 bits) and the
// 65,536-word host memory — through sync.Pool so steady-state throughput
// performs no per-job machine allocation.
//
// The paper's PBP model makes each coprocessor run "plain bitwise operations
// over packed words"; the natural unit of parallelism above that SIMD layer
// is the whole coprocessor job, mirroring the host/device split of
// QPU-as-accelerator architectures. Farm jobs therefore never share
// architectural state: every job gets a private machine for its lifetime and
// the machine is fully reset (cpu.Machine.Load) before the next job reuses
// it, so results are bit-identical regardless of worker count or scheduling
// order.
//
// Jobs may run on the functional machine (package cpu) or on a cycle-accurate
// pipeline (package pipeline); results come back in job order with aggregate
// batch statistics (jobs/s, retired instructions, cycles, stalls, pool hit
// rate). Per-job deadlines ride on context.Context and on the MaxSteps
// budget; a timed-out job reports its error without poisoning the pooled
// machine, because the reset-on-load contract does not depend on how the
// previous run ended.
package farm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tangled/internal/asm"
	"tangled/internal/backend"
	"tangled/internal/cpu"
	"tangled/internal/memo"
	"tangled/internal/obs"
	"tangled/internal/pipeline"
	"tangled/internal/qat"
)

// Mode selects which machine model executes a job.
type Mode uint8

const (
	// Functional runs the instruction-at-a-time reference machine.
	Functional Mode = iota
	// Pipelined runs the cycle-accurate 4/5-stage pipeline model.
	Pipelined
)

// DefaultMaxSteps bounds job execution when Job.MaxSteps is zero; the
// toolchain facade's budget, qasm.MaxSteps, is defined as this value.
const DefaultMaxSteps = 50_000_000

// ErrNoProgram is reported by jobs that carry neither source nor an
// assembled program.
var ErrNoProgram = errors.New("farm: job has neither Src nor Prog")

// Job describes one independent Tangled/Qat execution.
type Job struct {
	// Name labels the job in results and logs; purely descriptive.
	Name string

	// Prog is the assembled program. When nil, Src is assembled by the
	// worker instead (sharing one *asm.Program across jobs avoids
	// re-assembly).
	Prog *asm.Program
	// Src is Tangled/Qat assembly source, used when Prog is nil.
	Src string

	// Mode picks the machine model; the zero value is Functional.
	Mode Mode

	// Ways is the Qat entanglement degree for Functional jobs; 0 means the
	// paper's full 16-way hardware. Ignored by Pipelined jobs, whose
	// Pipeline config carries its own Ways. The RE backend accepts up to
	// qat.MaxREWays; the dense backend up to aob.MaxWays.
	Ways int
	// ConstantRegs selects the Section 5 constant-register Qat variant for
	// Functional jobs. Ignored by Pipelined jobs (see pipeline.Config).
	ConstantRegs bool
	// Backend selects the Qat register file for Functional jobs: "" or
	// qat.BackendDense for the AoB file, qat.BackendRE for the compressed
	// one (docs/BACKENDS.md), or backend.Auto to let the planner pick from
	// the width and the memo (Engine.Resolve; Result.Backend reports the
	// choice).
	// Pipelined jobs reject a non-dense backend; auto resolves to dense.
	Backend string
	// REChunkWays is the RE backend's symbol size; 0 means the default
	// (min(Ways, aob.MaxWays)). Ignored by the dense backend.
	REChunkWays int
	// RESpillRuns is the RE backend's spill budget; 0 means
	// qat.DefaultSpillRuns, negative disables spilling. Ignored by the
	// dense backend.
	RESpillRuns int
	// Pipeline configures Pipelined jobs; the zero value means
	// pipeline.DefaultConfig().
	Pipeline pipeline.Config

	// MaxSteps bounds instructions (Functional) or cycles (Pipelined);
	// 0 means DefaultMaxSteps.
	MaxSteps uint64
	// Timeout, when positive, bounds the job's wall-clock time on top of
	// the batch context.
	Timeout time.Duration
	// Ctx, when non-nil, additionally bounds this job alone: the job is
	// cancelled when either the batch context or Ctx is done, and Ctx's
	// deadline (if any) is honored as a real deadline (the job fails with
	// context.DeadlineExceeded, not Canceled). This is how a serving layer
	// propagates per-request deadlines and client disconnects into a batch
	// that coalesces many requests.
	Ctx context.Context
	// TraceTag, when non-empty, is stamped into the Req field of every
	// cycle-trace event this job appends to the engine's shared trace ring
	// (see obs.TagTrace), correlating interleaved rows back to requests.
	TraceTag string
}

// Result is the outcome of one job, delivered at the job's queue index.
type Result struct {
	// Job is the index of the job within the batch passed to Run.
	Job int
	// Name echoes Job.Name.
	Name string

	// Regs is the final Tangled register file.
	Regs [16]uint16
	// Output is everything the program printed through sys.
	Output string
	// Insts is the retired instruction count.
	Insts uint64
	// Pipe holds cycle accounting for Pipelined jobs.
	Pipe *pipeline.Stats

	// Duration is the job's wall-clock execution time (including assembly
	// when the job carried source).
	Duration time.Duration
	// Err is the job's failure, if any: assembly errors, budget exhaustion
	// (cpu.ErrNoHalt / pipeline.ErrNoHalt), or context cancellation.
	Err error

	// Cached reports that the result was served from the memo cache (or
	// from an identical in-flight execution) instead of being executed by
	// this job.
	Cached bool

	// Backend is the canonical register-file backend that served a
	// Functional job ("dense"/"re"), after any auto-planning; empty for
	// Pipelined jobs and for jobs whose configuration failed validation.
	Backend string
}

// Engine is a reusable batch executor with a bounded worker pool and pooled
// machine state. The zero value is not usable; construct with New. An Engine
// is safe for concurrent use.
type Engine struct {
	workers int

	mu    sync.Mutex
	pools map[poolKey]*machinePool

	// obs is the optional observability hook-up (see obs.go); atomic so
	// SetObs is safe against in-flight batches.
	obs atomic.Pointer[Obs]

	// memo is the optional engine-wide execution cache (see memo.go);
	// atomic so SetMemo is safe against in-flight batches.
	memo atomic.Pointer[memo.Cache]
}

// New returns an engine whose Run calls each execute at most workers jobs
// concurrently; workers <= 0 means runtime.GOMAXPROCS(0). The bound is per
// call, not engine-wide: each Run works on its calling goroutine plus
// min(workers, len(jobs))-1 helpers, so concurrent Run calls add up.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers, pools: make(map[poolKey]*machinePool)}
}

// Workers returns the engine's concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// Run executes jobs and returns one Result per job, in job order, plus the
// batch statistics. Per-job failures land in Result.Err, never in a panic or
// a lost slot. When ctx is cancelled mid-batch, jobs not yet started report
// ctx.Err() and in-flight jobs stop at their next cancellation poll; Run
// always drains its workers before returning. A nil ctx means
// context.Background(). Run does not modify jobs: a job that asks for
// backend.Auto is resolved on a private copy, so rerunning the same slice
// plans it again.
//
// The calling goroutine is worker 0; Run starts the other workers-1 as
// helpers, and each worker claims the next unclaimed job index until none
// are left.
func (e *Engine) Run(ctx context.Context, jobs []Job) ([]Result, Stats) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	results := make([]Result, len(jobs))
	workers := min(e.workers, len(jobs))
	o := e.currentObs()
	if o != nil {
		o.QueueDepth.Add(int64(len(jobs)))
	}
	var bc batchCounters
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= len(jobs) {
				return
			}
			// Once ctx is done it stays done, so a job either starts on a
			// live context or reports the error without starting.
			started := ctx.Err() == nil
			if started {
				results[i] = e.runJob(ctx, i, &jobs[i], &bc, o)
			} else {
				results[i] = Result{Job: i, Name: jobs[i].Name, Err: ctx.Err()}
			}
			if o != nil {
				o.QueueDepth.Add(-1)
				o.JobsDone.Inc()
				if results[i].Err != nil {
					o.JobErrors.Inc()
				}
				if started {
					o.JobSeconds.Observe(results[i].Duration.Seconds())
				}
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if o != nil {
		o.PoolHits.Add(bc.hits.Load())
		o.PoolMisses.Add(bc.misses.Load())
	}

	st := Stats{Workers: workers, Wall: time.Since(start)}
	for i := range results {
		st.Jobs++
		if results[i].Err != nil {
			st.Errors++
		}
		st.Insts += results[i].Insts
		if p := results[i].Pipe; p != nil {
			st.Cycles += p.Cycles
			st.Stalls += p.TotalStalls()
		}
		if results[i].Cached {
			st.MemoHits++
		}
	}
	st.PoolHits = bc.hits.Load()
	st.PoolMisses = bc.misses.Load()
	return results, st
}

// runJob executes one job on the calling worker goroutine.
func (e *Engine) runJob(ctx context.Context, i int, j *Job, bc *batchCounters, o *Obs) Result {
	res := Result{Job: i, Name: j.Name}
	start := time.Now()
	defer func() { res.Duration = time.Since(start) }()
	if o != nil {
		o.InFlight.Add(1)
		defer o.InFlight.Add(-1)
	}

	prog, err := j.program()
	if err != nil {
		res.Err = err
		return res
	}
	if j.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, j.Timeout)
		defer cancel()
	}
	if j.Ctx != nil {
		var cancel context.CancelFunc
		ctx, cancel = joinContext(ctx, j.Ctx)
		defer cancel()
	}
	maxSteps := j.maxSteps()
	if j.Backend == backend.Auto {
		rj := *j // resolve on a copy: the caller's job keeps asking for auto
		j = &rj
		if err := e.resolveAuto(j, prog, maxSteps, o); err != nil {
			res.Err = err
			return res
		}
	}
	// The configuration is checked before the cache: an invalid one has no
	// identity of its own to key on.
	cfg, err := j.config()
	if err != nil {
		res.Err = err
		return res
	}
	res.Backend = cfg.Backend
	exec := func() {
		if j.Mode == Pipelined {
			e.runPipelined(ctx, j, prog, maxSteps, &res, bc, o)
		} else {
			e.runFunctional(ctx, cfg, j, prog, maxSteps, &res, bc, o)
		}
	}
	cache := e.jobCache(j, o)
	if cache == nil {
		exec()
		return res
	}
	entry, cached, err := cache.Do(ctx, jobKey(j, cfg, prog, maxSteps), func() memo.Entry {
		exec()
		return memo.Entry{Regs: res.Regs, Output: res.Output, Insts: res.Insts, Pipe: res.Pipe, Err: res.Err}
	})
	if err != nil {
		// The job's context expired while waiting on an identical in-flight
		// execution; surface it exactly like a cancelled run.
		res.Err = err
		return res
	}
	if cached {
		res.Regs, res.Output, res.Insts, res.Pipe, res.Err = entry.Regs, entry.Output, entry.Insts, entry.Pipe, entry.Err
		res.Cached = true
	}
	return res
}

// joinContext derives a context cancelled when either batch or job is done.
// A deadline on job is re-applied as a deadline on the derived context so
// expiry surfaces as context.DeadlineExceeded rather than Canceled.
func joinContext(batch, job context.Context) (context.Context, context.CancelFunc) {
	if d, ok := job.Deadline(); ok {
		var cancel context.CancelFunc
		batch, cancel = context.WithDeadline(batch, d)
		ctx, cancel2 := context.WithCancel(batch)
		// The deadline itself is covered by the WithDeadline clone above (so
		// it surfaces as DeadlineExceeded); the AfterFunc only forwards
		// early cancellation, else it would race the deadline timer and
		// mislabel an expiry as Canceled.
		stop := context.AfterFunc(job, func() {
			if !errors.Is(job.Err(), context.DeadlineExceeded) {
				cancel2()
			}
		})
		return ctx, func() { stop(); cancel2(); cancel() }
	}
	ctx, cancel := context.WithCancel(batch)
	stop := context.AfterFunc(job, cancel)
	return ctx, func() { stop(); cancel() }
}

// runFunctional runs j on a machine of the canonical configuration cfg.
func (e *Engine) runFunctional(ctx context.Context, cfg qat.Config, j *Job, prog *asm.Program, maxSteps uint64, res *Result, bc *batchCounters, o *Obs) {
	pool := e.pool(poolKey{ways: cfg.Ways, constRegs: cfg.ConstantRegs,
		backend: cfg.Backend, chunkWays: cfg.ChunkWays, spillRuns: cfg.SpillRuns})
	var m *cpu.Machine
	if v := pool.get(bc); v != nil {
		m = v.(*cpu.Machine)
	} else {
		var err error
		if m, err = cpu.NewFromConfig(cfg); err != nil {
			bc.unalloc() // nothing was constructed; the miss never became a machine
			res.Err = err
			return
		}
	}
	defer func() {
		// Detach what this run attached before the machine returns to the
		// pool; nothing else can reach a pooled machine, and the next
		// tenant's Load clears the architectural state.
		m.Out = nil
		m.AttachMetrics(nil)
		pool.put(m)
	}()

	var out bytes.Buffer
	m.Out = &out
	if o != nil {
		m.AttachMetrics(o.CPU)
	}
	if err := m.Load(prog); err != nil {
		res.Err = err
		return
	}
	res.Err = m.RunContext(ctx, maxSteps)
	res.Regs = m.Regs
	res.Output = out.String()
	res.Insts = m.Stats.Insts
}

// config checks the job's register-file choice and returns a Functional
// job's Qat configuration in canonical form (qat.Config.Canonical):
// defaults made explicit, invalid geometry rejected, so equivalent
// spellings share pool and memo identity. A Pipelined job, which must be
// dense, gets the zero Config. The Auto pseudo-backend must already be
// resolved (Resolve); seeing it here is a sequencing bug, reported rather
// than guessed around.
func (j *Job) config() (qat.Config, error) {
	switch {
	case j.Backend == backend.Auto:
		return qat.Config{}, fmt.Errorf("farm: backend %q not resolved before execution", backend.Auto)
	case j.Mode == Pipelined:
		if j.Backend != "" && j.Backend != qat.BackendDense {
			return qat.Config{}, fmt.Errorf("farm: pipelined jobs support only the dense backend (got %q)", j.Backend)
		}
		return qat.Config{}, nil
	}
	return qat.Config{Ways: j.Ways, ConstantRegs: j.ConstantRegs,
		Backend: j.Backend, ChunkWays: j.REChunkWays, SpillRuns: j.RESpillRuns}.Canonical()
}

// program returns the job's assembled program: Prog, or Src assembled.
func (j *Job) program() (*asm.Program, error) {
	if j.Prog != nil {
		return j.Prog, nil
	}
	if j.Src == "" {
		return nil, ErrNoProgram
	}
	return asm.Assemble(j.Src)
}

// maxSteps is the job's step budget with the default applied.
func (j *Job) maxSteps() uint64 {
	if j.MaxSteps == 0 {
		return DefaultMaxSteps
	}
	return j.MaxSteps
}

func (e *Engine) runPipelined(ctx context.Context, j *Job, prog *asm.Program, maxCycles uint64, res *Result, bc *batchCounters, o *Obs) {
	cfg := j.Pipeline
	if cfg == (pipeline.Config{}) {
		cfg = pipeline.DefaultConfig()
	}
	pool := e.pool(poolKey{pipelined: true, pcfg: cfg})
	var p *pipeline.Pipeline
	if v := pool.get(bc); v != nil {
		p = v.(*pipeline.Pipeline)
	} else {
		var err error
		p, err = pipeline.New(cfg)
		if err != nil {
			bc.unalloc() // nothing was constructed; the miss never became a machine
			res.Err = err
			return
		}
	}
	defer func() {
		// Same as the functional pool: detach what this run attached.
		p.SetOutput(nil)
		p.SetMetrics(nil)
		p.SetTraceSink(nil)
		p.Machine().AttachMetrics(nil)
		pool.put(p)
	}()

	var out bytes.Buffer
	p.SetOutput(&out)
	if o != nil {
		p.SetMetrics(o.Pipe)
		// Attach only a real ring: a nil *TraceRing in the interface would
		// send every cycle down the tracing path.
		if o.Trace != nil {
			var sink obs.TraceSink = o.Trace
			if j.TraceTag != "" {
				sink = obs.TagTrace(o.Trace, j.TraceTag)
			}
			p.SetTraceSink(sink)
		}
		p.Machine().AttachMetrics(o.CPU)
	}
	if err := p.Load(prog); err != nil {
		res.Err = err
		return
	}
	err := p.RunContext(ctx, maxCycles)
	stats := p.Stats
	res.Regs = p.Machine().Regs
	res.Output = out.String()
	res.Insts = stats.Insts
	res.Pipe = &stats
	res.Err = err
}
