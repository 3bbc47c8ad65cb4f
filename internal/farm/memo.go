package farm

// Memoization hook-up: the engine can carry a content-addressed execution
// cache (internal/memo) consulted by every worker before running a job.
// Qat execution is deterministic and every job starts from the same
// zero-initialized machine state (cpu.Machine.Load), so a job's outcome is
// a pure function of (mode, machine configuration, step budget, program
// words) — exactly what memo.ExecKey hashes. Workers that miss execute and
// populate the cache; identical jobs running concurrently collapse onto one
// execution through the cache's singleflight.
//
// One kind of job must run on a real machine and therefore bypasses the
// cache: a pipelined job while a trace ring is attached (its value is the
// cycle-by-cycle rows, which a cache hit would not emit). Every other job
// meets the cache: detaching it (SetMemo(nil)) is the only way off.

import (
	"tangled/internal/asm"
	"tangled/internal/memo"
	"tangled/internal/pipeline"
	"tangled/internal/qat"
)

// SetMemo attaches (or with nil detaches) the engine-wide execution cache.
// Safe to call concurrently with Run; jobs pick up the value current when
// they start.
func (e *Engine) SetMemo(c *memo.Cache) { e.memo.Store(c) }

// jobCache resolves the cache a job should consult: the engine's, or nil
// when none is attached or the job must execute for real (pipelined trace
// capture).
func (e *Engine) jobCache(j *Job, o *Obs) *memo.Cache {
	if j.Mode == Pipelined && o != nil && o.Trace != nil {
		return nil
	}
	return e.memo.Load()
}

// jobKey derives the job's content address from its resolved program and
// budget, normalizing defaults (zero pipeline config) so equivalent
// spellings share an entry. cfg is a functional job's canonical
// configuration (Job.config); pipelined jobs ignore it.
func jobKey(j *Job, cfg qat.Config, prog *asm.Program, maxSteps uint64) memo.Key {
	ek := memo.ExecKey{MaxSteps: maxSteps, Words: prog.Words}
	if j.Mode == Pipelined {
		ek.Pipelined = true
		pc := j.Pipeline
		if pc == (pipeline.Config{}) {
			pc = pipeline.DefaultConfig()
		}
		ek.Pipeline = pc
	} else {
		ek.Ways = cfg.Ways
		ek.ConstantRegs = cfg.ConstantRegs
		if cfg.Backend == qat.BackendRE {
			ek.Backend = 1
			ek.REChunkWays = uint8(cfg.ChunkWays)
			ek.RESpillRuns = int32(cfg.SpillRuns)
		}
	}
	return ek.Sum()
}

// MemoProbe checks whether j's result is already cached, without executing
// anything or touching the worker pool. On a hit it returns the finished
// Result (Cached set, Job index zero — the caller owns placement). Serving
// layers call this before admission control so cache hits never consume an
// admission slot or batching latency. When j carries source, the probe
// assembles it and stores the program back into j.Prog, so a subsequent
// real run does not re-assemble; assembly errors report as a miss and
// surface through the normal execution path.
func (e *Engine) MemoProbe(j *Job) (Result, bool) {
	c := e.jobCache(j, e.currentObs())
	if c == nil {
		return Result{}, false
	}
	p, err := j.program()
	if err != nil {
		return Result{}, false
	}
	j.Prog = p
	maxSteps := j.maxSteps()
	// An auto job must resolve to a concrete backend before keying: a key
	// over the unresolved pseudo-name would alias the dense spelling. The
	// resolution is sticky (written back into j) so a subsequent real run
	// executes exactly the identity probed here. Planner failures
	// (unservable width) report as a miss and surface on the run path.
	if err := e.resolveAuto(j, j.Prog, maxSteps, e.currentObs()); err != nil {
		return Result{}, false
	}
	// An invalid configuration reports as a miss, like a planner failure.
	cfg, err := j.config()
	if err != nil {
		return Result{}, false
	}
	ent, ok := c.Get(jobKey(j, cfg, j.Prog, maxSteps))
	if !ok {
		return Result{}, false
	}
	return Result{
		Name:    j.Name,
		Regs:    ent.Regs,
		Output:  ent.Output,
		Insts:   ent.Insts,
		Pipe:    ent.Pipe,
		Err:     ent.Err,
		Cached:  true,
		Backend: cfg.Backend,
	}, true
}
