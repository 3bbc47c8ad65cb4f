package farm

// Auto-backend resolution: a Job may name backend.Auto instead of a
// concrete register file, and Resolve turns it into one — before pool
// keys, memo keys, or machines exist — through the static planner
// (internal/backend), with a memo probe so a previously executed identity
// under either concrete backend wins over the static prediction. Every
// entry point that derives a job identity resolves first (runJob,
// MemoProbe, and the serving layer, which calls Resolve itself), because
// a key computed on the unresolved pseudo-name would alias the dense
// spelling.

import (
	"tangled/internal/asm"
	"tangled/internal/backend"
	"tangled/internal/qat"
)

// Resolve resolves the backend.Auto pseudo-backend in place on j; a job
// that did not ask for auto is left as it is. Pipelined jobs resolve to
// dense — the pipeline models the paper's dense hardware, so auto has
// exactly one answer there. A functional job carrying only Src is
// assembled into j.Prog first. The planner may fail with
// backend.UnservableError when the requested width exceeds every backend;
// the static profile rides on that error.
func (e *Engine) Resolve(j *Job) error {
	if j.Backend != backend.Auto {
		return nil
	}
	if j.Mode != Pipelined {
		p, err := j.program()
		if err != nil {
			return err
		}
		j.Prog = p
	}
	return e.resolveAuto(j, j.Prog, j.maxSteps(), e.currentObs())
}

// resolveAuto is Resolve for a job whose program and step budget the
// caller has already resolved.
func (e *Engine) resolveAuto(j *Job, prog *asm.Program, maxSteps uint64, o *Obs) error {
	if j.Backend != backend.Auto {
		return nil
	}
	if j.Mode == Pipelined {
		j.Backend = qat.BackendDense
		return nil
	}
	// The probe only picks a backend: it counts no hit and copies no
	// entry. The lookup that then serves the job (MemoProbe or the cache's
	// Do) counts the hit once.
	var probe func(qat.Config) bool
	if cache := e.jobCache(j, o); cache != nil {
		probe = func(cfg qat.Config) bool { return cache.Has(jobKey(j, cfg, prog, maxSteps)) }
	}
	plan, err := backend.PlanAuto(prog,
		qat.Config{Ways: j.Ways, ConstantRegs: j.ConstantRegs, Backend: backend.Auto}, probe)
	if err != nil {
		return err
	}
	// The plan is canonical; width is untouched by design (the planner only
	// picks the file the requested width runs on).
	c := plan.Config
	j.Backend, j.REChunkWays, j.RESpillRuns = c.Backend, c.ChunkWays, c.SpillRuns
	return nil
}
