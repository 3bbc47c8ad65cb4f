package farm

// Auto-backend resolution: a Job may name backend.Auto instead of a
// concrete register file, and the farm resolves it here — before pool
// keys, memo keys, or machines exist — through the static planner
// (internal/backend), with a memo probe so a previously executed identity
// under either concrete backend wins over the static prediction. The
// resolution happens at both entry points that derive a job identity
// (runJob, MemoProbe), because a key computed on the unresolved pseudo-name
// would silently alias the dense spelling.

import (
	"tangled/internal/asm"
	"tangled/internal/backend"
	"tangled/internal/qat"
)

// resolveAuto resolves the backend.Auto pseudo-backend in place on j; a
// job that did not ask for auto is left as it is. Pipelined jobs resolve
// to dense — the pipeline models the paper's dense hardware, so auto has
// exactly one answer there. The planner may fail with
// backend.UnservableError when the requested width exceeds every backend;
// the static profile rides on that error.
func (e *Engine) resolveAuto(j *Job, prog *asm.Program, maxSteps uint64, o *Obs) error {
	if j.Backend != backend.Auto {
		return nil
	}
	if j.Mode == Pipelined {
		j.Backend = qat.BackendDense
		return nil
	}
	cache := e.jobCache(j, o)
	probe := func(cfg qat.Config) bool {
		if cache == nil {
			return false
		}
		t := *j
		t.Ways, t.ConstantRegs = cfg.Ways, cfg.ConstantRegs
		t.Backend, t.REChunkWays, t.RESpillRuns = cfg.Backend, cfg.ChunkWays, cfg.SpillRuns
		_, ok := cache.Get(jobKey(&t, prog, maxSteps))
		return ok
	}
	plan, err := backend.PlanAuto(prog,
		qat.Config{Ways: j.Ways, ConstantRegs: j.ConstantRegs, Backend: backend.Auto}, probe)
	if err != nil {
		return err
	}
	// The plan is canonical; width is untouched by design (the planner only
	// picks the file the requested width runs on).
	j.Backend = plan.Config.Backend
	j.REChunkWays = plan.Config.ChunkWays
	j.RESpillRuns = plan.Config.SpillRuns
	return nil
}
