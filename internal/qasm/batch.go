package qasm

import (
	"context"
	"errors"
	"fmt"

	"tangled/internal/asm"
	"tangled/internal/compile"
	"tangled/internal/farm"
	"tangled/internal/pipeline"
)

// This file is the batch face of the toolchain: Factor fanned out over a
// farm engine's worker pool. Reports come back in input order; per-program
// failures are joined into the returned error while the surviving reports
// stay usable.

// resultFrom converts a farm result into the facade's Result type.
func resultFrom(fr *farm.Result) *Result {
	return &Result{Regs: fr.Regs, Output: fr.Output, Insts: fr.Insts, Pipe: fr.Pipe}
}

// FactorBatchOn runs the Figure 10 factoring toolchain for every composite
// in ns on e: programs are generated and assembled up front (reporting any
// generation error in that slot), then executed on the engine's pooled
// pipelines. The caller supplies the engine so it keeps the pools warm
// across batches and can attach observability (farm.Engine.SetObs) before
// running. Reports are in input order with nil slots for failures.
func FactorBatchOn(ctx context.Context, e *farm.Engine, ns []uint64, aBits, bBits int, copts compile.Options, pcfg pipeline.Config) ([]*FactorReport, farm.Stats, error) {
	pcfg.ConstantRegs = copts.ConstantRegs
	jobs := make([]farm.Job, 0, len(ns))
	type slot struct {
		n    uint64
		job  int // index into jobs, -1 when generation failed
		gen  *compile.FactorResult
		genE error
	}
	slots := make([]slot, len(ns))
	for i, n := range ns {
		slots[i] = slot{n: n, job: -1}
		gen, err := compile.FactorProgram(n, pcfg.Ways, aBits, bBits, copts)
		if err != nil {
			slots[i].genE = err
			continue
		}
		prog, err := asm.Assemble(gen.Asm)
		if err != nil {
			slots[i].genE = err
			continue
		}
		slots[i].gen = gen
		slots[i].job = len(jobs)
		jobs = append(jobs, farm.Job{
			Name: fmt.Sprintf("factor-%d", n), Prog: prog,
			Mode: farm.Pipelined, Pipeline: pcfg, MaxSteps: MaxSteps,
		})
	}
	frs, stats := e.Run(ctx, jobs)

	reports := make([]*FactorReport, len(ns))
	var errs []error
	for i := range slots {
		s := &slots[i]
		if s.genE != nil {
			errs = append(errs, fmt.Errorf("qasm: factoring %d: %w", s.n, s.genE))
			continue
		}
		fr := &frs[s.job]
		if fr.Err != nil {
			errs = append(errs, fmt.Errorf("qasm: factoring %d failed: %w", s.n, fr.Err))
			continue
		}
		rep, err := factorReport(s.n, s.gen, resultFrom(fr))
		if err != nil {
			errs = append(errs, err)
			continue
		}
		reports[i] = rep
	}
	return reports, stats, errors.Join(errs...)
}
