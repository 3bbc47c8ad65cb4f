package farm_test

// The differential harness extended to the RE backend: the same seeded
// corpus (internal/farm/farmtest) executed on the run-encoded register
// file — at several chunk/spill geometries — must reproduce the functional
// reference bit-for-bit: registers, output and retired instructions through
// the farm, and the full memory + Qat state digest on a direct machine of
// each geometry. This is the acceptance gate for promoting internal/re from
// a library to an execution backend.

import (
	"testing"

	"tangled/internal/asm"
	"tangled/internal/cpu"
	"tangled/internal/farm"
	"tangled/internal/farm/farmtest"
	"tangled/internal/qat"
)

// TestDifferentialREBackend runs every corpus program on the RE backend and
// compares against the functional reference. The chunk/spill geometry is
// varied with the corpus index so full-width chunks, multi-run patterns,
// and the spill path all see the whole corpus over a run.
func TestDifferentialREBackend(t *testing.T) {
	engine := farm.New(0)
	for i := 0; i < diffPrograms; i++ {
		src := farmtest.Generate(farmtest.Seed(i))
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("program %d does not assemble: %v\n%s", i, err, src)
		}
		ref := runReference(t, prog)

		// Three geometries: full-width chunks (single-run symbols), halved
		// chunks (real run structure), and halved chunks with a spill budget
		// of one (the spill path on almost every write).
		jobs := []farm.Job{
			{Name: "re-full", Prog: prog, Mode: farm.Functional, Ways: diffWays,
				Backend: "re"},
			{Name: "re-chunked", Prog: prog, Mode: farm.Functional, Ways: diffWays,
				Backend: "re", REChunkWays: diffWays / 2, RESpillRuns: -1},
			{Name: "re-spill", Prog: prog, Mode: farm.Functional, Ways: diffWays,
				Backend: "re", REChunkWays: diffWays / 2, RESpillRuns: 1},
		}
		results, _ := engine.Run(nil, jobs)
		for k, res := range results {
			if res.Err != nil {
				t.Fatalf("program %d, %s: %v\n%s", i, res.Name, res.Err, src)
			}
			if res.Regs != ref.regs {
				t.Fatalf("program %d: %s regs %v != functional %v\n%s", i, res.Name, res.Regs, ref.regs, src)
			}
			if res.Output != ref.output {
				t.Fatalf("program %d: %s output %q != functional %q\n%s", i, res.Name, res.Output, ref.output, src)
			}
			if res.Insts != ref.insts {
				t.Fatalf("program %d: %s retired %d != functional %d\n%s", i, res.Name, res.Insts, ref.insts, src)
			}
			m, err := cpu.NewFromConfig(qat.Config{Ways: diffWays, Backend: "re",
				ChunkWays: jobs[k].REChunkWays, SpillRuns: jobs[k].RESpillRuns})
			if err != nil {
				t.Fatal(err)
			}
			if runMachine(t, prog, m).digest != ref.digest {
				t.Fatalf("program %d: %s memory/Qat state diverged from functional\n%s", i, res.Name, src)
			}
		}
	}
}
