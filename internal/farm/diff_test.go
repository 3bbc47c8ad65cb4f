package farm_test

// The differential harness: seeded random Tangled+Qat programs (the shared
// corpus in internal/farm/farmtest) executed on the functional reference
// machine, the 4-stage pipeline, the 5-stage pipeline, and the farm (all
// three modes again, through the pooled concurrent engine), asserting
// bit-identical final architectural state. This is the verification lens
// applied to the whole simulator stack: any disagreement between the timing
// models, the reference semantics, or the concurrency/pooling layer fails
// with the offending program attached. internal/server extends the same
// corpus over HTTP (its diff test compares server responses against direct
// batch execution).

import (
	"strings"
	"testing"

	"tangled/internal/asm"
	"tangled/internal/cpu"
	"tangled/internal/farm"
	"tangled/internal/farm/farmtest"
	"tangled/internal/isa"
	"tangled/internal/pipeline"
)

const (
	diffPrograms = farmtest.Programs
	diffWays     = farmtest.Ways
	diffBudget   = farmtest.Budget
)

// machineDigest folds the complete architectural state — memory, all 256
// Qat registers, the Tangled register file and the PC — into one FNV-1a
// fingerprint.
func machineDigest(m *cpu.Machine) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		h ^= x
		h *= prime
	}
	for _, w := range m.Mem {
		mix(uint64(w))
	}
	for qa := 0; qa < isa.NumQRegs; qa++ {
		v := m.Qat.Reg(uint8(qa))
		for i := 0; i < v.NumWords(); i++ {
			mix(v.Word(i))
		}
	}
	for _, r := range m.Regs {
		mix(uint64(r))
	}
	mix(uint64(m.PC))
	return h
}

// snapshot is everything one execution produced.
type snapshot struct {
	regs   [16]uint16
	output string
	insts  uint64
	digest uint64
}

func runReference(t *testing.T, prog *asm.Program) snapshot {
	t.Helper()
	return runMachine(t, prog, cpu.New(diffWays))
}

// runMachine runs prog to completion on m directly, outside the farm.
func runMachine(t *testing.T, prog *asm.Program, m *cpu.Machine) snapshot {
	t.Helper()
	var out strings.Builder
	m.Out = &out
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(diffBudget); err != nil {
		t.Fatalf("functional run: %v", err)
	}
	return snapshot{regs: m.Regs, output: out.String(), insts: m.Stats.Insts, digest: machineDigest(m)}
}

func runPipe(t *testing.T, prog *asm.Program, cfg pipeline.Config) snapshot {
	t.Helper()
	p, err := pipeline.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	p.SetOutput(&out)
	if err := p.Load(prog); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(diffBudget); err != nil {
		t.Fatalf("%d-stage run: %v", cfg.Stages, err)
	}
	return snapshot{regs: p.Machine().Regs, output: out.String(), insts: p.Stats.Insts, digest: machineDigest(p.Machine())}
}

// pipeConfigs returns the two pipeline organizations for corpus index i,
// varying the timing knobs (which must never change semantics) with i.
func pipeConfigs(i int) (p4, p5 pipeline.Config) {
	p4 = pipeline.Config{Stages: 4, Ways: diffWays, Forwarding: true, MulLatency: 1, QatNextLatency: 1}
	p5 = pipeline.Config{Stages: 5, Ways: diffWays, Forwarding: true, MulLatency: 1, QatNextLatency: 1}
	if i%2 == 0 {
		p4.TwoWordFetchPenalty = true
	}
	if i%3 == 0 {
		p5.Forwarding = false
	}
	if i%5 == 0 {
		p5.MulLatency, p5.QatNextLatency = 3, 2
	}
	return p4, p5
}

// TestDifferentialFunctionalPipelineFarm is the harness's main entry: for
// every corpus program, the functional machine, both pipelines, and the
// farm-executed variants of all three must agree on registers, output and
// retired instruction count; the direct runs must also agree on memory and
// Qat state.
func TestDifferentialFunctionalPipelineFarm(t *testing.T) {
	engine := farm.New(0)
	for i := 0; i < diffPrograms; i++ {
		src := farmtest.Generate(farmtest.Seed(i))
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("program %d does not assemble: %v\n%s", i, err, src)
		}
		ref := runReference(t, prog)
		p4cfg, p5cfg := pipeConfigs(i)
		snaps := map[string]snapshot{
			"pipe4": runPipe(t, prog, p4cfg),
			"pipe5": runPipe(t, prog, p5cfg),
		}
		for name, s := range snaps {
			if s.digest != ref.digest {
				t.Fatalf("program %d: %s memory/Qat state diverged from functional\n%s", i, name, src)
			}
		}

		jobs := []farm.Job{
			{Name: "farm-func", Prog: prog, Mode: farm.Functional, Ways: diffWays},
			{Name: "farm-pipe4", Prog: prog, Mode: farm.Pipelined, Pipeline: p4cfg},
			{Name: "farm-pipe5", Prog: prog, Mode: farm.Pipelined, Pipeline: p5cfg},
		}
		results, _ := engine.Run(nil, jobs)
		for _, res := range results {
			if res.Err != nil {
				t.Fatalf("program %d, %s: %v\n%s", i, res.Name, res.Err, src)
			}
			snaps[res.Name] = snapshot{regs: res.Regs, output: res.Output, insts: res.Insts}
		}

		for name, s := range snaps {
			if s.regs != ref.regs {
				t.Fatalf("program %d: %s regs %v != functional %v\n%s", i, name, s.regs, ref.regs, src)
			}
			if s.output != ref.output {
				t.Fatalf("program %d: %s output %q != functional %q\n%s", i, name, s.output, ref.output, src)
			}
			if s.insts != ref.insts {
				t.Fatalf("program %d: %s retired %d != functional %d\n%s", i, name, s.insts, ref.insts, src)
			}
		}
	}
}
