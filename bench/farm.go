package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"

	"tangled/internal/asm"
	"tangled/internal/backend"
	"tangled/internal/compile"
	"tangled/internal/farm"
	"tangled/internal/obs"
	"tangled/internal/pipeline"
	"tangled/internal/qat"
)

// farmPrograms is the program count of each farm workload.
const farmPrograms = 8

// farmWorkload drives farm.Engine.Run directly: no HTTP, no memo.
type farmWorkload struct {
	srcs []string // the generated programs
	// job builds the farm job for one program.
	job func(p *asm.Program) farm.Job
	// machineSpan names the bench-owned machine's run span; newMachine
	// builds one such machine.
	machineSpan string
	newMachine  func() (func(*asm.Program) outcome, error)
	// planWays, when non-zero, adds the planner entry point at that width.
	planWays int
	// ref is the functional configuration of the reference and layer runs.
	ref qat.Config
	// checkOne verifies one outcome given the program's reference result.
	checkOne func(o, ref outcome) string
	// cpi reports the simulated cycles per instruction metric.
	cpi bool
}

// newSimFactor16 builds the Fig 10 factoring workload: 8 seeded semiprimes
// p*q < 256 (p < q primes), each compiled for 8x8-bit operands on 16 ways
// and run on the paper's 5-stage forwarding pipeline.
func newSimFactor16(seed int64) (*farmWorkload, error) {
	r := rand.New(rand.NewSource(seed))
	var primes []uint64
	for n := uint64(2); n < 128; n++ {
		prime := true
		for d := uint64(2); d*d <= n; d++ {
			if n%d == 0 {
				prime = false
				break
			}
		}
		if prime {
			primes = append(primes, n)
		}
	}
	var semi []uint64
	for i, p := range primes {
		for _, q := range primes[i+1:] {
			if p*q < 256 {
				semi = append(semi, p*q)
			}
		}
	}
	r.Shuffle(len(semi), func(i, j int) { semi[i], semi[j] = semi[j], semi[i] })
	ns := semi[:farmPrograms]
	w := &farmWorkload{
		job: func(p *asm.Program) farm.Job {
			return farm.Job{Prog: p, Mode: farm.Pipelined, Pipeline: pipeline.DefaultConfig()}
		},
		machineSpan: "pipeline.run",
		newMachine:  pipelineMachine,
		ref:         qat.Config{Ways: 16},
		cpi:         true,
	}
	for _, n := range ns {
		fr, err := compile.FactorProgram(n, 16, 8, 8, compile.Options{Reuse: true})
		if err != nil {
			return nil, fmt.Errorf("compile factor %d: %w", n, err)
		}
		w.srcs = append(w.srcs, fr.Asm)
	}
	w.checkOne = func(o, ref outcome) string {
		n := ns[o.prog]
		if uint64(o.regs[4])*uint64(o.regs[1]) != n {
			return fmt.Sprintf("factor %d: got %d x %d", n, o.regs[4], o.regs[1])
		}
		return sameResult(o, ref)
	}
	return w, nil
}

// newWideAuto20 builds the compressed-backend workload: 8 subset-sum
// programs, each over its own 16 seeded weights in [16, 31] (so every
// accumulator is 9 bits wide) and a seeded target, compiled at 16 ways and
// run functionally at 20 ways with backend "auto". Each target is the sum
// of a random non-empty subset, so it has at least one solution. The RE
// backend's cost depends on the data; independent weight sets average that
// out over the 8 programs.
func newWideAuto20(seed int64) (*farmWorkload, error) {
	const items, ways = 16, 20
	r := rand.New(rand.NewSource(seed))
	targets := make([]uint64, farmPrograms)
	count := make([]uint64, farmPrograms)  // brute-force solution counts
	lowest := make([]uint64, farmPrograms) // and lowest solution masks
	var srcs []string
	sums := make([]uint64, 1<<items)
	for p := range targets {
		weights := make([]uint64, items)
		for i := range weights {
			weights[i] = uint64(16 + r.Intn(16))
		}
		for mask := 1; mask < len(sums); mask++ {
			low := mask & -mask
			i := 0
			for 1<<i != low {
				i++
			}
			sums[mask] = sums[mask^low] + weights[i]
		}
		t := sums[1+r.Intn(len(sums)-1)]
		for mask := len(sums) - 1; mask >= 1; mask-- {
			if sums[mask] == t {
				count[p]++
				lowest[p] = uint64(mask)
			}
		}
		sr, err := compile.SubsetSumProgram(weights, t, 16, compile.Options{Reuse: true})
		if err != nil {
			return nil, fmt.Errorf("compile subset-sum %d: %w", t, err)
		}
		targets[p] = t
		srcs = append(srcs, sr.Asm)
	}
	w := &farmWorkload{
		job: func(p *asm.Program) farm.Job {
			return farm.Job{Prog: p, Ways: ways, Backend: backend.Auto}
		},
		machineSpan: "cpu.run",
		planWays:    ways,
		ref:         qat.Config{Ways: ways, Backend: qat.BackendRE},
		srcs:        srcs,
	}
	w.newMachine = func() (func(*asm.Program) outcome, error) { return functionalMachine(w.ref) }
	w.checkOne = func(o, ref outcome) string {
		i := o.prog
		switch {
		case o.backend == qat.BackendDense:
			return fmt.Sprintf("target %d: planned onto the dense backend at %d ways", targets[i], ways)
		case o.planned:
			return ""
		case uint64(o.regs[2]) != count[i]*16&0xFFFF:
			return fmt.Sprintf("target %d: $2=%d, want %d solutions x 16", targets[i], o.regs[2], count[i])
		case uint64(o.regs[1]) != lowest[i]:
			return fmt.Sprintf("target %d: $1=%d, want lowest solution %d", targets[i], o.regs[1], lowest[i])
		}
		return sameResult(o, ref)
	}
	return w, nil
}

// pipelineMachine returns a reusable 5-stage pipeline on the paper's
// default configuration.
func pipelineMachine() (func(*asm.Program) outcome, error) {
	p, err := pipeline.New(pipeline.DefaultConfig())
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	p.SetOutput(&out)
	return func(prog *asm.Program) outcome {
		out.Reset()
		var o outcome
		if err := p.Load(prog); err != nil {
			o.err = err.Error()
			return o
		}
		if err := p.Run(farm.DefaultMaxSteps); err != nil {
			o.err = err.Error()
		}
		m := p.Machine()
		o.regs, o.output, o.insts, o.cycles = m.Regs, out.String(), p.Stats.Insts, p.Stats.Cycles
		return o
	}, nil
}

// progsFor lists the programs operation k runs: all of them for a batch,
// else one, cycling so that every entry point sees every program.
func (w *farmWorkload) progsFor(k int) []int {
	if isBatch(k) {
		all := make([]int, farmPrograms)
		for i := range all {
			all[i] = i
		}
		return all
	}
	r := k/4*3 + k%4
	return []int{(r + r/farmPrograms) % farmPrograms}
}

func (w *farmWorkload) layers() layerInputs {
	return layerInputs{srcs: w.srcs, cfg: w.ref, job: w.job, machine: w.newMachine}
}

// farmSystem is a farm engine over the assembled programs.
type farmSystem struct {
	w       *farmWorkload
	eng     *farm.Engine
	progs   []*asm.Program
	reg     *obs.Registry
	machine func(*asm.Program) outcome // bench-owned, traced systems only
}

// setup builds the engine and assembles the programs; traced systems also
// get the engine's obs registry and the bench-owned machine.
func (w *farmWorkload) setup(traced bool) (system, error) {
	s := &farmSystem{w: w, eng: farm.New(0)}
	for i, src := range w.srcs {
		p, err := asm.Assemble(src)
		if err != nil {
			return nil, fmt.Errorf("assemble program %d: %w", i, err)
		}
		s.progs = append(s.progs, p)
	}
	if traced {
		s.reg = obs.NewRegistry()
		s.eng.SetObs(farm.NewObs(s.reg))
		m, err := w.newMachine()
		if err != nil {
			return nil, err
		}
		s.machine = m
	}
	return s, nil
}

func (s *farmSystem) entries() []entryPoint {
	es := []entryPoint{{"farm.run", s.farmRun}, {"machine", s.machineRun}}
	if s.w.planWays > 0 {
		es = append(es, entryPoint{"backend.plan", s.plan})
	}
	return es
}

func (s *farmSystem) registries() []*obs.Registry { return []*obs.Registry{s.reg} }
func (s *farmSystem) prepare(first, n int) error  { return nil }
func (s *farmSystem) close() error                { return nil }

// farmRun is the users' path: one Engine.Run call per operation.
func (s *farmSystem) farmRun(ctx context.Context, k int, tr *tracer) ([]outcome, error) {
	idx := s.w.progsFor(k)
	jobs := make([]farm.Job, len(idx))
	for i, p := range idx {
		jobs[i] = s.w.job(s.progs[p])
	}
	sp := tr.root(k, "farm.run")
	rs, _ := s.eng.Run(ctx, jobs)
	sp.end()
	outs := make([]outcome, len(rs))
	for i := range rs {
		o := outcome{prog: idx[i], regs: rs[i].Regs, output: rs[i].Output, insts: rs[i].Insts,
			backend: rs[i].Backend}
		if rs[i].Pipe != nil {
			o.cycles = rs[i].Pipe.Cycles
		}
		if rs[i].Err != nil {
			o.err = rs[i].Err.Error()
		}
		outs[i] = o
	}
	return outs, nil
}

// machineRun loads and runs the operation's programs on a bench-owned
// machine, skipping the engine.
func (s *farmSystem) machineRun(ctx context.Context, k int, tr *tracer) ([]outcome, error) {
	sp := tr.root(k, "machine")
	defer sp.end()
	var outs []outcome
	for _, p := range s.w.progsFor(k) {
		c := sp.child(s.w.machineSpan)
		o := s.machine(s.progs[p])
		c.end()
		o.prog = p
		outs = append(outs, o)
	}
	return outs, nil
}

// plan runs the auto-planner alone on the operation's programs.
func (s *farmSystem) plan(ctx context.Context, k int, tr *tracer) ([]outcome, error) {
	sp := tr.root(k, "backend.plan")
	defer sp.end()
	var outs []outcome
	for _, p := range s.w.progsFor(k) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		plan, err := planAuto(sp, s.progs[p], s.w.planWays, nil)
		if err != nil {
			return nil, fmt.Errorf("plan program %d: %w", p, err)
		}
		outs = append(outs, outcome{prog: p, backend: plan.Config.Backend, planned: true})
	}
	return outs, nil
}

// check applies the workload's rule to every outcome, including a
// comparison with a functional-machine reference run, and for pipelined
// runs requires identical cycle
// and instruction counts on every execution of a program.
func (w *farmWorkload) check(sys system, recs []*opRecord) ([]string, map[string]float64) {
	s := sys.(*farmSystem)
	run, err := functionalMachine(w.ref)
	if err != nil {
		return []string{err.Error()}, nil
	}
	refs := make([]outcome, len(s.progs))
	for i, p := range s.progs {
		refs[i] = run(p)
		if refs[i].err != "" {
			return []string{fmt.Sprintf("reference run of program %d: %s", i, refs[i].err)}, nil
		}
	}
	cycles := make([]uint64, len(s.progs))
	insts := make([]uint64, len(s.progs))
	checkEach(recs, func(o outcome) string {
		if msg := w.checkOne(o, refs[o.prog]); msg != "" || !w.cpi {
			return msg
		}
		if cycles[o.prog] == 0 {
			cycles[o.prog], insts[o.prog] = o.cycles, o.insts
		} else if o.cycles != cycles[o.prog] || o.insts != insts[o.prog] {
			return fmt.Sprintf("program %d: %d cycles / %d insts, earlier %d / %d",
				o.prog, o.cycles, o.insts, cycles[o.prog], insts[o.prog])
		}
		return ""
	})
	if !w.cpi {
		return nil, nil
	}
	var cpi float64
	for i := range cycles {
		if insts[i] == 0 {
			return []string{fmt.Sprintf("program %d never completed", i)}, nil
		}
		cpi += float64(cycles[i]) / float64(insts[i])
	}
	return nil, map[string]float64{"sim_cpi": cpi / float64(len(cycles))}
}
