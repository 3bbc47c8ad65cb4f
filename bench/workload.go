package main

import (
	"bytes"
	"fmt"

	"tangled/internal/aob"
	"tangled/internal/asm"
	"tangled/internal/backend"
	"tangled/internal/cpu"
	"tangled/internal/farm"
	"tangled/internal/lint"
	"tangled/internal/obs"
	"tangled/internal/profile"
	"tangled/internal/qat"
)

// workload is one benchmark workload, its inputs already generated from the
// seed.
type workload interface {
	// setup constructs the system under test and returns once it is ready.
	// A traced system carries the system's own obs registries.
	setup(traced bool) (system, error)
	// check verifies the outcomes of recs against independent references,
	// setting bad on every wrong operation. It returns problems that belong
	// to no single operation and the workload's deterministic metrics.
	check(sys system, recs []*opRecord) (problems []string, metrics map[string]float64)
	// layers returns what the traced run's layer timing loops run.
	layers() layerInputs
}

// layerInputs are the workload's programs and machines as the traced run's
// layer timing loops use them.
type layerInputs struct {
	srcs []string
	// cfg configures the functional machine.
	cfg qat.Config
	// job is the workload's farm job for a program, and machine builds the
	// bench-owned machine that job runs on.
	job     func(*asm.Program) farm.Job
	machine func() (func(*asm.Program) outcome, error)
}

// system is a constructed, ready system under test.
type system interface {
	// entries lists the entry points; entry 0 is the users' path.
	entries() []entryPoint
	// registries returns the obs registries of a traced system.
	registries() []*obs.Registry
	// prepare readies the inputs of operations [first, first+n) so their
	// generation costs nothing inside the window.
	prepare(first, n int) error
	close() error
}

// workloadNames lists the workloads in their default order.
var workloadNames = []string{"sim-factor16", "wide-auto20", "serve-unique", "serve-repeat"}

// newWorkload generates the named workload's inputs from seed.
func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "sim-factor16":
		return newSimFactor16(seed)
	case "wide-auto20":
		return newWideAuto20(seed)
	case "serve-unique":
		return newServe(seed, false)
	case "serve-repeat":
		return newServe(seed, true)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// mix derives an independent 64-bit value from seed and i (splitmix64), so
// every generated input depends only on the seed and its own index.
func mix(seed int64, i uint64) uint64 {
	z := uint64(seed) + (i+1)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// functionalMachine returns a reusable functional machine for cfg: each
// call loads and runs one program from reset.
func functionalMachine(cfg qat.Config) (func(*asm.Program) outcome, error) {
	m, err := cpu.NewFromConfig(cfg)
	if err != nil {
		return nil, err
	}
	name := cfg.Backend
	if name == "" {
		name = qat.BackendDense
	}
	var out bytes.Buffer
	m.Out = &out
	return func(p *asm.Program) outcome {
		out.Reset()
		o := outcome{backend: name}
		if err := m.Load(p); err != nil {
			o.err = err.Error()
			return o
		}
		if err := m.Run(farm.DefaultMaxSteps); err != nil {
			o.err = err.Error()
		}
		o.regs, o.output, o.insts = m.Regs, out.String(), m.Stats.Insts
		return o
	}, nil
}

// planAuto resolves backend.Auto for prog at the given width the way
// backend.PlanAuto does, with the lint and profile passes as child spans of
// sp.
func planAuto(sp spanRef, prog *asm.Program, ways int, probe func(qat.Config) bool) (backend.Plan, error) {
	c := sp.child("lint.analyze")
	_, f := lint.AnalyzeWithFacts(prog, lint.Options{Ways: min(ways, aob.MaxWays)})
	c.end()
	c = sp.child("profile.compute")
	p := profile.Compute(f, profile.Options{Ways: ways})
	c.end()
	return backend.Decide(p, qat.Config{Ways: ways, Backend: backend.Auto}, probe)
}

// sameResult reports how o differs from the reference ref, or "".
func sameResult(o, ref outcome) string {
	switch {
	case o.regs != ref.regs:
		return fmt.Sprintf("program %d: registers %v, reference %v", o.prog, o.regs, ref.regs)
	case o.output != ref.output:
		return fmt.Sprintf("program %d: output %q, reference %q", o.prog, o.output, ref.output)
	case o.insts != ref.insts:
		return fmt.Sprintf("program %d: %d instructions, reference %d", o.prog, o.insts, ref.insts)
	}
	return ""
}

// checkEach applies f to every outcome of every successful operation and
// marks the operation bad on the first complaint. An operation that
// returned fewer outcomes than it asked for is bad too.
func checkEach(recs []*opRecord, f func(o outcome) string) {
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		if len(r.outs) != programs(r.k) {
			r.bad = fmt.Sprintf("%d results for %d programs", len(r.outs), programs(r.k))
			continue
		}
		for _, o := range r.outs {
			if o.err != "" {
				r.bad = fmt.Sprintf("program %d: %s", o.prog, o.err)
				break
			}
			if msg := f(o); msg != "" {
				r.bad = msg
				break
			}
		}
	}
}
