package opt_test

// BenchmarkWideSubsetSum prices the recompiler on the paper's own wide
// workload: eight 16-item subset-sum programs compiled at 16 ways (the
// shape of bench/'s wide-auto20 workload) and run on the RE backend at 20
// ways. "optimize" is the cost of one rewrite; "run" and "run-optimized"
// are the executions it shortens. The insts_cut_% and word_ops_cut_%
// metrics are the static and dynamic shrink, averaged over the programs.
// docs/OPT.md records a measurement and why it keeps the recompiler off
// the served path:
//
//	go test ./internal/opt -run '^$' -bench WideSubsetSum -benchmem -cpu 1

import (
	"math/rand"
	"testing"

	"tangled/internal/asm"
	"tangled/internal/compile"
	"tangled/internal/cpu"
	"tangled/internal/obs"
	"tangled/internal/opt"
	"tangled/internal/qat"
)

const (
	wideWays   = 20
	wideBudget = 2_000_000
)

// wideSink keeps the measured Optimize calls live.
var wideSink *asm.Program

// wideSubsetSum compiles n subset-sum programs with weights drawn from
// [16, 32) and a target summed from a random nonempty subset.
func wideSubsetSum(b *testing.B, n int) []*asm.Program {
	r := rand.New(rand.NewSource(1))
	progs := make([]*asm.Program, n)
	for i := range progs {
		weights := make([]uint64, 16)
		var target uint64
		for j := range weights {
			weights[j] = uint64(16 + r.Intn(16))
			if r.Intn(2) == 1 || j == 0 {
				target += weights[j]
			}
		}
		sr, err := compile.SubsetSumProgram(weights, target, 16, compile.Options{Reuse: true})
		if err != nil {
			b.Fatal(err)
		}
		if progs[i], err = asm.Assemble(sr.Asm); err != nil {
			b.Fatal(err)
		}
	}
	return progs
}

// wideMachine builds a 20-way RE machine with word-op counters attached.
func wideMachine(b *testing.B) (*cpu.Machine, *qat.Metrics) {
	m, err := cpu.NewFromConfig(qat.Config{Ways: wideWays, Backend: qat.BackendRE})
	if err != nil {
		b.Fatal(err)
	}
	met := qat.NewMetrics(obs.NewRegistry())
	m.Qat.Metrics = met
	return m, met
}

// wideRun executes p and returns its final registers, retired
// instructions and AoB word operations.
func wideRun(b *testing.B, m *cpu.Machine, met *qat.Metrics, p *asm.Program) ([16]uint16, uint64, uint64) {
	before := met.WordOps.Value()
	if err := m.Load(p); err != nil {
		b.Fatal(err)
	}
	if err := m.Run(wideBudget); err != nil {
		b.Fatal(err)
	}
	return m.Regs, m.Stats.Insts, met.WordOps.Value() - before
}

func BenchmarkWideSubsetSum(b *testing.B) {
	progs := wideSubsetSum(b, 8)
	optd := make([]*asm.Program, len(progs))
	m, met := wideMachine(b)
	var instsCut, wordOpsCut float64
	for i, p := range progs {
		q, rep := opt.Optimize(p, opt.Options{Ways: wideWays})
		if !rep.Applied {
			b.Fatalf("program %d refused: %s", i, rep.Reason)
		}
		optd[i] = q
		pr, pi, pw := wideRun(b, m, met, p)
		qr, qi, qw := wideRun(b, m, met, q)
		if pr != qr {
			b.Fatalf("program %d: registers diverge\n  original:  %v\n  optimized: %v", i, pr, qr)
		}
		instsCut += 100 * float64(pi-qi) / float64(pi) / float64(len(progs))
		wordOpsCut += 100 * float64(pw-qw) / float64(pw) / float64(len(progs))
	}

	b.Run("optimize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wideSink, _ = opt.Optimize(progs[i%len(progs)], opt.Options{Ways: wideWays})
		}
		b.ReportMetric(instsCut, "insts_cut_%")
		b.ReportMetric(wordOpsCut, "word_ops_cut_%")
	})
	for _, tc := range []struct {
		name  string
		progs []*asm.Program
	}{{"run", progs}, {"run-optimized", optd}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				wideRun(b, m, met, tc.progs[i%len(tc.progs)])
			}
		})
	}
}
