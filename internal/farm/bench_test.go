package farm_test

// BenchmarkFarmThroughput measures the farm in jobs/s on the
// paper's two generated workloads (the Figure 10 factoring program and the
// subset-sum search), swept over worker counts 1/2/4/NumCPU. The
// repository benchmark (bench/) is the gated record; this sweep is for
// benchstat-style iteration during development.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"tangled/internal/asm"
	"tangled/internal/compile"
	"tangled/internal/farm"
	"tangled/internal/obs"
	"tangled/internal/pipeline"
)

// benchBatch is the number of jobs per Engine.Run call: large enough that
// fan-out cost amortizes, small enough that b.N batches stay quick.
const benchBatch = 32

func fig10Jobs(tb testing.TB) []farm.Job {
	res, err := compile.FactorProgram(15, 8, 4, 4, compile.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := asm.Assemble(res.Asm)
	if err != nil {
		tb.Fatal(err)
	}
	jobs := make([]farm.Job, benchBatch)
	for i := range jobs {
		jobs[i] = farm.Job{Name: fmt.Sprintf("factor15-%d", i), Prog: prog,
			Mode: farm.Pipelined, Pipeline: pipeline.StudentConfig()}
	}
	return jobs
}

func subsetSumJobs(tb testing.TB) []farm.Job {
	res, err := compile.SubsetSumProgram([]uint64{3, 5, 9, 14, 20, 27, 33, 41}, 50, 8, compile.Options{Reuse: true})
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := asm.Assemble(res.Asm)
	if err != nil {
		tb.Fatal(err)
	}
	jobs := make([]farm.Job, benchBatch)
	for i := range jobs {
		jobs[i] = farm.Job{Name: fmt.Sprintf("subset-%d", i), Prog: prog,
			Mode: farm.Functional, Ways: 8}
	}
	return jobs
}

func checkFig10(tb testing.TB, results []farm.Result) {
	for i := range results {
		if results[i].Err != nil {
			tb.Fatal(results[i].Err)
		}
		if results[i].Regs[4] != 5 || results[i].Regs[1] != 3 {
			tb.Fatalf("job %d factored 15 as %d x %d", i, results[i].Regs[4], results[i].Regs[1])
		}
	}
}

func workerSweep() []int {
	sweep := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		sweep = append(sweep, n)
	}
	return sweep
}

func BenchmarkFarmThroughput(b *testing.B) {
	workloads := []struct {
		name  string
		jobs  []farm.Job
		check func(testing.TB, []farm.Result)
	}{
		{"fig10-factor15", fig10Jobs(b), checkFig10},
		{"subsetsum8", subsetSumJobs(b), nil},
	}
	for _, wl := range workloads {
		for _, workers := range workerSweep() {
			b.Run(fmt.Sprintf("%s/workers=%d", wl.name, workers), func(b *testing.B) {
				engine := farm.New(workers)
				ctx := context.Background()
				b.ReportAllocs()
				b.ResetTimer()
				jobs := 0
				for i := 0; i < b.N; i++ {
					results, _ := engine.Run(ctx, wl.jobs)
					jobs += len(results)
					if wl.check != nil && i == 0 {
						b.StopTimer()
						wl.check(b, results)
						b.StartTimer()
					}
				}
				b.ReportMetric(float64(jobs)/b.Elapsed().Seconds(), "jobs/s")
			})
		}
	}
}

// BenchmarkFarmJob measures one job per Engine.Run call on the paper's
// full 16-way hardware, where a Qat register is 1024 words: the Figure 10
// factoring program for 143 (8x8-bit operands) on the default 5-stage
// pipeline. Unlike the 8-way throughput sweep, per-job machine reload
// (clearing the Qat registers the last run wrote) is visible here.
func BenchmarkFarmJob(b *testing.B) {
	res, err := compile.FactorProgram(143, 16, 8, 8, compile.Options{Reuse: true})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := asm.Assemble(res.Asm)
	if err != nil {
		b.Fatal(err)
	}
	jobs := []farm.Job{{Name: "factor143", Prog: prog, Mode: farm.Pipelined, Pipeline: pipeline.DefaultConfig()}}
	b.Run("fig10-factor16", func(b *testing.B) {
		engine := farm.New(1)
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			results, _ := engine.Run(ctx, jobs)
			if r := results[0]; r.Err != nil || r.Regs[4]*r.Regs[1] != 143 {
				b.Fatalf("factored 143 as %d x %d (err %v)", r.Regs[4], r.Regs[1], r.Err)
			}
		}
	})
}

// BenchmarkFarmThroughputObs is BenchmarkFarmThroughput's fig10 workload
// with the full observability hook-up attached (registry, farm Obs, shared
// cpu/qat/pipeline counters). Comparing the two benchmarks measures the
// instrumentation tax; the tentpole's budget is ~5% on throughput with
// metrics on, and zero when off (nil handles, checked by the base
// benchmark staying flat). CI's bench-guard step prints the delta.
func BenchmarkFarmThroughputObs(b *testing.B) {
	jobs := fig10Jobs(b)
	for _, workers := range workerSweep() {
		b.Run(fmt.Sprintf("fig10-factor15/workers=%d", workers), func(b *testing.B) {
			engine := farm.New(workers)
			engine.SetObs(farm.NewObs(obs.NewRegistry()))
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			n := 0
			for i := 0; i < b.N; i++ {
				results, _ := engine.Run(ctx, jobs)
				n += len(results)
				if i == 0 {
					b.StopTimer()
					checkFig10(b, results)
					b.StartTimer()
				}
			}
			b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkFarmSteadyStateAllocs isolates the pool's effect: after warmup,
// running a batch should allocate only per-job bookkeeping (results,
// buffers), never machine state (the 8-way Qat file alone is 8 KiB x 256
// registers).
func BenchmarkFarmSteadyStateAllocs(b *testing.B) {
	jobs := fig10Jobs(b)
	engine := farm.New(1)
	engine.Run(context.Background(), jobs) // warm the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Run(context.Background(), jobs)
	}
}
