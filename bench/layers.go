package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"tangled/internal/aob"
	"tangled/internal/asm"
	"tangled/internal/backend"
	"tangled/internal/farm"
	"tangled/internal/lint"
	"tangled/internal/obs"
	"tangled/internal/profile"
	"tangled/internal/qat"
	"tangled/internal/re"
)

// Sinks keep the timed kernel calls from being optimized away.
var (
	sink    uint64
	sinkPat *re.Pattern
)

// kernelNs times f in batches for about d and returns the median batch's
// ns per call.
func kernelNs(d time.Duration, f func()) float64 {
	const batch = 64
	f()
	var ns []float64
	for start := time.Now(); time.Since(start) < d || len(ns) < 5; {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/batch)
	}
	return median(ns)
}

// kernelMetrics times the dense AoB kernels at 16 ways on HadVector
// operands and the RE kernels at 20 ways with 16-way chunks, each for
// about d.
func kernelMetrics(d time.Duration, m map[string]float64) {
	const ways = aob.MaxWays
	a, b, c := aob.HadVector(ways, 3), aob.HadVector(ways, 9), aob.HadVector(ways, 14)
	dst, o := aob.HadVector(ways, 5), aob.HadVector(ways, 7)
	ch, probe := uint64(12345), a.Channels()/3
	for _, k := range []struct {
		name string
		f    func()
	}{
		{"and", func() { dst.And(a, b) }},
		{"xor", func() { dst.Xor(a, b) }},
		{"not", func() { dst.Not() }},
		{"cnot", func() { dst.CNot(a) }},
		{"ccnot", func() { dst.CCNot(a, b) }},
		{"cswap", func() { dst.CSwap(o, c) }},
		{"had", func() { dst.Had(11) }},
		{"meas", func() { sink += a.Meas(ch) }},
		{"next", func() { sink += a.Next(probe) }},
		{"pop", func() { sink += a.Pop() }},
	} {
		m["aob."+k.name+"_ns"] = kernelNs(d, k.f)
	}

	sp := re.MustSpace(20, 16)
	p, q := sp.Had(3), sp.Had(18)
	rch, rprobe := uint64(777777), sp.Channels()/3
	for _, k := range []struct {
		name string
		f    func()
	}{
		{"and", func() { sinkPat = p.And(q) }},
		{"or", func() { sinkPat = p.Or(q) }},
		{"xor", func() { sinkPat = p.Xor(q) }},
		{"not", func() { sinkPat = p.Not() }},
		{"meas", func() { sink += p.Meas(rch) }},
		{"next", func() { sink += p.Next(rprobe) }},
		{"pop", func() { sink += p.Pop() }},
	} {
		m["re."+k.name+"_ns"] = kernelNs(d, k.f)
	}
}

// perCallUs calls f(i) for i = 0, 1, ... for about d and returns the
// median of the durations f reports, in µs.
func perCallUs(d time.Duration, f func(i int) time.Duration) float64 {
	var us []float64
	for start, i := time.Now(), 0; time.Since(start) < d || i < 5; i++ {
		us = append(us, float64(f(i).Nanoseconds())/1e3)
	}
	return median(us)
}

// since runs f and returns how long it took.
func since(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// layerLoops times one call into each layer's public function on the
// workload's own programs: assemble, lint, profile, plan, a functional
// machine run, and the workload's farm job against its bare machine (their
// difference is the farm's self time), each for about d, and records each
// median in m.
func layerLoops(ctx context.Context, d time.Duration, in layerInputs, m map[string]float64) error {
	srcs, cfg := in.srcs, in.cfg
	progs := make([]*asm.Program, len(srcs))
	for i, src := range srcs {
		p, err := asm.Assemble(src)
		if err != nil {
			return fmt.Errorf("assemble layer program %d: %w", i, err)
		}
		progs[i] = p
	}
	ways := cfg.Ways
	lopts := lint.Options{Ways: min(ways, aob.MaxWays)}
	n := len(progs)
	m["asm.assemble_us"] = perCallUs(d, func(i int) time.Duration {
		return since(func() { _, _ = asm.Assemble(srcs[i%n]) })
	})
	m["lint.analyze_us"] = perCallUs(d, func(i int) time.Duration {
		return since(func() { lint.AnalyzeWithFacts(progs[i%n], lopts) })
	})
	m["profile.compute_us"] = perCallUs(d, func(i int) time.Duration {
		_, f := lint.AnalyzeWithFacts(progs[i%n], lopts)
		return since(func() { profile.Compute(f, profile.Options{Ways: ways}) })
	})
	var planErr error
	m["backend.plan_us"] = perCallUs(d, func(i int) time.Duration {
		return since(func() {
			if _, err := backend.PlanAuto(progs[i%n], qat.Config{Ways: ways, Backend: backend.Auto}, nil); err != nil {
				planErr = err
			}
		})
	})
	if planErr != nil {
		return fmt.Errorf("plan layer program: %w", planErr)
	}
	run, err := functionalMachine(cfg)
	if err != nil {
		return err
	}
	var runErr string
	m["cpu.run_us"] = perCallUs(d, func(i int) time.Duration {
		var o outcome
		took := since(func() { o = run(progs[i%n]) })
		if o.err != "" {
			runErr = o.err
		}
		return took
	})
	if runErr != "" {
		return fmt.Errorf("functional layer run: %s", runErr)
	}

	bare, err := in.machine()
	if err != nil {
		return err
	}
	machineUs := perCallUs(d, func(i int) time.Duration {
		return since(func() { bare(progs[i%n]) })
	})
	eng := farm.New(1)
	var jobErr error
	jobUs := perCallUs(d, func(i int) time.Duration {
		return since(func() {
			rs, _ := eng.Run(ctx, []farm.Job{in.job(progs[i%n])})
			if rs[0].Err != nil {
				jobErr = rs[0].Err
			}
		})
	})
	if jobErr != nil {
		return fmt.Errorf("farm layer run: %w", jobErr)
	}
	m["farm.self_us"] = jobUs - machineUs
	return nil
}

// snapshot sums the numeric values of the registries' snapshots by name.
func snapshot(regs []*obs.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, r := range regs {
		for k, v := range r.Snapshot() {
			switch v := v.(type) {
			case uint64:
				out[k] += float64(v)
			case int64:
				out[k] += float64(v)
			case float64:
				out[k] += v
			}
		}
	}
	return out
}

// counterDelta returns after-before for every metric whose name starts
// with prefix, summed (vectors flatten to name{label="..."}).
func counterDelta(before, after map[string]float64, prefix string) float64 {
	var d float64
	for k, v := range after {
		if k == prefix || strings.HasPrefix(k, prefix+"{") {
			d += v - before[k]
		}
	}
	return d
}

// ratio is a/b, or NaN when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// tracedMetrics derives the per-layer metrics of a traced window from its
// spans and the registry counters over the window. Metrics a workload has
// no path for are left out.
func tracedMetrics(tr *tracer, w window, before, after map[string]float64, m map[string]float64) {
	d := func(prefix string) float64 { return counterDelta(before, after, prefix) }
	jobs := d("farm_jobs_done_total")
	m["qat.ops_per_program"] = ratio(d("qat_op_executed_total"), jobs)
	m["qat.word_ops_per_program"] = ratio(d("qat_aob_word_ops_total"), jobs)
	m["farm.pool_hit_frac"] = ratio(d("farm_pool_hits_total"), d("farm_pool_hits_total")+d("farm_pool_misses_total"))
	m["gc.cpu_frac"] = ratio(w.gcCPU, w.cpu.Seconds())

	if machine := tr.durationsUs("pipeline.run", "run"); len(machine) > 0 {
		m["pipeline.run_us"] = median(machine)
		m["pipeline.cycles_per_program"] = ratio(d("pipeline_cycles_total"), jobs)
		m["pipeline.stall_cycles_per_program"] = ratio(d("pipeline_stall_cycles_total"), jobs)
	}

	if len(tr.durationsUs("backend.plan", "")) > 0 {
		// The share of auto-planned programs that ran (or would run) on RE.
		var planned, onRE float64
		for _, r := range w.recs {
			for _, o := range r.outs {
				if o.backend != "" && r.entry != "machine" {
					planned++
					if o.backend == qat.BackendRE {
						onRE++
					}
				}
			}
		}
		m["backend.re_frac"] = ratio(onRE, planned)
	}

	if hits := d("memo_hits_total"); hits+d("memo_misses_total") > 0 {
		m["memo.hit_frac"] = ratio(hits, hits+d("memo_misses_total"))
		m["memo.probe_us"] = median(tr.durationsUs("memo.probe", ""))
		m["server.batch_jobs"] = ratio(d("server_coalesced_batch_jobs_sum"), d("server_coalesced_batch_jobs_count"))
	}
	for _, kind := range []string{"run", "batch"} {
		handler := tr.durationsUs("server.handler", kind)
		if len(handler) == 0 {
			continue
		}
		direct := tr.durationsUs("client.request", kind)
		m["server.handler_us."+kind] = median(handler)
		m["server.self_us."+kind] = selfTime(handler, tr.durationsUs("stages", kind))
		m["client.http_us."+kind] = median(direct)
		if routed := tr.durationsUs("cluster.request", kind); len(routed) > 0 {
			m["cluster.hop_us."+kind] = selfTime(routed, direct)
		}
	}
	if keyed := d("cluster_keyed_routes_total"); keyed > 0 {
		m["cluster.keyed_frac"] = ratio(keyed, keyed+d("cluster_unkeyed_routes_total"))
	}
}
