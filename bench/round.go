package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"
)

const (
	// setupReps is how many times a round sets the system up; setup_s is
	// the median.
	setupReps = 7
	// maxWarm caps a round's warm-up. Half a second is hundreds of
	// operations and many collection cycles on every workload, and what a
	// round does not spend warming up it measures.
	maxWarm = 500 * time.Millisecond
	// warmBase and tracedBase offset the operation indexes of the warm-up
	// and traced windows, so every window gets its own inputs and the
	// measured window's inputs depend on the seed alone.
	warmBase   = 1 << 30
	tracedBase = 1 << 29
	// poolRate is the operation rate a window's pregenerated inputs cover,
	// about twice the fastest workload's rate on the reference machine. A
	// count fixed in advance keeps the inputs' share of peak_rss_mb the
	// same on every run; operations beyond it generate inputs on demand.
	poolRate = 800
)

// tracedWindow is the length of a traced round's window.
func tracedWindow(o options) time.Duration {
	return time.Duration(1.5 * o.seconds * float64(time.Second))
}

// poolOps is how many operations' inputs to generate for a window of d.
func poolOps(d time.Duration) int { return int(d.Seconds() * poolRate) }

// roundResult is what one round of one workload measured. A child process
// prints it as JSON.
type roundResult struct {
	Workload  string             `json:"workload"`
	Round     int                `json:"round"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
}

// windowTimes returns a round's timed window and warm-up durations. The
// warm-up is a quarter of the window, at most maxWarm.
func windowTimes(o options) (timed, warm time.Duration) {
	timed = time.Duration(o.seconds / float64(o.rounds) * float64(time.Second))
	return timed, min(timed/4, maxWarm)
}

// runRound sets the workload's system up, warms it, measures the users'
// path for one timed window (or with tracing, runs traceRound), checks
// every result and derives the round's metrics.
func runRound(ctx context.Context, o options, round int) (roundResult, error) {
	res := roundResult{Workload: o.workload, Round: round, Metrics: map[string]float64{}, Samples: map[string]int{}}
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return res, err
	}
	timed, warm := windowTimes(o)

	var sys system
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return res, fmt.Errorf("tear down: %w", err)
			}
		}
		runtime.GC() // so no earlier garbage is collected on set-up's clock
		t0 := time.Now()
		if sys, err = w.setup(o.trace); err != nil {
			return res, fmt.Errorf("set up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer sys.close()
	res.Metrics["setup_s"] = median(setups)

	// The users' path alone, or with tracing every entry point in turn.
	es := sys.entries()
	path := es[:1]
	if o.trace {
		path = es
	}
	if wm, ok := sys.(interface{ warm(context.Context) error }); ok {
		if err := wm.warm(ctx); err != nil {
			return res, err
		}
	}
	runWindow(ctx, path, warmBase, warm, nil)
	if !o.trace {
		if err := sys.prepare(0, poolOps(timed)); err != nil {
			return res, fmt.Errorf("prepare inputs: %w", err)
		}
		runtime.GC()
		win := runWindow(ctx, path, 0, timed, nil)
		res.Metrics["peak_rss_mb"] = peakRSSMiB()
		checkRound(w, sys, win.recs, &res)
		windowMetrics(win, res.Metrics, res.Samples)
	} else if err := traceRound(ctx, o, w, sys, path, &res); err != nil {
		return res, err
	}
	for k, v := range res.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(res.Metrics, k)
		}
	}
	return res, nil
}

// checkRound checks the results of recs and counts them into res.
func checkRound(w workload, sys system, recs []*opRecord, res *roundResult) {
	problems, extra := w.check(sys, recs)
	res.Problems = append(res.Problems, problems...)
	for _, r := range recs {
		res.Attempted++
		if !r.failed() {
			continue
		}
		res.Failed++
		if len(res.Problems) < 10 {
			msg := r.bad
			if r.err != nil {
				msg = r.err.Error()
			}
			res.Problems = append(res.Problems, fmt.Sprintf("op %d via %s: %s", r.k, r.entry, msg))
		}
	}
	for k, v := range extra {
		res.Metrics[k] = v
	}
}

// traceRound measures one window, 1.5 times the workload's timed
// seconds, over every entry point, with spans recorded for a seeded half of
// the operations (see traceOp). It checks every result, derives the
// per-layer metrics from the spans and the registries, times the layer and
// kernel loops, and reports each latency's tracing overhead as the users'
// path's p50 with spans against its p50 without, from the same window.
func traceRound(ctx context.Context, o options, w workload, sys system, path []entryPoint, res *roundResult) error {
	d := tracedWindow(o)
	if err := sys.prepare(tracedBase, poolOps(d)); err != nil {
		return fmt.Errorf("prepare inputs: %w", err)
	}
	tr := newTracer(o.workload)
	runtime.GC()
	before := snapshot(sys.registries())
	win := runWindow(ctx, path, tracedBase, d, tr)
	after := snapshot(sys.registries())
	checkRound(w, sys, win.recs, res)
	// The loops scale with the run: 100 ms per kernel at 12 timed seconds.
	loop := time.Duration(o.seconds / 120 * float64(time.Second))
	if err := layerLoops(ctx, 2*loop, w.layers(), res.Metrics); err != nil {
		return err
	}
	kernelMetrics(loop, res.Metrics)
	tracedMetrics(tr, win, before, after, res.Metrics)
	for _, kind := range []string{"run", "batch"} {
		res.Samples[kind] = len(win.latencies(kind, ""))
		var with, without []time.Duration
		for _, r := range win.recs {
			if kindOf(r.k) == kind && r.entry == path[0].name {
				if traceOp(r.k) {
					with = append(with, r.latency)
				} else {
					without = append(without, r.latency)
				}
			}
		}
		res.Metrics["trace_overhead_pct."+kind] = 100 * (median(durationsMs(with))/median(durationsMs(without)) - 1)
	}
	if o.spans != "" {
		if err := tr.appendSpans(o.spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return nil
}

// windowMetrics derives the end-to-end metrics of a checked window.
func windowMetrics(w window, m map[string]float64, samples map[string]int) {
	var failed, okPrograms, allPrograms int
	for _, r := range w.recs {
		allPrograms += programs(r.k)
		if r.failed() {
			failed++
		} else {
			okPrograms += programs(r.k)
		}
	}
	m["programs_per_cpu_s"] = ratio(float64(okPrograms), w.cpu.Seconds())
	m["programs_per_s"] = ratio(float64(okPrograms), w.wall.Seconds())
	m["allocs_per_program"] = ratio(float64(w.mallocs), float64(allPrograms))
	m["fail_frac"] = ratio(float64(failed), float64(len(w.recs)))
	for _, kind := range []string{"run", "batch"} {
		lat := w.latencies(kind, "")
		samples[kind] = len(lat)
		m[kind+"_p50_ms"] = median(lat)
		if v, p, ok := tailPercentile(lat); ok {
			m[fmt.Sprintf("%s_p%.0f_ms", kind, p)] = v
		}
	}
}
