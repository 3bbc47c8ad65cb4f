// qatfarm drives the concurrent batch-execution engine (internal/farm): it
// factors a list of semiprimes in parallel through the full Figure 10
// toolchain, fanning the generated programs across a bounded worker pool of
// recycled Tangled/Qat machines, and reports per-job results plus aggregate
// farm statistics.
//
// Usage:
//
//	qatfarm [-workers N] [-stages N] [-ways N] [-abits N] [-bbits N]
//	        [-reuse] [-const-regs] [-memo] [-timeout D]
//	        [-metrics FILE] [-http ADDR] [-trace FILE] n1 [n2 ...]
//
// Examples:
//
//	qatfarm 15 21 33 35 51 65 77 85 91 95      # factor ten semiprimes in parallel
//	qatfarm -workers 2 -timeout 5s 221 187     # bounded concurrency and deadline
//	qatfarm -metrics - 15 21 35                # dump Prometheus text to stdout after the run
//	qatfarm -http :8080 -trace out.jsonl 221   # live /metrics + expvar + pprof, JSONL cycle trace
//
// Observability (-metrics/-http/-trace) is off by default and costs nothing
// when off: the farm and the machine models carry nil metric handles. With
// -metrics FILE the registry is rendered as Prometheus text exposition
// format after the batch ("-" for stdout); with -http ADDR the same
// registry is served live at /metrics alongside expvar (/debug/vars) and
// pprof (/debug/pprof/) for the duration of the run; with -trace FILE the
// last cycles of the pipelined jobs are exported as versioned JSONL (see
// docs/TRACE.md).
//
// -memo attaches the content-addressed execution cache (internal/memo) to
// the engine, so resubmitting an identical program replays the recorded
// outcome instead of re-executing; the farm stats line reports the hits.
//
// The farm stats line summarizes one run; it is not a benchmark. The
// repository's one performance harness is bench/ (run with `bash bench/run.sh`): its
// sim-factor16 workload runs the Figure 10 factoring programs through this
// same engine on the 5-stage pipeline, and bench/README.md records the
// current baselines.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"

	"tangled/internal/compile"
	"tangled/internal/farm"
	"tangled/internal/memo"
	"tangled/internal/obs"
	"tangled/internal/pipeline"
	"tangled/internal/qasm"
)

func main() {
	workers := flag.Int("workers", 0, "concurrent jobs (default GOMAXPROCS)")
	stages := flag.Int("stages", 5, "pipeline depth (4 or 5)")
	ways := flag.Int("ways", 0, "entanglement degree (default abits+bbits)")
	aBits := flag.Int("abits", 0, "first operand bits (default: fit the largest n)")
	bBits := flag.Int("bbits", 0, "second operand bits (default abits)")
	reuse := flag.Bool("reuse", true, "recycle Qat registers (needed beyond ~5x5 bits)")
	constRegs := flag.Bool("const-regs", false, "use the Section 5 constant-register bank")
	useMemo := flag.Bool("memo", false, "memoize executions in a content-addressed cache")
	timeout := flag.Duration("timeout", 0, "overall deadline for the batch (0 = none)")
	metricsOut := flag.String("metrics", "", "write Prometheus text metrics to FILE after the run (- for stdout)")
	httpAddr := flag.String("http", "", "serve /metrics, /debug/vars and /debug/pprof on ADDR during the run")
	traceOut := flag.String("trace", "", "write the pipeline cycle trace as JSONL to FILE")
	flag.Parse()

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: qatfarm [flags] n1 [n2 ...]")
		os.Exit(2)
	}
	ns := make([]uint64, flag.NArg())
	var biggest uint64
	for i, arg := range flag.Args() {
		n, err := strconv.ParseUint(arg, 0, 16)
		if err != nil || n < 4 {
			fatal(fmt.Errorf("bad n %q (need a composite >= 4)", arg))
		}
		ns[i] = n
		if n > biggest {
			biggest = n
		}
	}

	ab := *aBits
	if ab == 0 {
		for uint64(1)<<uint(ab) <= biggest {
			ab++
		}
	}
	bb := *bBits
	if bb == 0 {
		bb = ab
	}
	w := *ways
	if w == 0 {
		w = ab + bb
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	copts := compile.Options{Reuse: *reuse, ConstantRegs: *constRegs}
	pcfg := pipeline.Config{Stages: *stages, Ways: w, Forwarding: true, MulLatency: 1, QatNextLatency: 1}

	engine := farm.New(*workers)
	var reg *obs.Registry
	var ring *obs.TraceRing
	if *metricsOut != "" || *httpAddr != "" || *traceOut != "" {
		reg = obs.NewRegistry()
		o := farm.NewObs(reg)
		if *traceOut != "" {
			ring = obs.NewTraceRing(0)
			o.Trace = ring
		}
		engine.SetObs(o)
	}
	if *useMemo {
		cache := memo.New(0)
		cache.SetObs(memo.NewObs(reg)) // nil registry: counters stay off
		engine.SetMemo(cache)
	}
	if *httpAddr != "" {
		srv, addr, err := obs.Serve(*httpAddr, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "qatfarm: metrics at http://%s/metrics\n", addr)
		defer srv.Close()
	}

	reports, stats, err := qasm.FactorBatchOn(ctx, engine, ns, ab, bb, copts, pcfg)
	for i, n := range ns {
		rep := reports[i]
		if rep == nil {
			fmt.Printf("%d: FAILED\n", n)
			continue
		}
		line := fmt.Sprintf("%d = %d x %d", n, rep.Factors[0], rep.Factors[1])
		if s := rep.Result.Pipe; s != nil {
			line += fmt.Sprintf("   (%d qat insts, %d cycles, CPI %.3f)", rep.QatInsts, s.Cycles, s.CPI())
		}
		fmt.Println(line)
	}
	fmt.Println(stats)
	if *metricsOut != "" {
		if werr := obs.WriteFile(*metricsOut, reg.WritePrometheus); werr != nil {
			fatal(werr)
		}
	}
	if *traceOut != "" {
		if werr := obs.WriteFile(*traceOut, ring.WriteJSONL); werr != nil {
			fatal(werr)
		}
		if n := ring.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "qatfarm: trace ring dropped %d oldest events (capacity %d)\n", n, obs.DefaultTraceCap)
		}
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qatfarm:", err)
	os.Exit(1)
}
