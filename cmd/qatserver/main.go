// qatserver serves the Qat execution fleet over HTTP: the networked face of
// internal/server. It accepts Tangled/Qat assembly or pre-assembled word
// images on POST /v1/run and /v1/batch, executes them on the concurrent
// farm, and streams results back as JSON/NDJSON, with admission control
// (bounded queue, 429 + Retry-After beyond it), dynamic batching of single
// submissions, per-request deadlines, and a graceful drain on
// SIGINT/SIGTERM: intake stops (healthz flips to 503), every admitted job
// finishes and delivers its response, and only then are metrics and the
// cycle trace flushed to disk.
//
// Usage:
//
//	qatserver [-addr HOST:PORT] [-workers N] [-queue N]
//	          [-batch-window D] [-batch-max N] [-memo-cap N]
//	          [-metrics FILE] [-trace FILE] [-drain-timeout D] [-quiet]
//	qatserver -cluster-coordinator -nodes URL,URL,... [-addr HOST:PORT]
//	          [-heartbeat D] [-fail-after N] [-replicas N]
//
// Examples:
//
//	qatserver                          # serve on 127.0.0.1:8080
//	qatserver -addr :9090 -workers 4   # all interfaces, four workers
//	qatserver -metrics m.prom -trace t.jsonl   # flush both on drain
//	qatserver -cluster-coordinator -nodes http://10.0.0.1:8080,http://10.0.0.2:8080
//
// With -cluster-coordinator the process serves no programs itself: it
// fronts the listed worker fleet, routing /v1/run and /v1/batch by memo
// key on a consistent-hash ring, probing each worker's /v1/healthz on a
// heartbeat, and aggregating /v1/healthz and /v1/buildinfo (docs/CLUSTER.md).
//
// The metrics registry is always on (it also backs GET /metrics and the
// /debug/ face); -metrics FILE additionally writes the Prometheus text
// rendering at shutdown ("-" for stdout). -trace FILE exports the pipeline
// cycle-trace ring as versioned JSONL (docs/TRACE.md), each row stamped
// with the request ID that produced it.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tangled/internal/obs"
	"tangled/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent jobs per farm batch (default GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue limit (default 256)")
	batchWindow := flag.Duration("batch-window", 0, "coalescer latency window (default 2ms)")
	batchMax := flag.Int("batch-max", 0, "max jobs per coalesced/chunked batch (default 64)")
	memoCap := flag.Int("memo-cap", 0, "execution cache capacity in programs (default 4096, negative disables)")
	metricsOut := flag.String("metrics", "", "write Prometheus text to FILE at shutdown (\"-\" for stdout)")
	traceOut := flag.String("trace", "", "write the cycle trace as JSONL to FILE at shutdown")
	portFile := flag.String("port-file", "", "write the bound address to FILE once listening (for -addr :0 scripting)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight work on shutdown")
	strictLint := flag.Bool("strict-lint", false, "refuse statically broken programs (error-severity lint findings) with 422 before admission")
	jobsDir := flag.String("jobs-dir", "", "enable the async job API (POST /v1/jobs, GET /v1/events) with a durable WAL-backed store in DIR; queued jobs survive restarts")
	jobsQueue := flag.Int("jobs-queue", 0, "async job queue limit (default 1024; needs -jobs-dir)")
	jobWorkers := flag.Int("jobs-workers", 0, "concurrent async jobs (default half of -workers; needs -jobs-dir)")
	quiet := flag.Bool("quiet", false, "suppress startup/drain log lines")
	clusterMode := flag.Bool("cluster-coordinator", false, "serve as a cluster coordinator over -nodes instead of executing programs")
	nodes := flag.String("nodes", "", "comma-separated worker base URLs (needs -cluster-coordinator)")
	heartbeat := flag.Duration("heartbeat", 0, "coordinator health-probe interval (default 500ms; needs -cluster-coordinator)")
	failAfter := flag.Int("fail-after", 0, "consecutive missed heartbeats before a node is evicted (default 3; needs -cluster-coordinator)")
	replicas := flag.Int("replicas", 0, "virtual nodes per worker on the hash ring (default 128; needs -cluster-coordinator)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "qatserver: unexpected arguments; see -h")
		os.Exit(2)
	}

	logf := func(format string, args ...interface{}) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "qatserver: "+format+"\n", args...)
		}
	}

	if *clusterMode {
		runCoordinator(coordinatorOpts{
			addr: *addr, nodes: *nodes, heartbeat: *heartbeat,
			failAfter: *failAfter, replicas: *replicas,
			metricsOut: *metricsOut, portFile: *portFile,
			drainTimeout: *drainTimeout, logf: logf,
		})
		return
	}
	if *nodes != "" {
		fmt.Fprintln(os.Stderr, "qatserver: -nodes needs -cluster-coordinator")
		os.Exit(2)
	}

	reg := obs.NewRegistry()
	var ring *obs.TraceRing
	if *traceOut != "" {
		ring = obs.NewTraceRing(0)
	}
	srv, err := server.New(server.Config{
		Workers:       *workers,
		QueueLimit:    *queue,
		BatchWindow:   *batchWindow,
		BatchMax:      *batchMax,
		MemoCap:       *memoCap,
		StrictLint:    *strictLint,
		JobsDir:       *jobsDir,
		JobQueueLimit: *jobsQueue,
		JobWorkers:    *jobWorkers,
		Registry:      reg,
		Trace:         ring,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "qatserver: %v\n", err)
		os.Exit(1)
	}
	bound, err := srv.Start(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qatserver: %v\n", err)
		os.Exit(1)
	}
	logf("serving on http://%s (%d workers, queue %d)",
		bound, srv.Engine().Workers(), srv.QueueLimit())
	if *portFile != "" {
		// The file appearing is the "listening" signal for scripts that
		// started us with -addr 127.0.0.1:0.
		if err := os.WriteFile(*portFile, []byte(bound.String()+"\n"), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "qatserver: port-file: %v\n", err)
			os.Exit(1)
		}
	}

	// Graceful drain on SIGINT/SIGTERM: stop intake, finish admitted work,
	// then flush observability artifacts. A second signal aborts hard.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	sig := <-sigCh
	logf("received %v, draining (timeout %v)", sig, *drainTimeout)
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "qatserver: second signal, aborting")
		os.Exit(1)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	exitCode := 0
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "qatserver: drain: %v\n", err)
		exitCode = 1
	}
	if *metricsOut != "" {
		if err := obs.WriteFile(*metricsOut, reg.WritePrometheus); err != nil {
			fmt.Fprintf(os.Stderr, "qatserver: metrics: %v\n", err)
			exitCode = 1
		}
	}
	if *traceOut != "" {
		if err := obs.WriteFile(*traceOut, ring.WriteJSONL); err != nil {
			fmt.Fprintf(os.Stderr, "qatserver: trace: %v\n", err)
			exitCode = 1
		} else if n := ring.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "qatserver: trace ring dropped %d oldest events\n", n)
		}
	}
	logf("drained cleanly")
	os.Exit(exitCode)
}
