package main

// Coordinator mode: qatserver -cluster-coordinator fronts a worker fleet
// (internal/cluster) instead of executing programs itself. The process
// lifecycle mirrors worker mode — -port-file as the "listening" signal,
// SIGINT/SIGTERM graceful drain (new work refused with 503 while in-flight
// forwards finish), metrics flushed at shutdown.

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tangled/internal/cluster"
	"tangled/internal/obs"
)

type coordinatorOpts struct {
	addr         string
	nodes        string
	heartbeat    time.Duration
	failAfter    int
	replicas     int
	metricsOut   string
	portFile     string
	drainTimeout time.Duration
	logf         func(string, ...interface{})
}

func runCoordinator(opts coordinatorOpts) {
	var urls []string
	for _, u := range strings.Split(opts.nodes, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "qatserver: -cluster-coordinator needs -nodes URL,URL,...")
		os.Exit(2)
	}
	reg := obs.NewRegistry()
	co, err := cluster.New(cluster.Config{
		Nodes:             urls,
		Replicas:          opts.replicas,
		HeartbeatInterval: opts.heartbeat,
		FailAfter:         opts.failAfter,
		Registry:          reg,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "qatserver: %v\n", err)
		os.Exit(1)
	}
	bound, err := co.Start(opts.addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qatserver: %v\n", err)
		os.Exit(1)
	}
	opts.logf("coordinating %d worker nodes on http://%s", len(urls), bound)
	if opts.portFile != "" {
		if err := os.WriteFile(opts.portFile, []byte(bound.String()+"\n"), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "qatserver: port-file: %v\n", err)
			os.Exit(1)
		}
	}

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	sig := <-sigCh
	opts.logf("received %v, draining (timeout %v)", sig, opts.drainTimeout)
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "qatserver: second signal, aborting")
		os.Exit(1)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), opts.drainTimeout)
	defer cancel()
	exitCode := 0
	if err := co.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "qatserver: drain: %v\n", err)
		exitCode = 1
	}
	if opts.metricsOut != "" {
		if err := obs.WriteFile(opts.metricsOut, reg.WritePrometheus); err != nil {
			fmt.Fprintf(os.Stderr, "qatserver: metrics: %v\n", err)
			exitCode = 1
		}
	}
	opts.logf("drained cleanly")
	os.Exit(exitCode)
}
