package main

import (
	"context"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// batchSize is the program count of a batch operation.
const batchSize = 8

// isBatch reports whether operation k is a batch: of every 4 operations, 3
// run one program and 1 runs a batch of batchSize programs.
func isBatch(k int) bool { return k%4 == 3 }

// kindOf names operation k's kind, as used in metric and span names.
func kindOf(k int) string { return kindName(isBatch(k)) }

// entryIndex deals the operations of each kind over n entry points in
// blocks of n: each block gives every entry point one operation, in an
// order shuffled per block. Plain round-robin would give each entry point
// the same neighbouring operations, and so the same cache and GC state.
func entryIndex(k, n int) int {
	j, kind := k/4*3+k%4, uint64(0) // index among the run operations
	if isBatch(k) {
		j, kind = k/4, 1
	}
	block, pos := j/n, j%n
	key := func(e int) uint64 { return mix(int64(block), kind<<32|uint64(e)) }
	// The entry point of rank pos when the block's entry points are sorted
	// by their keys.
	for e := 0; e < n; e++ {
		rank := 0
		for f := 0; f < n; f++ {
			if key(f) < key(e) {
				rank++
			}
		}
		if rank == pos {
			return e
		}
	}
	return 0
}

// traceOp reports whether a traced window records operation k's spans: a
// fixed pseudo-random half of the operations, so the other half measures
// the same window without tracing.
func traceOp(k int) bool { return mix(0x7ace, uint64(k))&1 == 1 }

// outcome is one program's result, in a form every entry point produces.
type outcome struct {
	prog    int // the workload's program ID
	regs    [16]uint16
	output  string
	insts   uint64
	cycles  uint64 // pipelined runs only
	backend string
	planned bool   // the entry point only planned the program, it did not run it
	err     string // the program's own failure, empty on success
}

// entryPoint is one way into the system under test. Entry point 0 of every
// system is the path its users take; the others exist for the traced run.
type entryPoint struct {
	name string
	run  func(ctx context.Context, k int, tr *tracer) ([]outcome, error)
}

// opRecord is one operation of a measured window.
type opRecord struct {
	k       int
	entry   string
	latency time.Duration
	err     error // transport failure, refusal or non-2xx status
	outs    []outcome
	bad     string // set by the checker when a result is wrong
}

func (r *opRecord) failed() bool { return r.err != nil || r.bad != "" }

// programs is the number of programs operation k asks for.
func programs(k int) int {
	if isBatch(k) {
		return batchSize
	}
	return 1
}

// programIndex numbers the programs of all operations consecutively: it
// returns the number of program j of operation k.
func programIndex(k, j int) int { return k/4*(3+batchSize) + k%4 + j }

// window is what one closed-loop window measured.
type window struct {
	recs    []*opRecord // in operation order
	wall    time.Duration
	cpu     time.Duration // process user+sys CPU
	gcCPU   float64       // seconds of GC CPU, runtime estimate
	mallocs uint64        // heap allocations, client and server together
}

// childProcs is the GOMAXPROCS of every measuring process. The closed loop
// has one client, so the system runs on one core: per-operation costs are
// what the benchmark compares, and a loop that keeps every core of a shared
// host busy measures the neighbours' CPU steal more than the system.
const childProcs = 1

// runWindow drives a closed loop with one client for d: it runs operation
// first, first+1, ... each through one of entries (see entryIndex), and
// sends the next only when the previous has replied. The operation running
// when d elapses completes, and the window ends with it. A non-nil tracer
// records the spans of the operations traceOp selects.
func runWindow(ctx context.Context, entries []entryPoint, first int, d time.Duration, tr *tracer) window {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, gc0 := cpuTime(), gcCPUSeconds()
	var w window
	start := time.Now()
	// At least 4 operations, so both kinds are measured.
	for k := first; (k < first+4 || time.Since(start) < d) && ctx.Err() == nil; k++ {
		e := entries[entryIndex(k, len(entries))]
		var t *tracer
		if traceOp(k) {
			t = tr
		}
		t0 := time.Now()
		outs, err := e.run(ctx, k, t)
		w.recs = append(w.recs, &opRecord{k: k, entry: e.name, latency: time.Since(t0), err: err, outs: outs})
	}
	w.wall, w.cpu, w.gcCPU = time.Since(start), cpuTime()-cpu0, gcCPUSeconds()-gc0
	runtime.ReadMemStats(&ms1)
	w.mallocs = ms1.Mallocs - ms0.Mallocs
	return w
}

// latencies returns the latencies in ms of the window's operations of one
// kind through one entry point ("" for any entry point).
func (w *window) latencies(kind, entry string) []float64 {
	var ds []time.Duration
	for _, r := range w.recs {
		if kindOf(r.k) == kind && (entry == "" || r.entry == entry) {
			ds = append(ds, r.latency)
		}
	}
	return durationsMs(ds)
}

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set size in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// gcCPUSeconds returns the runtime's estimate of CPU spent in GC so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}
