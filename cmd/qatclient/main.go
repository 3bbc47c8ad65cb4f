// qatclient talks to a qatserver: submit one program, assemble remotely,
// poll health/buildinfo, or drive a synthetic load against the serving
// stack and record the measured throughput/latency distribution.
//
// Usage:
//
//	qatclient -server URL run [-mode M] [-ways N] [-stages N] [-const-regs]
//	          [-backend dense|re|auto] [-chunk-ways N] [-spill-runs N]
//	          [-timeout D] [-id ID] FILE.s     # or - for stdin
//	qatclient -server URL assemble FILE.s
//	qatclient -server URL health
//	qatclient -server URL buildinfo
//	qatclient -server URL submit [-tenant T] [-priority N] [-weight N]
//	          [-wait] [run flags] FILE.s       # async: POST /v1/jobs
//	qatclient -server URL status JOB-ID
//	qatclient -server URL wait JOB-ID          # poll until terminal
//	qatclient -server URL cancel JOB-ID
//	qatclient -server URL events [-since N] [-follow=false]
//	qatclient -server URL -load N [-concurrency C] [-batch-frac F]
//	          [-memo] [-saturate] [-out BENCH_server.json]
//
// Examples:
//
//	qatclient -server http://127.0.0.1:8080 run prog.s
//	echo 'lex $1,7' | qatclient -server http://127.0.0.1:8080 run -
//	qatclient -server http://127.0.0.1:8080 -load 200 -concurrency 16
//
// Load mode submits N requests (a mix of /v1/run and /v1/batch drawn from
// the shared random-program corpus) from C concurrent workers through the
// retrying client, then writes BENCH_server.json: request counts by
// status, throughput, and the client-observed latency distribution.
// -saturate adds a deliberate burst against a tiny admission queue to
// exercise the 429 path; those rejections are reported separately and do
// not count as failures. -memo skews the mix to ~90% repeats of a hot
// program set — the shape that exercises the server's execution cache —
// and the report's cached_results field counts how many results came back
// with the cached flag (tallied whether or not -memo is set).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tangled/internal/client"
	"tangled/internal/farm/farmtest"
	"tangled/internal/server"
)

func main() {
	serverURL := flag.String("server", "http://127.0.0.1:8080", "qatserver base URL")
	load := flag.Int("load", 0, "load-generator mode: total requests to send")
	concurrency := flag.Int("concurrency", 8, "load mode: concurrent workers")
	batchFrac := flag.Float64("batch-frac", 0.25, "load mode: fraction of requests sent as /v1/batch")
	saturate := flag.Bool("saturate", false, "load mode: add a burst phase expecting 429 backpressure")
	memoMix := flag.Bool("memo", false, "load mode: ~90%-repeat mix that exercises the server's execution cache")
	out := flag.String("out", "BENCH_server.json", "load mode: report file (\"-\" for stdout)")
	mode := flag.String("mode", "functional", "run: execution mode (functional or pipelined)")
	ways := flag.Int("ways", 0, "run: entanglement degree (0 = full hardware)")
	stages := flag.Int("stages", 0, "run: pipeline depth for -mode pipelined (4 or 5)")
	constRegs := flag.Bool("const-regs", false, "run: constant-register Qat variant")
	backendName := flag.String("backend", "", "run: Qat register file (dense, re, or auto — the server's planner picks and reports its choice)")
	chunkWays := flag.Int("chunk-ways", 0, "run: re backend symbol chunk width (0 = server default)")
	spillRuns := flag.Int("spill-runs", 0, "run: re backend dense-spill run budget (0 = server default, negative disables)")
	timeout := flag.Duration("timeout", 0, "run: per-program execution deadline")
	reqID := flag.String("id", "", "run: explicit request ID")
	tenant := flag.String("tenant", "", "submit: fair-queuing tenant (default \"default\")")
	priority := flag.Int("priority", 0, "submit: within-tenant priority (higher runs first)")
	weight := flag.Int("weight", 0, "submit: tenant fair-share weight (default 1)")
	wait := flag.Bool("wait", false, "submit: block until the job is terminal and print the final record")
	since := flag.Uint64("since", 0, "events: replay buffered events after this sequence number")
	follow := flag.Bool("follow", true, "events: keep streaming live events after the replay")
	flag.Parse()

	c := client.New(*serverURL)
	if *load > 0 {
		if err := runLoad(c, *load, *concurrency, *batchFrac, *memoMix, *saturate, *out, *serverURL); err != nil {
			fmt.Fprintf(os.Stderr, "qatclient: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "qatclient: need a command (run, assemble, health, buildinfo, submit, status, wait, cancel, events) or -load N; see -h")
		os.Exit(2)
	}
	ctx := context.Background()
	var err error
	rf := runFlags{
		mode: *mode, ways: *ways, stages: *stages, constRegs: *constRegs,
		backend: *backendName, chunkWays: *chunkWays, spillRuns: *spillRuns,
		timeout: *timeout, id: *reqID,
	}
	switch cmd := flag.Arg(0); cmd {
	case "run":
		err = cmdRun(ctx, c, flag.Args()[1:], rf)
	case "assemble":
		err = cmdAssemble(ctx, c, flag.Args()[1:])
	case "submit":
		err = cmdSubmit(ctx, c, flag.Args()[1:], rf, *tenant, *priority, *weight, *wait)
	case "status":
		err = cmdJobStatus(ctx, c, flag.Args()[1:])
	case "wait":
		err = cmdJobWait(ctx, c, flag.Args()[1:])
	case "cancel":
		err = cmdJobCancel(ctx, c, flag.Args()[1:])
	case "events":
		err = cmdEvents(ctx, c, *since, *follow)
	case "health":
		// The superset decoder works against worker and coordinator alike:
		// a plain worker simply has no node rows, so print the flat shape.
		var h server.ClusterHealth
		if h, err = c.ClusterHealth(ctx); err == nil {
			if len(h.Nodes) == 0 {
				err = printJSON(h.Health)
			} else {
				err = printJSON(h)
			}
		}
	case "buildinfo":
		var bi server.ClusterBuildInfo
		if bi, err = c.ClusterBuildInfo(ctx); err == nil {
			if len(bi.Nodes) == 0 {
				err = printJSON(bi.BuildInfo)
			} else {
				err = printJSON(bi)
			}
		}
	default:
		err = fmt.Errorf("unknown command %q", cmd)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "qatclient: %v\n", err)
		os.Exit(1)
	}
}

func readSource(args []string) (string, error) {
	if len(args) != 1 {
		return "", errors.New("need exactly one source file (or - for stdin)")
	}
	if args[0] == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(args[0])
	return string(b), err
}

func printJSON(v interface{}) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func cmdRun(ctx context.Context, c *client.Client, args []string, rf runFlags) error {
	src, err := readSource(args)
	if err != nil {
		return err
	}
	res, err := c.Run(ctx, rf.request(src))
	if err != nil {
		return err
	}
	return printJSON(res)
}

func cmdAssemble(ctx context.Context, c *client.Client, args []string) error {
	src, err := readSource(args)
	if err != nil {
		return err
	}
	res, err := c.Assemble(ctx, src)
	if err != nil {
		return err
	}
	return printJSON(res)
}

// ---- load generator ----

// benchReport is the schema of BENCH_server.json.
type benchReport struct {
	Benchmark   string  `json:"benchmark"`
	Server      string  `json:"server"`
	Generated   string  `json:"generated"`
	GoVersion   string  `json:"go_version"`
	NumCPU      int     `json:"num_cpu"`
	Requests    int     `json:"requests"`
	Concurrency int     `json:"concurrency"`
	BatchFrac   float64 `json:"batch_frac"`

	OK        int64 `json:"ok"`
	Failed    int64 `json:"failed"`
	Programs  int64 `json:"programs"`
	Rejected  int64 `json:"saturation_429s"`
	Saturated bool  `json:"saturate_phase"`
	// MemoMix records whether -memo shaped the request stream; Cached
	// counts program results the server answered from its execution cache.
	MemoMix bool  `json:"memo_mix"`
	Cached  int64 `json:"cached_results"`

	WallSeconds float64 `json:"wall_seconds"`
	ReqPerSec   float64 `json:"req_per_sec"`
	ProgPerSec  float64 `json:"prog_per_sec"`

	LatencyMsP50 float64 `json:"latency_ms_p50"`
	LatencyMsP90 float64 `json:"latency_ms_p90"`
	LatencyMsP99 float64 `json:"latency_ms_p99"`
	LatencyMsMax float64 `json:"latency_ms_max"`
}

// runLoad fires total requests from conc workers: a mixed stream of single
// runs and small batches over the shared corpus, every program's result
// checked for an execution error.
func runLoad(c *client.Client, total, conc int, batchFrac float64, memoMix, saturate bool, outPath, serverURL string) error {
	if conc < 1 {
		conc = 1
	}
	// Pre-generate the program mix so workers only do I/O under timing.
	// With -memo the hot set shrinks and every tenth request gets a program
	// no other request shares, approximating a 90%-repeat serving stream.
	hot := 32
	if memoMix {
		hot = 8
	}
	srcs := make([]string, hot)
	for i := range srcs {
		srcs[i] = farmtest.Generate(farmtest.Seed(i))
	}
	unique := func(i int) string { return farmtest.Generate(farmtest.Seed(10_000 + i)) }

	var ok, failed, programs, cached atomic.Int64
	latencies := make([]float64, total) // ms, indexed by request number
	var wg sync.WaitGroup
	next := make(chan int)

	ctx := context.Background()
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t0 := time.Now()
				err := doOne(ctx, c, i, srcs, unique, memoMix, batchFrac, &programs, &cached)
				latencies[i] = float64(time.Since(t0).Microseconds()) / 1000
				if err != nil {
					failed.Add(1)
					fmt.Fprintf(os.Stderr, "qatclient: request %d: %v\n", i, err)
				} else {
					ok.Add(1)
				}
			}
		}()
	}
	for i := 0; i < total; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	wall := time.Since(start)

	var rejected int64
	if saturate {
		rejected = saturationBurst(ctx, serverURL, srcs[0])
	}

	sort.Float64s(latencies)
	pct := func(p float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		idx := int(p * float64(len(latencies)-1))
		return latencies[idx]
	}
	report := benchReport{
		Benchmark:   "qatserver-load",
		Server:      serverURL,
		Generated:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Requests:    total,
		Concurrency: conc,
		BatchFrac:   batchFrac,
		OK:          ok.Load(),
		Failed:      failed.Load(),
		Programs:    programs.Load(),
		Rejected:    rejected,
		Saturated:   saturate,
		MemoMix:     memoMix,
		Cached:      cached.Load(),
		WallSeconds: wall.Seconds(),
		ReqPerSec:   float64(total) / wall.Seconds(),
		ProgPerSec:  float64(programs.Load()) / wall.Seconds(),

		LatencyMsP50: pct(0.50),
		LatencyMsP90: pct(0.90),
		LatencyMsP99: pct(0.99),
		LatencyMsMax: pct(1.0),
	}

	var out io.Writer = os.Stdout
	if outPath != "-" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"qatclient: %d ok, %d failed, %d programs (%d cached) in %.2fs (%.1f req/s, %.1f prog/s), p50 %.1fms p99 %.1fms\n",
		report.OK, report.Failed, report.Programs, report.Cached, report.WallSeconds,
		report.ReqPerSec, report.ProgPerSec, report.LatencyMsP50, report.LatencyMsP99)
	if failed.Load() > 0 {
		return fmt.Errorf("%d of %d requests failed", failed.Load(), total)
	}
	return nil
}

// doOne sends request i: mostly single runs, every 1/batchFrac-th a small
// batch, ways and source rotating through the corpus. With memoMix every
// tenth program slot draws a never-repeated source instead of the hot set.
func doOne(ctx context.Context, c *client.Client, i int, srcs []string, unique func(int) string,
	memoMix bool, batchFrac float64, programs, cached *atomic.Int64) error {
	src := func(k int) string {
		if memoMix && (i+k)%10 == 9 {
			return unique(i + k)
		}
		return srcs[(i+k)%len(srcs)]
	}
	isBatch := batchFrac > 0 && int(1/batchFrac) > 0 && i%int(1/batchFrac) == 0
	if !isBatch {
		res, err := c.Run(ctx, server.RunRequest{
			Src:  src(0),
			Ways: farmtest.Ways,
		})
		if err != nil {
			return err
		}
		programs.Add(1)
		if res.Cached {
			cached.Add(1)
		}
		if res.Error != "" {
			return fmt.Errorf("run result: %s", res.Error)
		}
		return nil
	}
	n := 2 + i%3
	batch := server.BatchRequest{Programs: make([]server.RunRequest, n)}
	for k := 0; k < n; k++ {
		batch.Programs[k] = server.RunRequest{
			Src:  src(k),
			Ways: farmtest.Ways,
		}
	}
	results, err := c.Batch(ctx, batch)
	if err != nil {
		return err
	}
	programs.Add(int64(len(results)))
	for _, r := range results {
		if r.Cached {
			cached.Add(1)
		}
		if r.Error != "" {
			return fmt.Errorf("batch result %d: %s", r.Index, r.Error)
		}
	}
	return nil
}

// saturationBurst fires a no-retry burst to provoke 429s and reports how
// many came back — evidence the admission control actually engages. Runs
// against whatever queue the server has; with a production-sized queue it
// may observe zero.
func saturationBurst(ctx context.Context, serverURL, src string) int64 {
	raw := client.NewWith(client.Config{BaseURL: serverURL, MaxRetries: -1})
	var rejected atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := raw.Run(ctx, server.RunRequest{Src: src, Ways: farmtest.Ways})
			var apiErr *client.APIError
			if errors.As(err, &apiErr) && apiErr.Status == 429 {
				rejected.Add(1)
			}
		}()
	}
	wg.Wait()
	return rejected.Load()
}
