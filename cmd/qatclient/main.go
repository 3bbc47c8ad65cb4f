// qatclient talks to a qatserver: submit one program, assemble remotely,
// poll health/buildinfo, or push a synthetic load through the serving
// stack as a smoke check.
//
// Usage:
//
//	qatclient -server URL run [-mode M] [-ways N] [-stages N] [-const-regs]
//	          [-backend dense|re|auto] [-timeout D] [-id ID] FILE.s  # or - for stdin
//	qatclient -server URL assemble FILE.s
//	qatclient -server URL health
//	qatclient -server URL buildinfo
//	qatclient -server URL submit [-tenant T] [-priority N] [-weight N]
//	          [-wait] [run flags] FILE.s       # async: POST /v1/jobs
//	qatclient -server URL status JOB-ID
//	qatclient -server URL wait JOB-ID          # poll until terminal
//	qatclient -server URL cancel JOB-ID
//	qatclient -server URL events [-since N] [-follow=false]
//	qatclient -server URL -load N [-concurrency C]
//
// Examples:
//
//	qatclient -server http://127.0.0.1:8080 run prog.s
//	echo 'lex $1,7' | qatclient -server http://127.0.0.1:8080 run -
//	qatclient -server http://127.0.0.1:8080 -load 200 -concurrency 16
//
// Load mode submits N requests (every fourth a /v1/batch of 2-4
// programs, the rest /v1/run, drawn from 32 programs of the shared
// random-program corpus) from C concurrent workers through the retrying
// client, prints "N requests, F failed" on stderr, and exits non-zero if
// any request or program result failed. It is a smoke check, not a
// benchmark: serving latency and throughput are measured by bench/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"tangled/internal/client"
	"tangled/internal/farm/farmtest"
	"tangled/internal/server"
)

func main() {
	serverURL := flag.String("server", "http://127.0.0.1:8080", "qatserver base URL")
	load := flag.Int("load", 0, "load smoke mode: total requests to send")
	concurrency := flag.Int("concurrency", 8, "load mode: concurrent workers")
	mode := flag.String("mode", "functional", "run: execution mode (functional or pipelined)")
	ways := flag.Int("ways", 0, "run: entanglement degree (0 = full hardware)")
	stages := flag.Int("stages", 0, "run: pipeline depth for -mode pipelined (4 or 5)")
	constRegs := flag.Bool("const-regs", false, "run: constant-register Qat variant")
	backendName := flag.String("backend", "", "run: Qat register file (dense, re, or auto — the server's planner picks and reports its choice)")
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
		if err := runLoad(c, *load, *concurrency); err != nil {
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
		backend: *backendName, timeout: *timeout, id: *reqID,
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
	res, err := c.Assemble(ctx, server.AssembleRequest{Src: src})
	if err != nil {
		return err
	}
	return printJSON(res)
}

// ---- load smoke ----

// runLoad fires total requests from conc workers: every fourth a
// /v1/batch of 2-4 programs, the rest /v1/run, drawn from 32 corpus
// programs. It fails if any request or program result failed.
func runLoad(c *client.Client, total, conc int) error {
	srcs := make([]string, 32)
	for i := range srcs {
		srcs[i] = farmtest.Generate(farmtest.Seed(i))
	}
	var failed atomic.Int64
	var wg sync.WaitGroup
	next := make(chan int)
	ctx := context.Background()
	for w := 0; w < max(conc, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := doOne(ctx, c, i, srcs); err != nil {
					failed.Add(1)
					fmt.Fprintf(os.Stderr, "qatclient: request %d: %v\n", i, err)
				}
			}
		}()
	}
	for i := 0; i < total; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	fmt.Fprintf(os.Stderr, "qatclient: %d requests, %d failed\n", total, failed.Load())
	if failed.Load() > 0 {
		return fmt.Errorf("%d of %d requests failed", failed.Load(), total)
	}
	return nil
}

// doOne sends request i, its sources rotating through srcs.
func doOne(ctx context.Context, c *client.Client, i int, srcs []string) error {
	req := func(k int) server.RunRequest {
		return server.RunRequest{Src: srcs[(i+k)%len(srcs)], Ways: farmtest.Ways}
	}
	if i%4 != 0 {
		res, err := c.Run(ctx, req(0))
		if err != nil {
			return err
		}
		if res.Error != "" {
			return fmt.Errorf("run result: %s", res.Error)
		}
		return nil
	}
	batch := server.BatchRequest{Programs: make([]server.RunRequest, 2+i%3)}
	for k := range batch.Programs {
		batch.Programs[k] = req(k)
	}
	results, err := c.Batch(ctx, batch)
	if err != nil {
		return err
	}
	for _, r := range results {
		if r.Error != "" {
			return fmt.Errorf("batch result %d: %s", r.Index, r.Error)
		}
	}
	return nil
}
