package main

// Async job subcommands: submit / status / wait / cancel / events — the
// CLI face of POST /v1/jobs and GET /v1/events. submit prints the accepted
// record (or, with -wait, polls to the terminal one); events streams
// NDJSON lifecycle transitions to stdout, one JSON document per line, so
// the output pipes straight into jq or a log collector.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"tangled/internal/client"
	"tangled/internal/jobs"
	"tangled/internal/server"
)

// runFlags carries the shared run-shaped flags into run and submit.
type runFlags struct {
	mode      string
	ways      int
	stages    int
	constRegs bool
	backend   string
	timeout   time.Duration
	id        string
}

// request builds the RunRequest the flags describe for src.
func (rf runFlags) request(src string) server.RunRequest {
	req := server.RunRequest{
		ID: rf.id, Src: src, Mode: rf.mode,
		Ways: rf.ways, Stages: rf.stages, ConstRegs: rf.constRegs,
		Backend: rf.backend,
	}
	if rf.timeout > 0 {
		req.TimeoutMs = rf.timeout.Milliseconds()
	}
	return req
}

func cmdSubmit(ctx context.Context, c *client.Client, args []string,
	rf runFlags, tenant string, priority, weight int, wait bool) error {
	src, err := readSource(args)
	if err != nil {
		return err
	}
	req := server.JobRequest{
		RunRequest: rf.request(src),
		Tenant:     tenant,
		Priority:   priority,
		Weight:     weight,
	}
	st, err := c.SubmitJob(ctx, req)
	if err != nil {
		return err
	}
	if !wait {
		return printJSON(st)
	}
	final, err := c.WaitJob(ctx, st.ID)
	if err != nil {
		return err
	}
	return printJSON(final)
}

func oneJobID(args []string) (string, error) {
	if len(args) != 1 {
		return "", errors.New("need exactly one job ID")
	}
	return args[0], nil
}

func cmdJobStatus(ctx context.Context, c *client.Client, args []string) error {
	id, err := oneJobID(args)
	if err != nil {
		return err
	}
	st, err := c.Job(ctx, id)
	if err != nil {
		return err
	}
	return printJSON(st)
}

func cmdJobWait(ctx context.Context, c *client.Client, args []string) error {
	id, err := oneJobID(args)
	if err != nil {
		return err
	}
	st, err := c.WaitJob(ctx, id)
	if err != nil {
		return err
	}
	if err := printJSON(st); err != nil {
		return err
	}
	if st.State != string(jobs.StateCompleted) {
		return fmt.Errorf("job %s ended %s: %s", id, st.State, st.Reason)
	}
	return nil
}

func cmdJobCancel(ctx context.Context, c *client.Client, args []string) error {
	id, err := oneJobID(args)
	if err != nil {
		return err
	}
	st, err := c.CancelJob(ctx, id)
	if err != nil {
		return err
	}
	return printJSON(st)
}

func cmdEvents(ctx context.Context, c *client.Client, since uint64, follow bool) error {
	enc := json.NewEncoder(os.Stdout)
	return c.Events(ctx, since, follow, func(ev jobs.Event) bool {
		enc.Encode(&ev)
		return true
	})
}
