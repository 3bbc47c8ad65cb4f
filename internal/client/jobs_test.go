package client

// Tests of the async job client against a real in-process server (the same
// StartLocal discipline as TestAgainstRealServer): submit → wait round
// trips, client-side ID minting, cancel, and the events stream with header
// validation, since-replay and early stop.

import (
	"context"
	"testing"
	"time"

	"tangled/internal/jobs"
	"tangled/internal/server"
)

func startJobServer(t *testing.T) (*server.Server, *Client) {
	t.Helper()
	s, err := server.New(server.Config{JobsDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.StartLocal()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, New(base)
}

func TestJobRoundTrip(t *testing.T) {
	_, c := startJobServer(t)
	ctx := context.Background()

	st, err := c.SubmitJob(ctx, server.JobRequest{
		RunRequest: server.RunRequest{ID: "cj1", Src: "lex $1,9\nlex $0,0\nsys\n"},
		Tenant:     "acme",
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.ID != "cj1" || st.Tenant != "acme" {
		t.Fatalf("accepted record %+v", st)
	}
	fin, err := c.WaitJob(ctx, "cj1")
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if fin.State != string(jobs.StateCompleted) || fin.Result == nil || fin.Result.Regs[1] != 9 {
		t.Fatalf("final record %+v", fin)
	}
	// Direct status fetch agrees.
	got, err := c.Job(ctx, "cj1")
	if err != nil || got.State != fin.State {
		t.Fatalf("status: %+v, %v", got, err)
	}
}

func TestSubmitJobMintsID(t *testing.T) {
	_, c := startJobServer(t)
	st, err := c.SubmitJob(context.Background(), server.JobRequest{
		RunRequest: server.RunRequest{Src: "lex $0,0\nsys\n"},
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.ID == "" {
		t.Fatal("no client-minted job ID")
	}
	if _, err := c.WaitJob(context.Background(), st.ID); err != nil {
		t.Fatalf("wait on minted ID: %v", err)
	}
}

func TestCancelJobUnknownIs404(t *testing.T) {
	_, c := startJobServer(t)
	if _, err := c.CancelJob(context.Background(), "ghost"); err == nil {
		t.Fatal("cancel of unknown job succeeded")
	}
}

func TestEventsReplayAndStop(t *testing.T) {
	_, c := startJobServer(t)
	ctx := context.Background()
	if _, err := c.SubmitJob(ctx, server.JobRequest{
		RunRequest: server.RunRequest{ID: "ev1", Src: "lex $0,0\nsys\n"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitJob(ctx, "ev1"); err != nil {
		t.Fatal(err)
	}

	// follow=false returns the buffered lifecycle and ends cleanly.
	var evs []jobs.Event
	if err := c.Events(ctx, 0, false, func(ev jobs.Event) bool {
		evs = append(evs, ev)
		return true
	}); err != nil {
		t.Fatalf("events: %v", err)
	}
	if len(evs) != 3 {
		t.Fatalf("replayed %d events, want 3: %+v", len(evs), evs)
	}
	want := []string{jobs.EventSubmitted, jobs.EventStarted, jobs.EventCompleted}
	for i, ev := range evs {
		if ev.Type != want[i] || ev.Job != "ev1" {
			t.Fatalf("event %d = %+v, want %s", i, ev, want[i])
		}
	}

	// since-replay resumes past a cursor.
	var rest []jobs.Event
	if err := c.Events(ctx, evs[0].Seq, false, func(ev jobs.Event) bool {
		rest = append(rest, ev)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(rest) != 2 || rest[0].Seq != evs[1].Seq {
		t.Fatalf("since-replay %+v", rest)
	}

	// fn returning false stops a live stream without error.
	done := make(chan error, 1)
	go func() {
		done <- c.Events(ctx, 0, true, func(ev jobs.Event) bool { return false })
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("early stop: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Events did not return after fn said stop")
	}
}

func TestEventsSchemaChecked(t *testing.T) {
	// A server without the jobs subsystem 404s the events route; the client
	// must surface that as an error, not an empty stream.
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.StartLocal()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := New(base)
	if err := c.Events(context.Background(), 0, false, func(jobs.Event) bool { return true }); err == nil {
		t.Fatal("events against a sync-only server succeeded")
	}
}
