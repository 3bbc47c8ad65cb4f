package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tangled/internal/obs"
)

// writeWAL hand-authors a log file from records, simulating the on-disk
// state a SIGKILLed process leaves behind (no clean-close compaction).
func writeWAL(t *testing.T, dir string, recs ...walRecord) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(walHeader{Schema: WALSchema, Version: WALVersion}); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, walFile), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCrashResume(t *testing.T) {
	dir := t.TempDir()
	now := time.Now().UTC().Truncate(time.Second)
	writeWAL(t, dir,
		// Two jobs still queued at crash, submitted in order q1 then q2.
		walRecord{Op: opJob, Job: &Job{ID: "q1", Tenant: "t", State: StateQueued, Submitted: now, Seq: 0}},
		walRecord{Op: opJob, Job: &Job{ID: "q2", Tenant: "t", State: StateQueued, Submitted: now, Seq: 1}},
		// One job mid-execution at crash.
		walRecord{Op: opJob, Job: &Job{ID: "r1", State: StateQueued, Submitted: now, Seq: 2}},
		walRecord{Op: opState, ID: "r1", State: StateRunning, Time: now},
		// One job already finished, result durable.
		walRecord{Op: opJob, Job: &Job{ID: "done", State: StateQueued, Submitted: now, Seq: 3}},
		walRecord{Op: opState, ID: "done", State: StateRunning, Time: now},
		walRecord{Op: opState, ID: "done", State: StateCompleted, Result: json.RawMessage(`{"v":42}`), Time: now},
	)

	var mu sync.Mutex
	runs := map[string]int{}
	var order []string
	jo := NewObs(obs.NewRegistry())
	m, err := New(Config{Dir: dir, Workers: 1, Obs: jo}, func(ctx context.Context, j Job) (json.RawMessage, error) {
		mu.Lock()
		runs[j.ID]++
		order = append(order, j.ID)
		mu.Unlock()
		return json.RawMessage(`{"rerun":true}`), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)

	// Queued jobs re-run exactly once, in original submit order.
	waitState(t, m, "q1", StateCompleted)
	waitState(t, m, "q2", StateCompleted)
	mu.Lock()
	if runs["q1"] != 1 || runs["q2"] != 1 || len(runs) != 2 {
		t.Fatalf("re-run counts %v, want q1/q2 exactly once", runs)
	}
	if order[0] != "q1" || order[1] != "q2" {
		t.Fatalf("resume order %v, want original submit order", order)
	}
	mu.Unlock()
	for _, id := range []string{"q1", "q2"} {
		j, _ := m.Get(id)
		if !j.Resumed {
			t.Fatalf("%s not marked resumed", id)
		}
	}

	// Mid-execution job: failed with the resume reason, never re-run.
	r1, ok := m.Get("r1")
	if !ok || r1.State != StateFailed || r1.Reason != ResumeReason || !r1.Resumed {
		t.Fatalf("running-at-crash job %+v", r1)
	}

	// Completed job: result byte-identical across the restart.
	done, ok := m.Get("done")
	if !ok || done.State != StateCompleted || string(done.Result) != `{"v":42}` {
		t.Fatalf("completed job %+v result=%s", done, done.Result)
	}

	if rq, rf := jo.Resumed.Value(), jo.ResumeFailed.Value(); rq != 2 || rf != 1 {
		t.Fatalf("jobs_resumed_total, jobs_resume_failed_total = %d,%d want 2,1", rq, rf)
	}
}

func TestCrashResumeEmitsEvents(t *testing.T) {
	dir := t.TempDir()
	writeWAL(t, dir,
		walRecord{Op: opJob, Job: &Job{ID: "q", State: StateQueued, Seq: 0}},
		walRecord{Op: opJob, Job: &Job{ID: "r", State: StateRunning, Seq: 1}},
	)
	block := make(chan struct{})
	m, err := New(Config{Dir: dir, Workers: 1}, func(ctx context.Context, j Job) (json.RawMessage, error) {
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)
	defer close(block)

	// The replay transitions are in the ring before any subscriber: a
	// since=0 subscription sees resumed(q) and failed(r).
	replay, _, cancel := m.Subscribe(0)
	defer cancel()
	types := map[string]string{}
	for _, ev := range replay {
		types[ev.Job] = ev.Type
	}
	if types["q"] != EventResumed {
		t.Fatalf("q event %q, want %q (all: %v)", types["q"], EventResumed, replay)
	}
	if types["r"] != EventFailed {
		t.Fatalf("r event %q, want %q", types["r"], EventFailed)
	}
}

func TestRestartLoopDoesNotGrowWAL(t *testing.T) {
	// adopt() compacts after replay, so repeatedly restarting over the same
	// store must not grow the log: the resume transition for the
	// running-at-crash job is folded into one snapshot record.
	dir := t.TempDir()
	writeWAL(t, dir, walRecord{Op: opJob, Job: &Job{ID: "mid", State: StateRunning, Seq: 0}})
	var size int64
	for i := 0; i < 5; i++ {
		m, err := New(Config{Dir: dir, Workers: 1}, okExec)
		if err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(filepath.Join(dir, walFile))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			size = st.Size()
		} else if st.Size() != size {
			t.Fatalf("restart %d: wal size %d, first was %d", i, st.Size(), size)
		}
		j, ok := m.Get("mid")
		if !ok || j.State != StateFailed || j.Reason != ResumeReason {
			t.Fatalf("restart %d: %+v", i, j)
		}
		closeNow(t, m)
	}
}

func TestDurableResultsSurviveManyRestarts(t *testing.T) {
	dir := t.TempDir()
	m, err := New(Config{Dir: dir, Workers: 2}, okExec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		id := idOf("d", i)
		m.Submit(Job{ID: id})
		waitState(t, m, id, StateCompleted)
	}
	closeNow(t, m)
	for restart := 0; restart < 3; restart++ {
		m, err = New(Config{Dir: dir, Workers: 2}, okExec)
		if err != nil {
			t.Fatalf("restart %d: %v", restart, err)
		}
		for i := 0; i < 3; i++ {
			j, ok := m.Get(idOf("d", i))
			if !ok || j.State != StateCompleted || string(j.Result) != `{"ok":true}` {
				t.Fatalf("restart %d: job %d %+v", restart, i, j)
			}
		}
		closeNow(t, m)
	}
}
