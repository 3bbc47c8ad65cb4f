package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// okExec completes immediately with a fixed document.
func okExec(ctx context.Context, j Job) (json.RawMessage, error) {
	return json.RawMessage(`{"ok":true}`), nil
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, m *Manager, id string, want State) Job {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j, ok := m.Get(id); ok && j.State == want {
			return j
		}
		time.Sleep(time.Millisecond)
	}
	j, ok := m.Get(id)
	t.Fatalf("job %s never reached %s (now %+v, found=%v)", id, want, j.State, ok)
	return Job{}
}

func closeNow(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestLifecycleCompleted(t *testing.T) {
	m, err := New(Config{Workers: 2}, okExec)
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)

	j, existed, err := m.Submit(Job{ID: "a", Spec: json.RawMessage(`{"p":1}`)})
	if err != nil || existed {
		t.Fatalf("submit: %v existed=%v", err, existed)
	}
	if j.State != StateQueued || j.Seq != 0 || j.Weight != 1 {
		t.Fatalf("submitted record %+v", j)
	}
	fin := waitState(t, m, "a", StateCompleted)
	if string(fin.Result) != `{"ok":true}` {
		t.Fatalf("result %s", fin.Result)
	}
	if fin.Started.IsZero() || fin.Finished.IsZero() {
		t.Fatalf("missing timestamps: %+v", fin)
	}
	if !fin.State.Terminal() {
		t.Fatal("completed must be terminal")
	}
}

func TestLifecycleFailed(t *testing.T) {
	m, err := New(Config{Workers: 1}, func(ctx context.Context, j Job) (json.RawMessage, error) {
		return json.RawMessage(`{"partial":true}`), errors.New("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)
	m.Submit(Job{ID: "f"})
	fin := waitState(t, m, "f", StateFailed)
	if fin.Reason != "boom" {
		t.Fatalf("reason %q", fin.Reason)
	}
	if string(fin.Result) != `{"partial":true}` {
		t.Fatalf("failed job should keep its partial result, got %s", fin.Result)
	}
}

func TestSubmitIdempotent(t *testing.T) {
	block := make(chan struct{})
	m, err := New(Config{Workers: 1}, func(ctx context.Context, j Job) (json.RawMessage, error) {
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)
	defer close(block)

	first, existed, err := m.Submit(Job{ID: "dup", Spec: json.RawMessage(`1`)})
	if err != nil || existed {
		t.Fatalf("first submit: %v %v", err, existed)
	}
	again, existed, err := m.Submit(Job{ID: "dup", Spec: json.RawMessage(`2`)})
	if err != nil || !existed {
		t.Fatalf("resubmit: %v existed=%v", err, existed)
	}
	if string(again.Spec) != string(first.Spec) {
		t.Fatalf("resubmit replaced the spec: %s", again.Spec)
	}
}

func TestSubmitValidation(t *testing.T) {
	m, err := New(Config{Workers: 1}, okExec)
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)
	if _, _, err := m.Submit(Job{}); err == nil {
		t.Fatal("empty ID accepted")
	}
}

func TestQueueFull(t *testing.T) {
	block := make(chan struct{})
	m, err := New(Config{Workers: 1, QueueLimit: 2}, func(ctx context.Context, j Job) (json.RawMessage, error) {
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)
	defer close(block)

	// Two admitted (one will be running, one queued), third refused.
	for i := 0; i < 2; i++ {
		if _, _, err := m.Submit(Job{ID: fmt.Sprintf("q%d", i)}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, _, err := m.Submit(Job{ID: "q2"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("got %v, want ErrQueueFull", err)
	}
}

func TestCancelQueued(t *testing.T) {
	block := make(chan struct{})
	m, err := New(Config{Workers: 1}, func(ctx context.Context, j Job) (json.RawMessage, error) {
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)
	defer close(block)

	m.Submit(Job{ID: "running"})
	waitState(t, m, "running", StateRunning)
	m.Submit(Job{ID: "victim"})
	got, err := m.Cancel("victim")
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled {
		t.Fatalf("state %s, want canceled", got.State)
	}
	if q, _ := m.Depths(); q != 0 {
		t.Fatalf("queued depth %d after cancel", q)
	}
	// Canceling a terminal job is a no-op, not an error.
	if again, err := m.Cancel("victim"); err != nil || again.State != StateCanceled {
		t.Fatalf("re-cancel: %+v %v", again, err)
	}
}

func TestCancelRunning(t *testing.T) {
	started := make(chan struct{})
	m, err := New(Config{Workers: 1}, func(ctx context.Context, j Job) (json.RawMessage, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)

	m.Submit(Job{ID: "r"})
	<-started
	if got, err := m.Cancel("r"); err != nil || got.State != StateRunning {
		t.Fatalf("cancel returned %+v %v (should still be running until exec returns)", got, err)
	}
	fin := waitState(t, m, "r", StateCanceled)
	if fin.Reason == "" {
		t.Fatal("canceled-while-running should carry a reason")
	}
}

func TestCancelUnknown(t *testing.T) {
	m, err := New(Config{Workers: 1}, okExec)
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)
	if _, err := m.Cancel("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
}

func TestCloseRefusesSubmitAndWaitsRunning(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var finished atomic.Bool
	m, err := New(Config{Workers: 1}, func(ctx context.Context, j Job) (json.RawMessage, error) {
		close(started)
		<-release
		finished.Store(true)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Submit(Job{ID: "slow"})
	<-started

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- m.Close(ctx)
	}()
	// Close must be draining (refusing submits) while the job still runs.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, _, err := m.Submit(Job{ID: "late"})
		if errors.Is(err, ErrDraining) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submit during close: %v, want ErrDraining", err)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("close: %v", err)
	}
	if !finished.Load() {
		t.Fatal("close returned before the running job finished")
	}
}

func TestCloseExpiredContextCancelsRunning(t *testing.T) {
	started := make(chan struct{})
	m, err := New(Config{Workers: 1}, func(ctx context.Context, j Job) (json.RawMessage, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Submit(Job{ID: "hung"})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.Close(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("close: %v, want context.Canceled", err)
	}
	// The hung job was canceled without a cancel request: recorded as
	// canceled with the shutdown reason.
	j, ok := m.Get("hung")
	if !ok || j.State != StateCanceled {
		t.Fatalf("hung job %+v, want canceled", j)
	}
}

func TestRetentionEvictsOldest(t *testing.T) {
	m, err := New(Config{Workers: 1, retention: 2}, okExec)
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("r%d", i)
		m.Submit(Job{ID: id})
		waitState(t, m, id, StateCompleted)
	}
	if _, ok := m.Get("r0"); ok {
		t.Fatal("oldest terminal job survived a retention bound of 2")
	}
	if _, ok := m.Get("r4"); !ok {
		t.Fatal("newest terminal job evicted")
	}
}

func TestPriorityOrderWithinTenant(t *testing.T) {
	block := make(chan struct{})
	var order []string
	ordered := make(chan string, 8)
	m, err := New(Config{Workers: 1}, func(ctx context.Context, j Job) (json.RawMessage, error) {
		<-block
		ordered <- j.ID
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)

	// First job occupies the lone worker while the rest queue up.
	m.Submit(Job{ID: "warm"})
	waitState(t, m, "warm", StateRunning)
	m.Submit(Job{ID: "low-1", Priority: 1})
	m.Submit(Job{ID: "high", Priority: 9})
	m.Submit(Job{ID: "low-2", Priority: 1})
	close(block)
	for i := 0; i < 4; i++ {
		order = append(order, <-ordered)
	}
	want := []string{"warm", "high", "low-1", "low-2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}
