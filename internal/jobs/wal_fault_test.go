package jobs

// WAL failure paths, driven through a faulty logFile: a failed append must
// leave the log exactly as docs/JOBS.md promises a restart will find it —
// every acknowledged transition replays, nothing unacknowledged does — or
// else turn the store read-only. "Restart" here is replayWAL over the file
// as the failure left it, which is what the next process reads (a clean
// Close would compact the log and hide the damage).

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// faultFile injects one-shot faults into the log's append handle.
type faultFile struct {
	logFile
	shortWrite, syncErr, truncErr bool
}

func (f *faultFile) Write(p []byte) (int, error) {
	if f.shortWrite {
		f.shortWrite = false
		n, _ := f.logFile.Write(p[:len(p)/2])
		return n, io.ErrShortWrite
	}
	return f.logFile.Write(p)
}

func (f *faultFile) Sync() error {
	if f.syncErr {
		f.syncErr = false
		return errors.New("injected fsync error")
	}
	return f.logFile.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if f.truncErr {
		return errors.New("injected truncate error")
	}
	return f.logFile.Truncate(size)
}

// faultyManager starts a durable manager whose WAL appends go through a
// faultFile. arm sets faults under the manager's lock.
func faultyManager(t *testing.T, exec Exec) (m *Manager, dir string, arm func(func(*faultFile))) {
	t.Helper()
	dir = t.TempDir()
	m, err := New(Config{Dir: dir, Workers: 1}, exec)
	if err != nil {
		t.Fatal(err)
	}
	ff := &faultFile{logFile: m.wal.f}
	m.wal.f = ff
	return m, dir, func(set func(*faultFile)) {
		m.mu.Lock()
		defer m.mu.Unlock()
		set(ff)
	}
}

// restartView replays the log the way the next process would.
func restartView(t *testing.T, dir string) map[string]*Job {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := replayWAL(raw)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]*Job)
	for _, j := range jobs {
		byID[j.ID] = j
	}
	return byID
}

func wantWALHealth(t *testing.T, m *Manager, errs uint64, broken bool) {
	t.Helper()
	if e, b := m.WALHealth(); e != errs || b != broken {
		t.Fatalf("WALHealth = %d errors, broken %v; want %d, %v", e, b, errs, broken)
	}
}

// A refused submission leaves no trace, and the records after it survive.
func TestWALFailedSubmitLeavesNoTrace(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault func(*faultFile)
	}{
		{"short-write", func(f *faultFile) { f.shortWrite = true }},
		{"fsync-error", func(f *faultFile) { f.syncErr = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, dir, arm := faultyManager(t, okExec)
			defer closeNow(t, m)
			arm(tc.fault)
			if _, _, err := m.Submit(Job{ID: "refused"}); err == nil {
				t.Fatal("submit with a failed append was acknowledged")
			}
			if _, ok := m.Get("refused"); ok {
				t.Fatal("refused job is visible")
			}
			if _, _, err := m.Submit(Job{ID: "later"}); err != nil {
				t.Fatalf("submit after a repaired failure: %v", err)
			}
			waitState(t, m, "later", StateCompleted)
			wantWALHealth(t, m, 1, false)

			view := restartView(t, dir)
			if _, ok := view["refused"]; ok {
				t.Fatal("refused submission replays after restart")
			}
			if j := view["later"]; j == nil || j.State != StateCompleted || string(j.Result) != `{"ok":true}` {
				t.Fatalf("acknowledged job after restart: %+v, want completed with its result", j)
			}
		})
	}
}

// A terminal transition the client can already see survives restart even
// when its append fails: the log is caught up with a snapshot.
func TestWALFailedTerminalIsCaughtUp(t *testing.T) {
	var arm func(func(*faultFile))
	m, dir, arm := faultyManager(t, func(ctx context.Context, j Job) (json.RawMessage, error) {
		arm(func(f *faultFile) { f.syncErr = true }) // fails the terminal append
		return json.RawMessage(`{"v":7}`), nil
	})
	defer closeNow(t, m)
	if _, _, err := m.Submit(Job{ID: "j"}); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, "j", StateCompleted)
	wantWALHealth(t, m, 1, false)
	if j := restartView(t, dir)["j"]; j == nil || j.State != StateCompleted || string(j.Result) != `{"v":7}` {
		t.Fatalf("completed job after restart: %+v, want completed with its result", j)
	}
}

// An append that cannot be undone breaks the WAL: new submissions are
// refused with ErrWALFailed, resubmissions still answer, and a restart
// finds every acknowledged job.
func TestWALUnrepairableAppendBreaksStore(t *testing.T) {
	m, dir, arm := faultyManager(t, okExec)
	defer closeNow(t, m)
	if _, _, err := m.Submit(Job{ID: "before"}); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, "before", StateCompleted)
	arm(func(f *faultFile) { f.shortWrite, f.truncErr = true, true })
	if _, _, err := m.Submit(Job{ID: "torn"}); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("submit over an unrepairable append: err %v, want ErrWALFailed", err)
	}
	if _, _, err := m.Submit(Job{ID: "after"}); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("submit on a broken WAL: err %v, want ErrWALFailed", err)
	}
	if j, existed, err := m.Submit(Job{ID: "before"}); err != nil || !existed || j.State != StateCompleted {
		t.Fatalf("resubmission on a broken WAL: %+v existed=%v err=%v", j, existed, err)
	}
	wantWALHealth(t, m, 1, true)

	view := restartView(t, dir)
	if j := view["before"]; j == nil || j.State != StateCompleted {
		t.Fatalf("acknowledged job after restart: %+v, want completed", j)
	}
	if len(view) != 1 {
		t.Fatalf("restart found %d jobs, want only the acknowledged one", len(view))
	}
}
