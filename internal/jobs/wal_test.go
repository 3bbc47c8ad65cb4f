package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// walLines reads the raw WAL as lines.
func walLines(t *testing.T, dir string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m, err := New(Config{Dir: dir, Workers: 1}, okExec)
	if err != nil {
		t.Fatal(err)
	}
	m.Submit(Job{ID: "w1", Tenant: "t", Priority: 2, Spec: json.RawMessage(`{"x":1}`)})
	waitState(t, m, "w1", StateCompleted)
	closeNow(t, m)

	// Reopen: the terminal job survives with its result.
	m2, err := New(Config{Dir: dir, Workers: 1}, okExec)
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m2)
	j, ok := m2.Get("w1")
	if !ok {
		t.Fatal("job lost across restart")
	}
	if j.State != StateCompleted || string(j.Result) != `{"ok":true}` {
		t.Fatalf("restored %+v result=%s", j, j.Result)
	}
	if j.Tenant != "t" || j.Priority != 2 || string(j.Spec) != `{"x":1}` {
		t.Fatalf("restored metadata %+v", j)
	}
}

func TestWALHeader(t *testing.T) {
	dir := t.TempDir()
	m, err := New(Config{Dir: dir, Workers: 1}, okExec)
	if err != nil {
		t.Fatal(err)
	}
	closeNow(t, m)
	lines := walLines(t, dir)
	var hdr walHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Schema != WALSchema || hdr.Version != WALVersion {
		t.Fatalf("header %+v", hdr)
	}
}

func TestWALRefusesAlienSchemaAndNewerVersion(t *testing.T) {
	for _, hdr := range []string{
		`{"schema":"something-else","version":1}`,
		fmt.Sprintf(`{"schema":%q,"version":%d}`, WALSchema, WALVersion+1),
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFile), []byte(hdr+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := New(Config{Dir: dir, Workers: 1}, okExec); err == nil {
			t.Fatalf("header %s accepted", hdr)
		}
	}
}

func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	m, err := New(Config{Dir: dir, Workers: 1}, okExec)
	if err != nil {
		t.Fatal(err)
	}
	m.Submit(Job{ID: "keep"})
	waitState(t, m, "keep", StateCompleted)
	closeNow(t, m)

	// Simulate a SIGKILL mid-append: a half-written record at the tail.
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"job","job":{"id":"torn","sta`)
	f.Close()

	m2, err := New(Config{Dir: dir, Workers: 1}, okExec)
	if err != nil {
		t.Fatalf("torn tail must replay, got %v", err)
	}
	defer closeNow(t, m2)
	if _, ok := m2.Get("keep"); !ok {
		t.Fatal("intact record lost to the torn tail")
	}
	if _, ok := m2.Get("torn"); ok {
		t.Fatal("torn record resurrected")
	}
}

// TestWALRefusesMidLogCorruption: only the last line may be skipped as a
// torn tail. A corrupt record with records after it makes New refuse the
// store, naming the line, and leaves the file as it was, instead of
// replaying up to the bad line and compacting the later jobs away.
func TestWALRefusesMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	m, err := New(Config{Dir: dir, Workers: 1}, okExec)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c", "d"} {
		m.Submit(Job{ID: id})
		waitState(t, m, id, StateCompleted)
	}
	closeNow(t, m)
	// A reopen compacts the log to the header and one record per job.
	m, err = New(Config{Dir: dir, Workers: 1}, okExec)
	if err != nil {
		t.Fatal(err)
	}
	closeNow(t, m)
	lines := walLines(t, dir)
	if len(lines) != 5 || !strings.Contains(lines[2], `"id":"b"`) {
		t.Fatalf("compacted log is not header + a, b, c, d:\n%s", strings.Join(lines, "\n"))
	}
	lines[2] = lines[2][:len(lines[2])/2]
	path := filepath.Join(dir, walFile)
	corrupt := []byte(strings.Join(lines, "\n") + "\n")
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	m, err = New(Config{Dir: dir, Workers: 1}, okExec)
	if err == nil {
		closeNow(t, m)
		t.Fatal("a log with a corrupt record before its last opened")
	}
	if !strings.Contains(err.Error(), "wal line 3 is corrupt") {
		t.Fatalf("error %q does not name line 3", err)
	}
	if raw, err := os.ReadFile(path); err != nil || string(raw) != string(corrupt) {
		t.Fatalf("refused log was changed (read err %v)", err)
	}
}

// TestWALReplaysLongRecord: replay has no line-length cap. json.Marshal
// escapes '<' to six bytes, so a spec of 3 MiB of them makes a job record
// of about 18 MiB; that record and the state records after it must replay.
func TestWALReplaysLongRecord(t *testing.T) {
	dir := t.TempDir()
	m, err := New(Config{Dir: dir, Workers: 1}, okExec)
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Repeat("<", 3<<20)
	spec, err := json.Marshal(text)
	if err != nil {
		t.Fatal(err)
	}
	m.Submit(Job{ID: "long", Spec: spec})
	waitState(t, m, "long", StateCompleted)
	m.Submit(Job{ID: "after"})
	waitState(t, m, "after", StateCompleted)
	closeNow(t, m)
	if n := len(walLines(t, dir)[1]); n <= 16<<20 {
		t.Fatalf("job record is %d bytes; the fixture must exceed 16 MiB", n)
	}

	m2, err := New(Config{Dir: dir, Workers: 1}, okExec)
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m2)
	for _, id := range []string{"long", "after"} {
		j, ok := m2.Get(id)
		if !ok {
			t.Fatalf("job %q lost at replay", id)
		}
		if j.State != StateCompleted {
			t.Fatalf("job %q replayed as %s, want %s", id, j.State, StateCompleted)
		}
	}
	j, _ := m2.Get("long")
	var got string
	if err := json.Unmarshal(j.Spec, &got); err != nil || got != text {
		t.Fatalf("long spec did not round-trip (err %v, %d bytes)", err, len(got))
	}
}

func TestWALTornHeaderIsEmptyStore(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFile), []byte(`{"schema":"tangl`), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Dir: dir, Workers: 1}, okExec)
	if err != nil {
		t.Fatalf("torn header: %v", err)
	}
	defer closeNow(t, m)
	if q, r := m.Depths(); q != 0 || r != 0 {
		t.Fatalf("depths %d/%d from a torn header", q, r)
	}
}

func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	m, err := New(Config{Dir: dir, Workers: 1, compactEvery: 8, retention: 4}, okExec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("c%d", i)
		m.Submit(Job{ID: id})
		waitState(t, m, id, StateCompleted)
	}
	closeNow(t, m)

	// After compaction + retention the log is a small snapshot: a header
	// plus one record per retained job, not 40+ transition records.
	lines := walLines(t, dir)
	if len(lines) != 1+4 {
		t.Fatalf("compacted log has %d lines, want 5:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	m2, err := New(Config{Dir: dir, Workers: 1}, okExec)
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m2)
	if _, ok := m2.Get("c19"); !ok {
		t.Fatal("retained job missing after compaction")
	}
	if _, ok := m2.Get("c0"); ok {
		t.Fatal("evicted job survived compaction")
	}
}

func TestWALEvictErasesJob(t *testing.T) {
	// Retention eviction must reach the disk even without a compaction
	// cycle: the evict record erases the job at replay.
	dir := t.TempDir()
	m, err := New(Config{Dir: dir, Workers: 1, retention: 1}, okExec)
	if err != nil {
		t.Fatal(err)
	}
	m.Submit(Job{ID: "old"})
	waitState(t, m, "old", StateCompleted)
	m.Submit(Job{ID: "new"})
	waitState(t, m, "new", StateCompleted)
	closeNow(t, m)
	m2, err := New(Config{Dir: dir, Workers: 1}, okExec)
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m2)
	if _, ok := m2.Get("old"); ok {
		t.Fatal("evicted job came back at replay")
	}
}

func TestManagerWithoutDirIsEphemeral(t *testing.T) {
	m, err := New(Config{Workers: 1}, okExec)
	if err != nil {
		t.Fatal(err)
	}
	m.Submit(Job{ID: "mem"})
	waitState(t, m, "mem", StateCompleted)
	closeNow(t, m)
}

func TestCloseIdempotent(t *testing.T) {
	m, err := New(Config{Workers: 1}, okExec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
}
