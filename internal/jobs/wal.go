package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// WAL format: one JSON document per line. The first line is a header
// identifying the schema and version (mirroring the trace-ring JSONL
// discipline in internal/obs); every subsequent line is a walRecord.
// Replay is tolerant of a torn tail — a SIGKILL can truncate the final
// line mid-write, so an unparseable last line is skipped. An unparseable
// line with records after it is corruption, not a torn tail, and replay
// refuses the log rather than drop what follows. Versioning: a reader
// refuses a header whose schema name differs; a higher version than it
// knows is also refused (the format is fsynced state, not a best-effort
// cache, so silently dropping fields is not acceptable).
const (
	// WALSchema names the on-disk jobs log format.
	WALSchema = "tangled-jobs-wal"
	// WALVersion is the current format version.
	WALVersion = 1
	// walFile is the log's file name inside the store directory.
	walFile = "jobs.wal"
)

// Record ops.
const (
	// opJob carries a full job document (submission, or one compacted
	// snapshot entry). A later opJob for the same ID replaces the earlier.
	opJob = "job"
	// opState transitions an existing job: State, Reason, Result, Time.
	opState = "state"
	// opEvict erases a job from the store (retention bound reached).
	opEvict = "evict"
)

// walHeader is the first line of the log.
type walHeader struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
}

// walRecord is every subsequent line.
type walRecord struct {
	Op     string          `json:"op"`
	Job    *Job            `json:"job,omitempty"`
	ID     string          `json:"id,omitempty"`
	State  State           `json:"state,omitempty"`
	Reason string          `json:"reason,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Time   time.Time       `json:"time,omitempty"`
}

// logFile is the slice of *os.File the log appends through. Tests wrap
// the real file to inject faults (a short write, an fsync error, a failed
// truncate).
type logFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// wal is the append-only log handle. Not safe for concurrent use; the
// Manager serializes access under its lock.
type wal struct {
	dir     string
	path    string
	f       logFile
	records int   // records appended since the last compaction
	bytes   int64 // file size after the last good record
	// broken is set when the log no longer matches memory: a failed
	// append could not be undone (the file may end in a partial line,
	// where replay stops), or a visible transition could not be recorded.
	// Nothing more is appended until a snapshot replaces the file.
	broken error
}

// openWAL opens (creating if absent) the log in dir, replays the existing
// records into an ordered job list, and leaves the file positioned for
// appending. The returned jobs are sorted by Seq (submission order).
func openWAL(dir string) (*wal, []*Job, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("jobs: store dir: %w", err)
	}
	path := filepath.Join(dir, walFile)
	var replayed []*Job
	if raw, err := os.ReadFile(path); err == nil && len(raw) > 0 {
		replayed, err = replayWAL(raw)
		if err != nil {
			return nil, nil, err
		}
	} else if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("jobs: read wal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: open wal: %w", err)
	}
	w := &wal{dir: dir, path: path, f: f}
	if st, err := f.Stat(); err == nil {
		w.bytes = st.Size()
	}
	if w.bytes == 0 {
		if err := w.writeHeader(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return w, replayed, nil
}

// replayWAL folds raw log bytes into the surviving job set, in submission
// (Seq) order. Lines have no length cap: every record writeLine can append
// replays. It tolerates a torn tail: a malformed final line is skipped. A
// malformed line followed by any other non-blank line is an error naming
// its line number, so a restart never compacts away the records after it.
// A missing or alien header is an error; a torn *header* (file truncated
// inside line one) yields an empty store, matching the
// crash-before-first-record case.
func replayWAL(raw []byte) ([]*Job, error) {
	first, rest, _ := bytes.Cut(raw, []byte{'\n'})
	var hdr walHeader
	if err := json.Unmarshal(first, &hdr); err != nil {
		return nil, nil // torn header: crashed before the first full line
	}
	if hdr.Schema != WALSchema {
		return nil, fmt.Errorf("jobs: wal schema %q, want %q", hdr.Schema, WALSchema)
	}
	if hdr.Version > WALVersion {
		return nil, fmt.Errorf("jobs: wal version %d newer than supported %d", hdr.Version, WALVersion)
	}
	byID := make(map[string]*Job)
	var order []string
	for lineNo := 2; len(rest) > 0; lineNo++ {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte{'\n'})
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec walRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			if len(bytes.TrimSpace(rest)) == 0 {
				break // torn tail: everything before it is intact
			}
			return nil, fmt.Errorf("jobs: wal line %d is corrupt and records follow it: %v", lineNo, err)
		}
		switch rec.Op {
		case opJob:
			if rec.Job == nil || rec.Job.ID == "" || !rec.Job.State.valid() {
				continue
			}
			j := *rec.Job
			if _, seen := byID[j.ID]; !seen {
				order = append(order, j.ID)
			}
			byID[j.ID] = &j
		case opState:
			j, ok := byID[rec.ID]
			if !ok || !rec.State.valid() {
				continue
			}
			j.State = rec.State
			j.Reason = rec.Reason
			if rec.Result != nil {
				j.Result = rec.Result
			}
			switch rec.State {
			case StateRunning:
				j.Started = rec.Time
			case StateCompleted, StateFailed, StateCanceled:
				j.Finished = rec.Time
			}
		case opEvict:
			delete(byID, rec.ID)
		}
	}
	jobs := make([]*Job, 0, len(byID))
	for _, id := range order {
		if j, ok := byID[id]; ok {
			jobs = append(jobs, j)
		}
	}
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].Seq < jobs[b].Seq })
	return jobs, nil
}

func (w *wal) writeHeader() error {
	line, err := json.Marshal(walHeader{Schema: WALSchema, Version: WALVersion})
	if err != nil {
		return err
	}
	return w.writeLine(line)
}

// writeLine appends one line and fsyncs it. A failed write or fsync is
// undone by truncating the file back to the last good record, because
// replay refuses a log with a malformed line before its last record. If
// the truncate fails as well the log is broken, and every later append is
// refused.
func (w *wal) writeLine(line []byte) error {
	if w.broken != nil {
		return w.broken
	}
	n, err := w.f.Write(append(line, '\n'))
	if err == nil {
		err = w.f.Sync()
	}
	if err == nil {
		w.bytes += int64(n)
		return nil
	}
	if terr := w.f.Truncate(w.bytes); terr != nil {
		w.broken = fmt.Errorf("%w: %v (undoing it: %v)", ErrWALFailed, err, terr)
		return w.broken
	}
	return err
}

// append writes one fsynced record.
func (w *wal) append(rec walRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := w.writeLine(line); err != nil {
		return fmt.Errorf("jobs: wal append: %w", err)
	}
	w.records++
	return nil
}

// compact atomically replaces the log with a snapshot: a fresh header
// plus one opJob record per live job, in Seq order. Written to a temp
// file, synced, then renamed over the log (the rename is the commit
// point; a crash mid-compaction leaves the old log intact).
func (w *wal) compact(jobs []*Job) error {
	sorted := append([]*Job(nil), jobs...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Seq < sorted[b].Seq })

	tmp, err := os.CreateTemp(w.dir, walFile+".compact-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriter(tmp)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(walHeader{Schema: WALSchema, Version: WALVersion}); err != nil {
		tmp.Close()
		return err
	}
	for _, j := range sorted {
		snap := j.snapshot()
		if err := enc.Encode(walRecord{Op: opJob, Job: &snap}); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	st, _ := tmp.Stat()
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), w.path); err != nil {
		return err
	}
	// Re-point the append handle at the new file and sync the directory so
	// the rename itself is durable. The snapshot replaced whatever a failed
	// append left behind.
	old := w.f
	f, err := os.OpenFile(w.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	old.Close()
	w.f = f
	w.broken = nil
	w.records = 0
	if st != nil {
		w.bytes = st.Size()
	}
	if d, err := os.Open(w.dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

func (w *wal) close() {
	if w.f != nil {
		w.f.Sync()
		w.f.Close()
		w.f = nil
	}
}
