package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// FuzzWALReplay asserts two properties over arbitrary log bytes:
//
//  1. replayWAL never panics — any on-disk corruption degrades to an error
//     or, for a torn final line, the valid job set before it; never a
//     crash at startup.
//  2. Snapshotting is a fixed point: encoding the replayed set the way
//     compaction does and replaying that must reproduce the same set. This
//     is the invariant that makes compaction safe to run at any moment.
func FuzzWALReplay(f *testing.F) {
	hdr := func() string {
		b, _ := json.Marshal(walHeader{Schema: WALSchema, Version: WALVersion})
		return string(b) + "\n"
	}()
	f.Add([]byte(nil))
	f.Add([]byte(hdr))
	f.Add([]byte(hdr + `{"op":"job","job":{"id":"a","state":"queued","seq":0}}` + "\n"))
	f.Add([]byte(hdr +
		`{"op":"job","job":{"id":"a","state":"queued","seq":0}}` + "\n" +
		`{"op":"state","id":"a","state":"running","time":"2026-01-02T03:04:05Z"}` + "\n" +
		`{"op":"state","id":"a","state":"completed","result":{"v":1},"time":"2026-01-02T03:04:06Z"}` + "\n" +
		`{"op":"job","job":{"id":"b","state":"queued","seq":1}}` + "\n" +
		`{"op":"evict","id":"a"}` + "\n"))
	f.Add([]byte(hdr + `{"op":"job","job":{"id":"torn","sta`))
	f.Add([]byte(`{"schema":"alien","version":1}` + "\n"))
	f.Add([]byte(hdr + `{"op":"state","id":"ghost","state":"completed"}` + "\n"))
	f.Add([]byte(hdr + `{"op":"job","job":{"id":"x","state":"bogus","seq":9}}` + "\n"))
	// Mid-log corruption: a torn record with a valid one after it.
	f.Add([]byte(hdr +
		`{"op":"job","job":{"id":"a","state":"queued","seq":0}}` + "\n" +
		`{"op":"job","job":{"id":"b","sta` + "\n" +
		`{"op":"job","job":{"id":"c","state":"queued","seq":2}}` + "\n"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		jobs, err := replayWAL(raw)
		if err != nil {
			return // refused log: fine, as long as it didn't panic
		}
		seen := map[string]bool{}
		for _, j := range jobs {
			if j.ID == "" || !j.State.valid() {
				t.Fatalf("replay admitted invalid job %+v", j)
			}
			if seen[j.ID] {
				t.Fatalf("replay yielded duplicate ID %q", j.ID)
			}
			seen[j.ID] = true
		}

		// Re-encode as a compaction snapshot and replay again.
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		if err := enc.Encode(walHeader{Schema: WALSchema, Version: WALVersion}); err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			snap := j.snapshot()
			if err := enc.Encode(walRecord{Op: opJob, Job: &snap}); err != nil {
				t.Fatal(err)
			}
		}
		again, err := replayWAL(buf.Bytes())
		if err != nil {
			t.Fatalf("snapshot of a valid replay refused: %v", err)
		}
		if len(again) != len(jobs) {
			t.Fatalf("fixed point broken: %d jobs -> %d", len(jobs), len(again))
		}
		for i := range jobs {
			if diff := jobDiff(jobs[i], again[i]); diff != "" {
				t.Fatalf("job %d changed across snapshot: %s", i, diff)
			}
		}
	})
}

// jobDiff compares the durable fields of two jobs.
func jobDiff(a, b *Job) string {
	norm := func(j *Job) string {
		c := j.snapshot()
		// Timestamps round-trip through RFC3339 JSON; compare at that
		// precision so monotonic-clock remnants don't flag a false diff.
		c.Submitted = c.Submitted.Round(0).UTC().Truncate(time.Nanosecond)
		out, _ := json.Marshal(&c)
		return string(out)
	}
	if x, y := norm(a), norm(b); x != y {
		return fmt.Sprintf("%s != %s", x, y)
	}
	return ""
}
