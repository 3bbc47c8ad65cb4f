package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, as written to the spans file. Spans
// of one operation share Trace (the operation index); a child names its
// parent's ID.
type span struct {
	Workload string `json:"workload"`
	Trace    int64  `json:"trace"`
	ID       int64  `json:"span"`
	Parent   int64  `json:"parent,omitempty"`
	Name     string `json:"name"`
	Kind     string `json:"kind"`     // the operation's kind: run or batch
	Start    int64  `json:"start_ns"` // since the traced window began
	Dur      int64  `json:"dur_ns"`
}

// spanRec is a span as held in memory: pointer-free, so the garbage
// collector never scans the chunks, and stored in fixed-size chunks, so
// recording never copies earlier spans.
type spanRec struct {
	trace, id, parent int64
	start, dur        int64
	name              uint16 // index into tracer.names
	batch             bool
}

const spanChunk = 4096

// tracer holds the spans of one traced window in memory. A nil tracer
// records nothing.
type tracer struct {
	workload string
	t0       time.Time

	mu     sync.Mutex
	ids    int64
	names  []string
	nameID map[string]uint16
	chunks [][]spanRec
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), nameID: make(map[string]uint16)}
}

// spanRef is an open span; the zero value (from a nil tracer) is inert.
type spanRef struct {
	tr *tracer
	spanRec
}

// root opens the root span of operation k.
func (t *tracer) root(k int, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	return t.open(int64(k), 0, name, isBatch(k))
}

func (t *tracer) open(trace, parent int64, name string, batch bool) spanRef {
	t.mu.Lock()
	t.ids++
	r := spanRec{trace: trace, id: t.ids, parent: parent, batch: batch, name: t.nameIndex(name)}
	t.mu.Unlock()
	r.start = int64(time.Since(t.t0))
	return spanRef{tr: t, spanRec: r}
}

// nameIndex interns name; the caller holds t.mu.
func (t *tracer) nameIndex(name string) uint16 {
	i, ok := t.nameID[name]
	if !ok {
		i = uint16(len(t.names))
		t.names = append(t.names, name)
		t.nameID[name] = i
	}
	return i
}

// child opens a span whose parent is s.
func (s spanRef) child(name string) spanRef {
	if s.tr == nil {
		return spanRef{}
	}
	return s.tr.open(s.trace, s.id, name, s.batch)
}

// end closes s and records it.
func (s spanRef) end() {
	t := s.tr
	if t == nil {
		return
	}
	s.dur = int64(time.Since(t.t0)) - s.start
	t.mu.Lock()
	if n := len(t.chunks); n == 0 || len(t.chunks[n-1]) == spanChunk {
		t.chunks = append(t.chunks, make([]spanRec, 0, spanChunk))
	}
	last := &t.chunks[len(t.chunks)-1]
	*last = append(*last, s.spanRec)
	t.mu.Unlock()
}

// each calls f for every recorded span.
func (t *tracer) each(f func(r *spanRec)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.chunks {
		for i := range c {
			f(&c[i])
		}
	}
}

// durationsUs returns the durations in µs of the spans named name of
// operations of the given kind ("" for both kinds).
func (t *tracer) durationsUs(name, kind string) []float64 {
	t.mu.Lock()
	id, ok := t.nameID[name]
	t.mu.Unlock()
	var out []float64
	if !ok {
		return out
	}
	t.each(func(r *spanRec) {
		if r.name == id && (kind == "" || kind == kindName(r.batch)) {
			out = append(out, float64(r.dur)/1e3)
		}
	})
	return out
}

func kindName(batch bool) string {
	if batch {
		return "batch"
	}
	return "run"
}

// appendSpans appends the tracer's spans to path as JSONL.
func (t *tracer) appendSpans(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	var encErr error
	t.each(func(r *spanRec) {
		if encErr == nil {
			encErr = enc.Encode(span{Workload: t.workload, Trace: r.trace, ID: r.id, Parent: r.parent,
				Name: t.names[r.name], Kind: kindName(r.batch), Start: r.start, Dur: r.dur})
		}
	})
	if encErr == nil {
		encErr = bw.Flush()
	}
	if encErr != nil {
		f.Close()
		return encErr
	}
	return f.Close()
}
