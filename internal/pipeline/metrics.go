package pipeline

// Pipeline performance counters and machine-readable cycle tracing. The
// counter set refines the coarse Stats struct into labelled families — the
// stall/flush breakdown by cause and per-stage occupancy — and the trace
// ring captures the per-cycle stage diagram as obs.TraceEvent rows, the
// JSONL counterpart of the textual WriteTracer diagram.
//
// Both are host attachments costing one nil check per cycle when disabled,
// and both observe the pipeline without touching its logic: occupancy is
// read at the start of the cycle (matching the textual tracer and the
// latch view a waveform viewer would show) and hazard causes are derived
// from the Stats deltas the cycle produced, so the counters cannot drift
// from the Stats they refine.

import (
	"strings"

	"tangled/internal/obs"
)

// Canonical stage labels across both organizations; each Pipeline indexes
// into this set via its own stage list.
var stageLabels = []string{"IF", "ID", "EX", "EXM", "MEM", "WB"}

// stallCauses label the Stalls counter family, in Stats field order.
var stallCauses = []string{"load-use", "raw", "ex-busy", "fetch", "flush"}

const (
	stallLoadUse = iota
	stallRaw
	stallExBusy
	stallFetch
	stallFlush
)

// Metrics is the pipeline counter set; construct with NewMetrics (nil
// registry -> nil, instrumentation off). One set may be shared by many
// pipelines (farm workers), including mixed 4- and 5-stage configurations.
type Metrics struct {
	// Cycles counts clock cycles; Retired counts instructions leaving WB.
	Cycles, Retired *obs.Counter
	// StageOccupancy counts, per stage label, the cycles the stage held a
	// valid instruction at the start of the cycle.
	StageOccupancy *obs.CounterVec
	// Stalls breaks lost cycles down by cause, replacing the single
	// TotalStalls figure: load-use, raw, ex-busy, fetch, flush.
	Stalls *obs.CounterVec
	// BranchFlushes counts taken-branch redirects (the events whose
	// squashed slots the "flush" stall cause tallies).
	BranchFlushes *obs.Counter
}

// NewMetrics registers the pipeline counters on r, or returns nil when r is
// nil.
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		Cycles:  r.Counter("pipeline_cycles_total", "pipeline clock cycles"),
		Retired: r.Counter("pipeline_insts_retired_total", "instructions retired from WB"),
		StageOccupancy: r.CounterVec("pipeline_stage_occupied_cycles_total",
			"cycles each stage held a valid instruction", "stage", stageLabels),
		Stalls: r.CounterVec("pipeline_stall_cycles_total",
			"cycles lost to hazards, by cause", "cause", stallCauses),
		BranchFlushes: r.Counter("pipeline_branch_flushes_total",
			"taken-branch redirects (each squashes the wrong-path IF/ID slots)"),
	}
}

// SetMetrics attaches (or with nil detaches) a counter set. Load preserves
// the attachment, like SetOutput and SetTracer: it describes the host's
// view, not the program's state.
func (p *Pipeline) SetMetrics(mm *Metrics) {
	p.met = mm
	p.stageLabelIdx = p.stageLabelIdx[:0]
	if mm == nil {
		return
	}
	for _, name := range p.StageNames() {
		for li, label := range stageLabels {
			if name == label {
				p.stageLabelIdx = append(p.stageLabelIdx, li)
				break
			}
		}
	}
}

// SetTraceSink attaches (or with nil detaches) a cycle-trace sink — an
// *obs.TraceRing, or a decorated one such as obs.TagTrace — and every
// Cycle appends one obs.TraceEvent. Rings may be shared across pipelines
// (they are goroutine-safe), at the cost of interleaved rows. Pass a
// literal nil to detach: a nil *obs.TraceRing is a non-nil sink.
func (p *Pipeline) SetTraceSink(s obs.TraceSink) { p.ring = s }

// observe folds one completed cycle into the counters and the trace ring.
// pre is the Stats snapshot from before the cycle, occupied the start-of-
// cycle validity of each stage, and stages the start-of-cycle occupancy
// rendering (nil unless tracing).
func (p *Pipeline) observe(pre Stats, occupied []bool, stages []string, pc uint16, done bool) {
	d := struct{ loadUse, raw, exBusy, fetch, flush, flushes, retired uint64 }{
		loadUse: p.Stats.LoadUseStalls - pre.LoadUseStalls,
		raw:     p.Stats.RawStalls - pre.RawStalls,
		exBusy:  p.Stats.ExBusyStalls - pre.ExBusyStalls,
		fetch:   p.Stats.FetchStalls - pre.FetchStalls,
		flush:   p.Stats.FlushCycles - pre.FlushCycles,
		flushes: p.Stats.BranchFlushes - pre.BranchFlushes,
		retired: p.Stats.Insts - pre.Insts,
	}
	if mm := p.met; mm != nil {
		mm.Cycles.Inc()
		mm.Retired.Add(d.retired)
		for st, v := range occupied {
			if v {
				mm.StageOccupancy.At(p.stageLabelIdx[st]).Inc()
			}
		}
		mm.Stalls.At(stallLoadUse).Add(d.loadUse)
		mm.Stalls.At(stallRaw).Add(d.raw)
		mm.Stalls.At(stallExBusy).Add(d.exBusy)
		mm.Stalls.At(stallFetch).Add(d.fetch)
		mm.Stalls.At(stallFlush).Add(d.flush)
		mm.BranchFlushes.Add(d.flushes)
	}
	if p.ring != nil {
		var causes []string
		if d.loadUse > 0 {
			causes = append(causes, "load-use")
		}
		if d.raw > 0 {
			causes = append(causes, "raw")
		}
		if d.exBusy > 0 {
			causes = append(causes, "ex-busy")
		}
		if d.fetch > 0 {
			causes = append(causes, "fetch")
		}
		if d.flush > 0 {
			causes = append(causes, "flush")
		}
		if done {
			causes = append(causes, "halt")
		}
		p.ring.Append(obs.TraceEvent{
			Cycle:  p.Stats.Cycles,
			PC:     pc,
			Stages: stages,
			Event:  strings.Join(causes, ";"),
		})
	}
}
