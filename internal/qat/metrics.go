package qat

// Coprocessor performance counters: per-Qat-op execution counts and the AoB
// word-operation cost underneath them. The PBP model's whole point is that
// a "quantum" gate is really NumWords plain 64-bit word operations, so the
// word-op counter is the architectural work metric — the figure the paper's
// hardware-feasibility discussion (gate counts, OR-reduction width) cares
// about — while the op counter is the instruction-stream view. Costs are
// classed with the energy package's thermodynamic taxonomy so the counter
// agrees with what the energy meter would charge: swap-family ops touch two
// destination registers, read-only reductions scan one.

import (
	"tangled/internal/energy"
	"tangled/internal/isa"
	"tangled/internal/obs"
)

// qatOpNames lists the Qat opcodes in isa order, OpQZero first.
func qatOpNames() []string {
	names := make([]string, isa.NumOps-int(isa.OpQZero))
	for i := range names {
		names[i] = isa.Op(int(isa.OpQZero) + i).Name()
	}
	return names
}

// Metrics is the coprocessor counter set; nil disables instrumentation.
type Metrics struct {
	// Ops counts Qat instruction attempts by opcode, refused ones included
	// (Exec counts before its register-file checks).
	Ops *obs.CounterVec
	// WordOps counts 64-bit AoB words processed: the SIMD work a gate-level
	// Qat implementation performs, NumWords per written register (two for
	// the swap family) and one scan for the next/pop reductions.
	WordOps *obs.Counter
}

// NewMetrics registers the coprocessor counters on r, or returns nil when r
// is nil.
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		Ops: r.CounterVec("qat_op_executed_total",
			"executed Qat coprocessor instructions by opcode", "op", qatOpNames()),
		WordOps: r.Counter("qat_aob_word_ops_total",
			"64-bit AoB words processed by Qat operations"),
	}
}

// wordOpsFor returns the AoB word-operation cost of one executed op on
// numWords-word registers, classed per the energy model: every op that
// writes a register costs one full pass over it (two registers for
// swap/cswap); the next/pop reductions scan the register; meas reads one
// channel (one word).
func wordOpsFor(op isa.Op, numWords int) uint64 {
	switch energy.Classify(op) {
	case energy.Reversible, energy.Irreversible:
		if op == isa.OpQSwap || op == isa.OpQCswap {
			return 2 * uint64(numWords)
		}
		return uint64(numWords)
	default: // ReadOnly
		if op == isa.OpQMeas {
			return 1
		}
		return uint64(numWords)
	}
}

// RegisterMeter exposes an energy meter's accumulators as scrape-time
// gauges on r, wiring the Landauer/adiabatic cost model (package energy)
// into the metrics export. The meter keeps its own lifecycle (it is
// deliberately not reset with the coprocessor); these gauges just read it.
func RegisterMeter(r *obs.Registry, m *energy.Meter) {
	if r == nil || m == nil {
		return
	}
	r.GaugeFunc("qat_energy_switched_bits",
		"register bits toggled by Qat operations (CMOS dynamic-power proxy)",
		func() float64 { return float64(m.SwitchedBits) })
	r.GaugeFunc("qat_energy_erased_bits",
		"toggled bits written by irreversible Qat operations (Landauer proxy)",
		func() float64 { return float64(m.ErasedBits) })
	r.GaugeFunc("qat_energy_adiabatic_recoverable_bits",
		"switching energy an ideal adiabatic implementation could recover",
		func() float64 { return float64(m.AdiabaticRecoverable()) })
}
