package cpu

// Performance counters for the functional machine, the software analog of a
// hardware PMU: per-opcode retirement counts and multi-cycle-machine state
// counts by instruction class. Handles come from an obs.Registry and may be
// shared across machines (farm workers), where the atomic counters make the
// aggregation exact. A nil *Metrics disables everything at the cost of one
// nil check per retired instruction.

import (
	"tangled/internal/isa"
	"tangled/internal/obs"
	"tangled/internal/qat"
)

// Instruction classes for cycle accounting: where a multi-cycle
// implementation spends its states (see MultiCyclesFor).
const (
	classALU = iota
	classBranch
	classMem
	classFloat
	classSys
	classQatGate
	classQatRead
	numClasses
)

var classNames = [numClasses]string{"alu", "branch", "mem", "float", "sys", "qat-gate", "qat-read"}

// classOf buckets an opcode into its cycle-accounting class.
func classOf(op isa.Op) int {
	switch op {
	case isa.OpBrf, isa.OpBrt, isa.OpJumpr:
		return classBranch
	case isa.OpLoad, isa.OpStore:
		return classMem
	case isa.OpAddf, isa.OpMulf, isa.OpNegf, isa.OpRecip, isa.OpFloat, isa.OpInt:
		return classFloat
	case isa.OpSys:
		return classSys
	case isa.OpQMeas, isa.OpQNext, isa.OpQPop:
		return classQatRead
	default:
		if op.IsQat() {
			return classQatGate
		}
		return classALU
	}
}

// Metrics is the functional machine's counter set. Construct with
// NewMetrics; a nil value disables instrumentation.
type Metrics struct {
	// OpRetired counts retired instructions by opcode. Because the label is
	// the opcode, derived figures come free: OpRetired[load] is the memory
	// read count, OpRetired[brt]+OpRetired[brf] the branch count.
	OpRetired *obs.CounterVec
	// ClassCycles counts the states a multi-cycle (non-pipelined)
	// implementation would spend, by instruction class — the per-class CPI
	// numerator against OpRetired.
	ClassCycles *obs.CounterVec
	// Qat is the coprocessor counter set, attached to Machine.Qat alongside
	// this set (see Machine.AttachMetrics).
	Qat *qat.Metrics
}

// NewMetrics registers the functional-machine counters on r and returns the
// handle set, or nil when r is nil (instrumentation off).
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	opNames := make([]string, isa.NumOps)
	for i := range opNames {
		opNames[i] = isa.Op(i).Name()
	}
	return &Metrics{
		OpRetired: r.CounterVec("cpu_op_retired_total",
			"retired instructions by opcode", "op", opNames),
		ClassCycles: r.CounterVec("cpu_class_cycles_total",
			"multi-cycle machine states by instruction class", "class", classNames[:]),
		Qat: qat.NewMetrics(r),
	}
}

// retire accounts one retired instruction; nil-safe.
func (mm *Metrics) retire(inst isa.Inst) {
	if mm == nil {
		return
	}
	mm.OpRetired.At(int(inst.Op)).Inc()
	mm.ClassCycles.At(classOf(inst.Op)).Add(MultiCyclesFor(inst))
}

// AttachMetrics wires a counter set into the machine and its coprocessor;
// nil detaches both. Like Out and Trace, metrics are a host attachment:
// Load keeps them, and the farm detaches them before pooling a machine so
// it cannot bill one tenant's work to another's registry.
func (m *Machine) AttachMetrics(mm *Metrics) {
	if mm == nil {
		m.Metrics = nil
		m.Qat.Metrics = nil
		return
	}
	m.Metrics = mm
	m.Qat.Metrics = mm.Qat
}
