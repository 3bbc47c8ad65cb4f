// Package qat models the architectural state of the Qat coprocessor: 256
// AoB registers (@0..@255) and the execution semantics of the Table 3
// instructions. Qat has no path to host memory — "all AoB values are
// exclusively held in Qat coprocessor registers" — so this is the complete
// state.
//
// The register width is a construction parameter: 16 ways (65,536-bit
// registers) for the paper's full design, 8 ways for the student versions,
// and anything smaller for exhaustive testing.
package qat

import (
	"fmt"

	"tangled/internal/aob"
	"tangled/internal/energy"
	"tangled/internal/isa"
	"tangled/internal/re"
)

// Coprocessor is one Qat instance.
type Coprocessor struct {
	ways int
	regs [isa.NumQRegs]*aob.Vector

	// re, when non-nil, replaces the dense register file above with the
	// run-length-compressed one (see refile.go); regs stays nil-filled then.
	re *reFile

	// reserved marks registers exposed as hard-wired constants (the
	// Section 5 simplification); writes to them report an error.
	reserved [isa.NumQRegs]bool

	// written marks registers that Exec or SetReg may have changed since
	// the last Reset, which therefore clears only those.
	written [isa.NumQRegs]bool

	// Meter, when non-nil, accumulates switching/erasure energy proxies
	// for every executed operation (see package energy).
	Meter *energy.Meter

	// Metrics, when non-nil, feeds the shared performance-counter set (see
	// metrics.go). Like Meter it is a host attachment; the farm attaches
	// and detaches it around each pooled run (cpu.Machine.AttachMetrics).
	Metrics *Metrics
}

// New returns a Qat coprocessor with ways-way entanglement and all
// registers cleared.
func New(ways int) *Coprocessor {
	q := &Coprocessor{ways: ways}
	for i := range q.regs {
		q.regs[i] = aob.New(ways)
	}
	return q
}

// NewWithConstants returns a coprocessor implementing the paper's Section 5
// simplification: @0 hard-wired to 0, @1 to 1, and @2..@(2+ways-1) to the
// Hadamard patterns H0..H(ways-1), replacing the zero/one/had instructions
// with constant-initialized registers. The reserved registers reject
// writes.
func NewWithConstants(ways int) *Coprocessor {
	q := New(ways)
	q.regs[1].One()
	q.reserved[0], q.reserved[1] = true, true
	for k := 0; k < ways; k++ {
		q.regs[2+k].Had(k)
		q.reserved[2+k] = true
	}
	return q
}

// Ways returns the entanglement degree of the register file.
func (q *Coprocessor) Ways() int { return q.ways }

// ConstZeroReg returns the register hard-wired to 0 under the
// NewWithConstants convention.
func ConstZeroReg() uint8 { return 0 }

// ConstOneReg returns the register hard-wired to all-ones under the
// NewWithConstants convention.
func ConstOneReg() uint8 { return 1 }

// ConstHadReg returns the register hard-wired to Hadamard pattern k under
// the NewWithConstants convention.
func ConstHadReg(k int) uint8 { return uint8(2 + k) }

// Reg exposes register qa for inspection (tests, tracing). On the dense
// backend the returned vector is live state; callers must not mutate it
// (Reset would not know to clear the change; use SetReg instead). On
// the RE backend it is a freshly materialized dense snapshot, which requires
// ways <= aob.MaxWays — above that there is no dense form and Reg panics;
// use RegPattern instead.
func (q *Coprocessor) Reg(qa uint8) *aob.Vector {
	if q.re == nil {
		return q.regs[qa]
	}
	if d := q.re.dense[qa]; d != nil {
		return d.Clone()
	}
	v, err := q.re.pats[qa].ToDense()
	if err != nil {
		panic(fmt.Sprintf("qat: Reg(@%d) on %d-way re backend: %v", qa, q.ways, err))
	}
	return v
}

// RegPattern returns a snapshot of register qa of the RE backend in
// compressed form: the register's own Pattern is overwritten by later
// gates, so the caller gets a copy. It returns nil on the dense backend.
func (q *Coprocessor) RegPattern(qa uint8) *re.Pattern {
	if q.re == nil {
		return nil
	}
	return q.re.pat(qa).Clone()
}

// SetReg overwrites register qa (test fixture helper; real programs build
// values with gates). On the RE backend the vector is compressed on entry,
// so its ways must still match the coprocessor's — which therefore must not
// exceed aob.MaxWays.
func (q *Coprocessor) SetReg(qa uint8, v *aob.Vector) {
	if v.Ways() != q.ways {
		panic(fmt.Sprintf("qat: vector ways %d != coprocessor ways %d", v.Ways(), q.ways))
	}
	if q.re != nil {
		p, err := q.re.sp.FromDense(v)
		if err != nil {
			panic(fmt.Sprintf("qat: SetReg(@%d): %v", qa, err))
		}
		q.re.pats[qa] = p
		if err := q.re.settle(qa); err != nil {
			panic(fmt.Sprintf("qat: SetReg(@%d): %v", qa, err))
		}
		q.written[qa] = true
		return
	}
	q.regs[qa] = v.Clone()
	q.written[qa] = true
}

// Reset clears every non-reserved register written since the last Reset,
// so its cost follows what the last run touched rather than the size of
// the register file. Exec marks an instruction's write set before its
// kernel runs and SetReg marks its target, which makes the marks a
// superset of the registers that changed even when a run faulted or was
// cut short. Registers are zeroed in place, so a pooled coprocessor is reset
// between runs without touching the heap. An attached Meter is
// deliberately left accumulating (metering spans runs by design); detach or
// reset it separately when a machine changes tenants.
func (q *Coprocessor) Reset() {
	// The RE symbol space (intern table, memo) survives a reset the same
	// way the dense path keeps its allocations: it is a cache, bounded by
	// its own cap, and carries no channel state.
	for i, w := range q.written {
		if !w || q.reserved[i] {
			continue
		}
		if q.re != nil {
			q.re.pats[i].SetZero()
			q.re.dense[i] = nil
		} else {
			q.regs[i].Zero()
		}
	}
	q.written = [isa.NumQRegs]bool{}
}

// Exec executes one Qat instruction. rd carries the Tangled register value
// consumed by meas/next/pop; the returned value and flag report a Tangled
// register write-back (only those three ops produce one).
//
// The checks are shared by both register files and run before either
// kernel switch: a non-Qat op is refused, the attempt is counted, and a
// write to a reserved register (the write set comes from isa.QatWrites) or
// a had pattern beyond the hardware width faults with no register changed.
// Each register of the write set is marked for the next Reset as it is
// checked, before any kernel runs.
func (q *Coprocessor) Exec(inst isa.Inst, rd uint16) (out uint16, writes bool, err error) {
	if !inst.Op.IsQat() {
		return 0, false, fmt.Errorf("qat: not a Qat op: %s", inst.Op.Name())
	}
	if q.Metrics != nil {
		q.Metrics.Ops.At(int(inst.Op) - int(isa.OpQZero)).Inc()
	}
	ws, n := isa.QatWrites(inst)
	for _, r := range ws[:n] {
		if q.reserved[r] {
			return 0, false, fmt.Errorf("qat: write to reserved constant register @%d", r)
		}
		q.written[r] = true
	}
	if inst.Op == isa.OpQHad && int(inst.K) >= q.ways {
		return 0, false, fmt.Errorf("qat: had pattern %d exceeds %d-way hardware", inst.K, q.ways)
	}
	if q.re != nil {
		return q.execRE(inst, rd)
	}
	return q.execDense(inst, rd)
}

// execDense is the kernel switch of the dense AoB register file.
func (q *Coprocessor) execDense(inst isa.Inst, rd uint16) (out uint16, writes bool, err error) {
	a := q.regs[inst.QA]
	if q.Metrics != nil {
		q.Metrics.WordOps.Add(wordOpsFor(inst.Op, a.NumWords()))
	}
	var snapA, snapB *aob.Vector
	if q.Meter != nil {
		switch inst.Op {
		case isa.OpQMeas, isa.OpQNext, isa.OpQPop:
			q.Meter.Record(inst.Op)
		case isa.OpQSwap, isa.OpQCswap:
			snapA = a.Clone()
			snapB = q.regs[inst.QB].Clone()
		default:
			snapA = a.Clone()
		}
	}
	switch inst.Op {
	case isa.OpQZero:
		a.Zero()
	case isa.OpQOne:
		a.One()
	case isa.OpQNot:
		a.Not()
	case isa.OpQHad:
		a.Had(int(inst.K))
	case isa.OpQAnd:
		a.And(q.regs[inst.QB], q.regs[inst.QC])
	case isa.OpQOr:
		a.Or(q.regs[inst.QB], q.regs[inst.QC])
	case isa.OpQXor:
		a.Xor(q.regs[inst.QB], q.regs[inst.QC])
	case isa.OpQCnot:
		a.CNot(q.regs[inst.QB])
	case isa.OpQCcnot:
		a.CCNot(q.regs[inst.QB], q.regs[inst.QC])
	case isa.OpQSwap:
		a.Swap(q.regs[inst.QB])
	case isa.OpQCswap:
		a.CSwap(q.regs[inst.QB], q.regs[inst.QC])
	case isa.OpQMeas:
		return uint16(a.Meas(uint64(rd))), true, nil
	case isa.OpQNext:
		return uint16(a.Next(uint64(rd))), true, nil
	case isa.OpQPop:
		// pop counts 1s strictly after the given channel; with 16-way
		// hardware the count past channel 0 fits 16 bits (max 65535).
		return uint16(a.PopAfter(uint64(rd))), true, nil
	}
	if snapB != nil {
		q.Meter.Record(inst.Op, [2]*aob.Vector{snapA, a}, [2]*aob.Vector{snapB, q.regs[inst.QB]})
	} else if snapA != nil {
		q.Meter.Record(inst.Op, [2]*aob.Vector{snapA, a})
	}
	return 0, false, nil
}
