package qat

// The RE register file: an alternative Coprocessor backend that holds pbit
// state as run-length-compressed re.Pattern values instead of dense AoB
// vectors. This is the paper's answer to the E = 16 scaling wall — the
// Section 1.2 regular-expression representation promoted from a library
// (package re) to an execution engine behind the same Table 3 instruction
// semantics, so structured workloads above 16-way entanglement become
// servable.
//
// Each register owns one Pattern, and gates write their result into the
// destination's Pattern in place, so a warm file allocates nothing per
// instruction. A register is in one of two states: compressed (its
// Pattern) or spilled (a dense AoB vector). Operations execute in the
// compressed domain — spilled operands are recompressed on use — and a
// result whose run count exceeds the spill budget is stored densely
// instead, bounding the memory a pathological (incompressible) value can
// occupy. Spilling is only possible when the total ways fit dense
// hardware (<= aob.MaxWays); above that the budget is ignored, because a
// dense fallback does not exist — that regime is exactly the one where the
// workload must stay structured.

import (
	"fmt"

	"tangled/internal/aob"
	"tangled/internal/isa"
	"tangled/internal/re"
)

// Backend names for Config.Backend.
const (
	// BackendDense is the default AoB register file (the paper's hardware).
	BackendDense = "dense"
	// BackendRE executes on run-length-compressed patterns.
	BackendRE = "re"
)

// MaxREWays bounds the entanglement degree of the RE backend. The ISA's
// 16-bit scalar registers make reductions above this width meaningless to
// read back, and chunk counts stay small (<= 256 chunks at the hardware
// chunk size).
const MaxREWays = 24

// DefaultSpillRuns is the run-count budget above which an RE-backend result
// is stored densely. At the default geometry a register at the budget costs
// about as much as the dense form it replaces, so holding more runs
// compressed would be a loss on both axes.
const DefaultSpillRuns = 64

// Config selects a register-file implementation and geometry.
// NewFromConfig is the constructor that honors it; New/NewWithConstants
// remain the dense shorthands.
type Config struct {
	// Ways is the entanglement degree; 0 means the full 16-way hardware.
	// The dense backend allows [0, aob.MaxWays]; RE allows [0, MaxREWays].
	Ways int
	// ConstantRegs selects the Section 5 constant-register variant.
	ConstantRegs bool
	// Backend is "" or BackendDense for the AoB file, BackendRE for the
	// compressed file.
	Backend string
	// ChunkWays is the RE symbol size; 0 means min(Ways, aob.MaxWays).
	ChunkWays int
	// SpillRuns is the RE spill budget: results with more runs are stored
	// densely. 0 means DefaultSpillRuns; negative disables spilling.
	SpillRuns int
}

// reFile is the compressed register file hanging off a Coprocessor.
type reFile struct {
	sp        *re.Space
	spillRuns int // <0 disables; only meaningful when ways <= aob.MaxWays
	// pats[i] is register i's own Pattern, never shared with another
	// register; it holds the value unless dense[i] is non-nil.
	pats   [isa.NumQRegs]*re.Pattern
	dense  [isa.NumQRegs]*aob.Vector // non-nil exactly when spilled
	tmp    *re.Pattern               // ccnot/cswap scratch
	spills uint64
}

// Canonical validates cfg and makes its defaults explicit, so that every
// spelling of one geometry compares equal: the farm keys machine pools and
// the memo on the canonical Config. It names the backend, resolves Ways 0
// to the 16-way hardware, zeroes the RE knobs on a dense config (a dense
// key never varies on them), and on RE resolves ChunkWays 0 to
// min(Ways, aob.MaxWays) and SpillRuns 0 to DefaultSpillRuns. A negative
// budget, or a width past dense hardware (no dense form exists to spill
// into), becomes -1. On error the returned Config is cfg as far as it was
// resolved.
func (cfg Config) Canonical() (Config, error) {
	switch cfg.Backend {
	case "", BackendDense:
		cfg.Backend = BackendDense
		cfg.ChunkWays, cfg.SpillRuns = 0, 0
		if cfg.Ways == 0 {
			cfg.Ways = aob.MaxWays
		}
		if cfg.Ways < 0 || cfg.Ways > aob.MaxWays {
			return cfg, fmt.Errorf("qat: dense ways %d out of range [0,%d]", cfg.Ways, aob.MaxWays)
		}
		return cfg, nil
	case BackendRE:
	default:
		return cfg, fmt.Errorf("qat: unknown backend %q", cfg.Backend)
	}
	if cfg.Ways == 0 {
		cfg.Ways = aob.MaxWays
	}
	if cfg.Ways < 0 || cfg.Ways > MaxREWays {
		return cfg, fmt.Errorf("qat: re ways %d out of range [0,%d]", cfg.Ways, MaxREWays)
	}
	if cfg.ChunkWays == 0 {
		cfg.ChunkWays = min(cfg.Ways, aob.MaxWays)
	}
	if cfg.ChunkWays < 0 || cfg.ChunkWays > aob.MaxWays || cfg.ChunkWays > cfg.Ways {
		return cfg, fmt.Errorf("qat: re chunk ways %d out of range [0,min(%d,ways)]", cfg.ChunkWays, aob.MaxWays)
	}
	if cfg.SpillRuns == 0 {
		cfg.SpillRuns = DefaultSpillRuns
	}
	if cfg.Ways > aob.MaxWays || cfg.SpillRuns < 0 {
		cfg.SpillRuns = -1
	}
	return cfg, nil
}

// NewFromConfig builds a coprocessor per cfg, canonicalized first. The
// zero Config is the paper's dense 16-way hardware.
func NewFromConfig(cfg Config) (*Coprocessor, error) {
	cfg, err := cfg.Canonical()
	if err != nil {
		return nil, err
	}
	if cfg.Backend == BackendDense {
		if cfg.ConstantRegs {
			return NewWithConstants(cfg.Ways), nil
		}
		return New(cfg.Ways), nil
	}
	sp, err := re.NewSpace(cfg.Ways, cfg.ChunkWays)
	if err != nil {
		return nil, err
	}
	q := &Coprocessor{ways: cfg.Ways}
	q.re = &reFile{sp: sp, spillRuns: cfg.SpillRuns, tmp: sp.Zero()}
	for i := range q.re.pats {
		q.re.pats[i] = sp.Zero()
	}
	if cfg.ConstantRegs {
		q.re.pats[1].SetOne()
		q.reserved[0], q.reserved[1] = true, true
		for k := 0; k < cfg.Ways; k++ {
			q.re.pats[2+k].SetHad(k)
			q.reserved[2+k] = true
		}
	}
	return q, nil
}

// Backend reports which register-file implementation this coprocessor runs.
func (q *Coprocessor) Backend() string {
	if q.re != nil {
		return BackendRE
	}
	return BackendDense
}

// Spills reports how many RE-backend results exceeded the spill budget and
// were stored densely. Always 0 on the dense backend.
func (q *Coprocessor) Spills() uint64 {
	if q.re == nil {
		return 0
	}
	return q.re.spills
}

// Space exposes the RE backend's symbol space (nil on the dense backend) so
// hosts can read compression-health counters like SymbolCount and Resets.
func (q *Coprocessor) Space() *re.Space {
	if q.re == nil {
		return nil
	}
	return q.re.sp
}

// pat returns register i in compressed form, recompressing a spilled slot
// transiently (the slot itself stays dense; only results re-enter the
// compressed state, and only under the budget).
func (f *reFile) pat(i uint8) *re.Pattern {
	if f.dense[i] == nil {
		return f.pats[i]
	}
	p, err := f.sp.FromDense(f.dense[i])
	if err != nil {
		// dense slots exist only when ways <= aob.MaxWays and always match
		// the space geometry, so this is unreachable absent a bug.
		panic(fmt.Sprintf("qat: recompress of spilled register @%d: %v", i, err))
	}
	return p
}

// settle applies the spill budget to register i once its Pattern holds a
// new value: a value over the budget is stored densely, and the register
// gets a fresh Pattern so the over-budget runs are not kept alongside it.
func (f *reFile) settle(i uint8) error {
	if p := f.pats[i]; f.spillRuns >= 0 && p.NumRuns() > f.spillRuns {
		v, err := p.ToDense()
		if err != nil {
			return fmt.Errorf("qat: spill of register @%d: %v", i, err)
		}
		f.pats[i], f.dense[i] = f.sp.Zero(), v
		f.spills++
		return nil
	}
	f.dense[i] = nil
	return nil
}

// runsIn reports the compressed length a register currently occupies, for
// the word-op work metric: spilled slots count as their chunk count (every
// chunk is distinct work, same as dense).
func (f *reFile) runsIn(i uint8) uint64 {
	if f.dense[i] == nil {
		return uint64(f.pats[i].NumRuns())
	}
	return f.sp.Channels() >> uint(f.sp.ChunkWays())
}

// chunkWords is the dense word cost of one symbol.
func (f *reFile) chunkWords() uint64 {
	cw := f.sp.ChunkWays()
	if cw < 6 {
		return 1
	}
	return uint64(1) << uint(cw-6)
}

// execRE is the kernel switch of the compressed register file: the same
// Table 3 semantics as execDense, past the same checks in Exec, on a
// different representation. The energy meter is charged per op class with
// no toggle pairs (toggle counting is a dense-representation proxy;
// BACKENDS.md records the difference), and the word-op counter is charged
// with compressed work: chunk words times the runs the operation actually
// processed.
func (q *Coprocessor) execRE(inst isa.Inst, rd uint16) (out uint16, writes bool, err error) {
	f := q.re
	if q.Meter != nil {
		q.Meter.Record(inst.Op)
	}
	charge := func(runs uint64) {
		if q.Metrics != nil {
			q.Metrics.WordOps.Add(runs * f.chunkWords())
		}
	}

	// written settles register i after an in-place write and charges the
	// runs written.
	written := func(i uint8) error {
		runs := uint64(f.pats[i].NumRuns())
		if err := f.settle(i); err != nil {
			return err
		}
		charge(runs)
		return nil
	}

	// Operands are read through pat before the destination's Pattern is
	// written, and the Set methods tolerate aliasing, so any of QA, QB and
	// QC may name the same register.
	dst := f.pats[inst.QA]
	switch inst.Op {
	case isa.OpQZero:
		dst.SetZero()
	case isa.OpQOne:
		dst.SetOne()
	case isa.OpQHad:
		dst.SetHad(int(inst.K))
	case isa.OpQNot:
		dst.SetNot(f.pat(inst.QA))
	case isa.OpQAnd:
		dst.SetAnd(f.pat(inst.QB), f.pat(inst.QC))
	case isa.OpQOr:
		dst.SetOr(f.pat(inst.QB), f.pat(inst.QC))
	case isa.OpQXor:
		dst.SetXor(f.pat(inst.QB), f.pat(inst.QC))
	case isa.OpQCnot:
		dst.SetXor(f.pat(inst.QA), f.pat(inst.QB))
	case isa.OpQCcnot:
		f.tmp.SetAnd(f.pat(inst.QB), f.pat(inst.QC))
		dst.SetXor(f.pat(inst.QA), f.tmp)
	case isa.OpQSwap:
		f.pats[inst.QA], f.pats[inst.QB] = f.pats[inst.QB], f.pats[inst.QA]
		f.dense[inst.QA], f.dense[inst.QB] = f.dense[inst.QB], f.dense[inst.QA]
		charge(f.runsIn(inst.QA) + f.runsIn(inst.QB))
		return 0, false, nil
	case isa.OpQCswap:
		// Fredkin as in the dense kernel: diff = (a^b)&ctrl, then a^=diff,
		// b^=diff — conserving total population. diff lives in tmp, so
		// writing a first leaves it and b intact (when QB is QA, diff is 0).
		a, b := f.pat(inst.QA), f.pat(inst.QB)
		f.tmp.SetXor(a, b)
		f.tmp.SetAnd(f.tmp, f.pat(inst.QC))
		dst.SetXor(a, f.tmp)
		if err := written(inst.QA); err != nil {
			return 0, false, err
		}
		f.pats[inst.QB].SetXor(b, f.tmp)
		return 0, false, written(inst.QB)
	case isa.OpQMeas:
		charge(1)
		return uint16(f.pat(inst.QA).Meas(uint64(rd))), true, nil
	case isa.OpQNext:
		charge(f.runsIn(inst.QA))
		// Above 16 ways the 16-bit destination truncates the channel
		// number — an ISA limit, not a backend one (BACKENDS.md).
		return uint16(f.pat(inst.QA).Next(uint64(rd))), true, nil
	default: // isa.OpQPop; Exec admits only Qat ops
		charge(f.runsIn(inst.QA))
		return uint16(f.pat(inst.QA).PopAfter(uint64(rd))), true, nil
	}
	return 0, false, written(inst.QA)
}
