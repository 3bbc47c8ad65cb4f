package qat

// The RE register file: an alternative Coprocessor backend that holds pbit
// state as run-length-compressed re.Pattern values instead of dense AoB
// vectors. This is the paper's answer to the E = 16 scaling wall — the
// Section 1.2 regular-expression representation promoted from a library
// (package re) to an execution engine behind the same Table 3 instruction
// semantics, so structured workloads above 16-way entanglement become
// servable.
//
// Each register is in exactly one of two states: compressed (a Pattern) or
// spilled (a dense AoB vector). Operations execute in the compressed domain
// — spilled operands are recompressed on use — and a result whose run count
// exceeds the spill budget is stored densely instead, bounding the memory a
// pathological (incompressible) value can occupy. Spilling is only possible
// when the total ways fit dense hardware (<= aob.MaxWays); above that the
// budget is ignored, because a dense fallback does not exist — that regime
// is exactly the one where the workload must stay structured.

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
	pats      [isa.NumQRegs]*re.Pattern
	dense     [isa.NumQRegs]*aob.Vector // non-nil exactly when pats is nil
	spills    uint64
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
	q.re = &reFile{sp: sp, spillRuns: cfg.SpillRuns}
	for i := range q.re.pats {
		q.re.pats[i] = sp.Zero()
	}
	if cfg.ConstantRegs {
		q.re.pats[1] = sp.One()
		q.reserved[0], q.reserved[1] = true, true
		for k := 0; k < cfg.Ways; k++ {
			q.re.pats[2+k] = sp.Had(k)
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
	if p := f.pats[i]; p != nil {
		return p
	}
	p, err := f.sp.FromDense(f.dense[i])
	if err != nil {
		// dense slots exist only when ways <= aob.MaxWays and always match
		// the space geometry, so this is unreachable absent a bug.
		panic(fmt.Sprintf("qat: recompress of spilled register @%d: %v", i, err))
	}
	return p
}

// store writes a result pattern into register i, spilling to dense when it
// exceeds the run budget.
func (f *reFile) store(i uint8, p *re.Pattern) error {
	if f.spillRuns >= 0 && p.NumRuns() > f.spillRuns {
		v, err := p.ToDense()
		if err != nil {
			return fmt.Errorf("qat: spill of register @%d: %v", i, err)
		}
		f.pats[i], f.dense[i] = nil, v
		f.spills++
		return nil
	}
	f.pats[i], f.dense[i] = p, nil
	return nil
}

// runsIn reports the compressed length a register currently occupies, for
// the word-op work metric: spilled slots count as their chunk count (every
// chunk is distinct work, same as dense).
func (f *reFile) runsIn(i uint8) uint64 {
	if f.pats[i] != nil {
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

	writeTo := func(dst uint8, p *re.Pattern) error {
		if err := f.store(dst, p); err != nil {
			return err
		}
		charge(uint64(p.NumRuns()))
		return nil
	}

	switch inst.Op {
	case isa.OpQZero:
		return 0, false, writeTo(inst.QA, f.sp.Zero())
	case isa.OpQOne:
		return 0, false, writeTo(inst.QA, f.sp.One())
	case isa.OpQHad:
		return 0, false, writeTo(inst.QA, f.sp.Had(int(inst.K)))
	case isa.OpQNot:
		return 0, false, writeTo(inst.QA, f.pat(inst.QA).Not())
	case isa.OpQAnd:
		return 0, false, writeTo(inst.QA, f.pat(inst.QB).And(f.pat(inst.QC)))
	case isa.OpQOr:
		return 0, false, writeTo(inst.QA, f.pat(inst.QB).Or(f.pat(inst.QC)))
	case isa.OpQXor:
		return 0, false, writeTo(inst.QA, f.pat(inst.QB).Xor(f.pat(inst.QC)))
	case isa.OpQCnot:
		return 0, false, writeTo(inst.QA, f.pat(inst.QA).Xor(f.pat(inst.QB)))
	case isa.OpQCcnot:
		ctrl := f.pat(inst.QB).And(f.pat(inst.QC))
		return 0, false, writeTo(inst.QA, f.pat(inst.QA).Xor(ctrl))
	case isa.OpQSwap:
		f.pats[inst.QA], f.pats[inst.QB] = f.pats[inst.QB], f.pats[inst.QA]
		f.dense[inst.QA], f.dense[inst.QB] = f.dense[inst.QB], f.dense[inst.QA]
		charge(f.runsIn(inst.QA) + f.runsIn(inst.QB))
		return 0, false, nil
	case isa.OpQCswap:
		// Fredkin as in the dense kernel: diff = (a^b)&ctrl, then a^=diff,
		// b^=diff — conserving total population.
		a, b := f.pat(inst.QA), f.pat(inst.QB)
		diff := a.Xor(b).And(f.pat(inst.QC))
		if err := writeTo(inst.QA, a.Xor(diff)); err != nil {
			return 0, false, err
		}
		return 0, false, writeTo(inst.QB, b.Xor(diff))
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
}
