// Package pipeline is a cycle-accurate model of the pipelined Tangled/Qat
// designs from Section 3 of the paper: in-order, single-issue pipelines of
// four stages (IF ID EXM WB — six of the eight student teams) or five
// stages (IF ID EX MEM WB — the other two), with data forwarding, hazard
// interlocks that span the Tangled and Qat register files, predict-not-taken
// control flow resolved in EX, and the two-word Qat instruction fetch that
// the paper reports was the students' most common difficulty.
//
// The model is timing-directed: instruction semantics come from the
// functional machine (package cpu) stepped exactly when an instruction
// reaches EX — which an in-order pipeline reaches in program order — while
// this package accounts for cycles, stalls and squashes. The invariant that
// the functional machine's PC always matches the instruction entering EX is
// checked every cycle, so any disagreement between the timing and
// functional views fails loudly.
//
// Configurable latencies reproduce the paper's design discussion: the
// Tangled mul is "the only operation for which purely combinatorial
// execution might be problematic", and the 16-way Qat next "might more
// appropriately be split into several pipeline stages" if OR-reduction is
// inefficient (Section 3.3). Both default to a single cycle, matching the
// students' implementations, which "were capable of sustaining completion
// of one instruction every clock cycle, provided there were no pipeline
// interlocks encountered".
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"

	"tangled/internal/aob"
	"tangled/internal/asm"
	"tangled/internal/cpu"
	"tangled/internal/isa"
	"tangled/internal/obs"
)

// Config selects a pipeline organization.
type Config struct {
	// Stages is 4 (IF ID EXM WB) or 5 (IF ID EX MEM WB).
	Stages int
	// Ways is the Qat entanglement degree (8 for student builds, 16 full).
	Ways int
	// Forwarding enables EX/MEM result bypassing into EX. When false, a
	// consumer waits in ID until the producer reaches WB (write-through
	// register file: WB writes in the first half cycle, ID reads in the
	// second).
	Forwarding bool
	// TwoWordFetchPenalty charges an extra IF cycle for the two-word Qat
	// instruction forms instead of assuming a double-wide fetch path.
	TwoWordFetchPenalty bool
	// MulLatency is the EX occupancy of the integer multiply (>= 1).
	MulLatency int
	// QatNextLatency is the EX occupancy of the Qat next/pop instructions
	// (>= 1), modeling the pipelined OR-reduction tree of Figure 8.
	QatNextLatency int
	// ConstantRegs selects the Section 5 Qat variant with @0/@1/@2..
	// hard-wired constants instead of zero/one/had instructions.
	ConstantRegs bool
}

// DefaultConfig is the paper's primary design point: a 5-stage fully
// forwarded pipeline over 16-way Qat with single-cycle operations.
func DefaultConfig() Config {
	return Config{Stages: 5, Ways: 16, Forwarding: true, MulLatency: 1, QatNextLatency: 1}
}

// StudentConfig mirrors the class-project constraints: 8-way Qat (students
// "were permitted to restrict the AoB values to 256 bits") and the 4-stage
// organization six of the eight teams chose.
func StudentConfig() Config {
	return Config{Stages: 4, Ways: 8, Forwarding: true, MulLatency: 1, QatNextLatency: 1}
}

func (c Config) validate() error {
	if c.Stages != 4 && c.Stages != 5 {
		return fmt.Errorf("pipeline: %d stages unsupported (4 or 5)", c.Stages)
	}
	if c.MulLatency < 1 || c.QatNextLatency < 1 {
		return errors.New("pipeline: latencies must be >= 1")
	}
	if c.Ways < 0 || c.Ways > aob.MaxWays {
		return fmt.Errorf("pipeline: ways %d out of range [0,%d]", c.Ways, aob.MaxWays)
	}
	return nil
}

// Stats reports the cycle accounting of a run.
type Stats struct {
	Cycles        uint64
	Insts         uint64 // retired instructions
	LoadUseStalls uint64 // forwarding on: load feeding the next instruction
	RawStalls     uint64 // forwarding off: any in-flight producer
	ExBusyStalls  uint64 // multi-cycle EX occupancy (mul / next latency)
	FetchStalls   uint64 // two-word instruction fetch penalty
	BranchFlushes uint64 // taken-branch redirects
	FlushCycles   uint64 // wrong-path slots squashed by redirects
}

// TotalStalls sums every cycle the pipeline lost to hazards: data stalls,
// multi-cycle EX occupancy, fetch penalties, and squashed wrong-path slots.
func (s Stats) TotalStalls() uint64 {
	return s.LoadUseStalls + s.RawStalls + s.ExBusyStalls + s.FetchStalls + s.FlushCycles
}

// CPI returns cycles per retired instruction.
func (s Stats) CPI() float64 {
	if s.Insts == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Insts)
}

// ErrNoHalt is returned when the cycle budget expires before sys-halt.
var ErrNoHalt = errors.New("pipeline: cycle budget exhausted without halt")

// slot is one pipeline latch entry.
type slot struct {
	valid bool
	pc    uint16
	inst  isa.Inst
	// remaining is the EX occupancy left (set on EX entry).
	remaining int
	// fetchDelay models the extra IF cycle(s) of a multi-word fetch.
	fetchDelay int
	// decodeErr defers illegal-instruction faults until the slot reaches
	// EX; wrong-path garbage gets squashed instead of faulting.
	decodeErr error
}

// Pipeline is one pipelined Tangled/Qat machine instance.
type Pipeline struct {
	cfg    Config
	oracle *cpu.Machine

	// Latches in stage order: [IF, ID, EX, MEM, WB] (5-stage) or
	// [IF, ID, EXM, WB] (4-stage). Index 0 is the fetch buffer.
	lat []slot

	fetchPC   uint16
	stopFetch bool // halt observed; drain

	tracer Tracer

	// Observability attachments (see metrics.go); nil when disabled.
	met           *Metrics
	stageLabelIdx []int
	ring          obs.TraceSink

	Stats Stats
}

// New builds a pipeline; see Config.
func New(cfg Config) (*Pipeline, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var m *cpu.Machine
	if cfg.ConstantRegs {
		m = cpu.NewWithConstants(cfg.Ways)
	} else {
		m = cpu.New(cfg.Ways)
	}
	return &Pipeline{cfg: cfg, oracle: m, lat: make([]slot, cfg.Stages)}, nil
}

// Machine exposes the architectural state (registers, memory, Qat).
func (p *Pipeline) Machine() *cpu.Machine { return p.oracle }

// SetOutput directs sys service output.
func (p *Pipeline) SetOutput(w io.Writer) { p.oracle.Out = w }

// Config returns the pipeline's configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Load installs a program image and resets the pipeline.
func (p *Pipeline) Load(prog *asm.Program) error {
	if err := p.oracle.Load(prog); err != nil {
		return err
	}
	for i := range p.lat {
		p.lat[i] = slot{}
	}
	p.fetchPC = 0
	p.stopFetch = false
	p.Stats = Stats{}
	return nil
}

// Stage indices within p.lat.
func (p *Pipeline) ifIdx() int { return 0 }
func (p *Pipeline) idIdx() int { return 1 }
func (p *Pipeline) exIdx() int { return 2 }
func (p *Pipeline) wbIdx() int { return p.cfg.Stages - 1 }

// exLatency returns the EX-stage occupancy for inst under the config.
func (p *Pipeline) exLatency(inst isa.Inst) int {
	switch inst.Op {
	case isa.OpMul:
		return p.cfg.MulLatency
	case isa.OpQNext, isa.OpQPop:
		return p.cfg.QatNextLatency
	default:
		return 1
	}
}

// hazardStall inspects start-of-cycle state and decides whether the
// instruction in ID must hold. loadUse distinguishes the forwarding-enabled
// load-use case from the forwarding-disabled general RAW case.
func (p *Pipeline) hazardStall() (stall, loadUse bool) {
	id := p.lat[p.idIdx()]
	if !id.valid || id.decodeErr != nil {
		return false, false
	}
	reads, _ := isa.TangledRegs(id.inst)
	if reads == 0 {
		return false, false
	}
	// Producers between EX and the stage before WB cannot yet be read from
	// the register file; WB occupants can (split-phase write/read).
	for st := p.exIdx(); st < p.wbIdx(); st++ {
		prod := p.lat[st]
		if !prod.valid || prod.decodeErr != nil {
			continue
		}
		if _, writes := isa.TangledRegs(prod.inst); writes&reads == 0 {
			continue
		}
		if !p.cfg.Forwarding {
			return true, false
		}
		// With forwarding, the only un-bypassable case is a load sitting
		// in EX of a 5-stage pipeline: its data arrives at the end of MEM,
		// one cycle too late for a back-to-back consumer.
		if prod.inst.Op == isa.OpLoad && st == p.exIdx() && p.cfg.Stages == 5 {
			return true, true
		}
	}
	return false, false
}

// Cycle advances the machine by one clock. It returns (done, error); done
// becomes true once the pipeline has fully drained after a halt.
func (p *Pipeline) Cycle() (bool, error) {
	if p.met == nil && p.ring == nil {
		return p.cycle()
	}
	// Capture the start-of-cycle view (the latch state a waveform viewer
	// would show), run the clock, then account what the cycle did.
	pre := p.Stats
	occupied := make([]bool, len(p.lat))
	for i := range p.lat {
		occupied[i] = p.lat[i].valid
	}
	var stages []string
	pc := p.fetchPC
	if ex := p.lat[p.exIdx()]; ex.valid {
		pc = ex.pc
	}
	if p.ring != nil {
		stages = p.Occupancy()
	}
	done, err := p.cycle()
	p.observe(pre, occupied, stages, pc, done)
	return done, err
}

// cycle is the uninstrumented clock: the hot path when no metrics or trace
// ring are attached.
func (p *Pipeline) cycle() (bool, error) {
	p.Stats.Cycles++
	if p.tracer != nil {
		p.tracer(p.Stats.Cycles, p.Occupancy())
	}
	ifi, idi, exi, wbi := p.ifIdx(), p.idIdx(), p.exIdx(), p.wbIdx()

	// Data-hazard decision is made on start-of-cycle state.
	stall, loadUse := p.hazardStall()

	// Retire WB.
	if p.lat[wbi].valid {
		p.Stats.Insts++
		p.lat[wbi] = slot{}
	}

	// Advance post-EX latches toward WB (5-stage MEM->WB; no-op 4-stage).
	for st := wbi; st > exi+1; st-- {
		if !p.lat[st].valid && p.lat[st-1].valid {
			p.lat[st] = p.lat[st-1]
			p.lat[st-1] = slot{}
		}
	}

	// EX: hold multi-cycle occupants, else execute and move on.
	redirect := false
	var redirectPC uint16
	if ex := &p.lat[exi]; ex.valid {
		if ex.remaining > 1 {
			ex.remaining--
			p.Stats.ExBusyStalls++
		} else {
			if ex.decodeErr != nil {
				return p.fault(fmt.Errorf("pipeline: at %#04x: %w", ex.pc, ex.decodeErr))
			}
			if p.oracle.PC != ex.pc {
				return p.fault(fmt.Errorf("pipeline: timing/functional divergence: EX pc %#04x, oracle pc %#04x", ex.pc, p.oracle.PC))
			}
			if err := p.oracle.Step(); err != nil {
				return p.fault(err)
			}
			fallthroughPC := ex.pc + uint16(ex.inst.Words())
			if p.oracle.Halted {
				// Squash everything younger than the halting sys; those
				// slots were fetched down a path that no longer exists.
				p.stopFetch = true
				p.lat[ifi] = slot{}
				p.lat[idi] = slot{}
			} else if p.oracle.PC != fallthroughPC {
				redirect = true
				redirectPC = p.oracle.PC
			}
			p.lat[exi+1] = *ex // the slot after EX was vacated above
			p.lat[exi] = slot{}
		}
	}

	switch {
	case redirect:
		// Squash wrong-path IF and ID and restart fetch at the target. The
		// fetch below fills IF this cycle, so the target occupies IF next
		// cycle: a 2-cycle taken-branch penalty, matching EX resolution.
		p.Stats.BranchFlushes++
		for st := ifi; st <= idi; st++ {
			if p.lat[st].valid {
				p.Stats.FlushCycles++
			}
			p.lat[st] = slot{}
		}
		p.fetchPC = redirectPC
	case stall:
		if loadUse {
			p.Stats.LoadUseStalls++
		} else {
			p.Stats.RawStalls++
		}
		// ID and IF hold; EX keeps the bubble created above.
	default:
		// ID -> EX.
		if p.lat[idi].valid && !p.lat[exi].valid {
			p.lat[exi] = p.lat[idi]
			p.lat[exi].remaining = p.exLatency(p.lat[exi].inst)
			p.lat[idi] = slot{}
		}
		// IF -> ID, honoring multi-word fetch occupancy.
		if f := &p.lat[ifi]; f.valid && !p.lat[idi].valid {
			if f.fetchDelay > 0 {
				f.fetchDelay--
				p.Stats.FetchStalls++
			} else {
				p.lat[idi] = *f
				p.lat[ifi] = slot{}
			}
		}
	}

	// Fetch into IF.
	if !p.stopFetch && !p.lat[ifi].valid {
		inst, n, err := p.oracle.Fetch(p.fetchPC)
		s := slot{valid: true, pc: p.fetchPC, inst: inst, decodeErr: err}
		if err != nil {
			n = 1
		}
		if p.cfg.TwoWordFetchPenalty && err == nil && n == 2 {
			s.fetchDelay = 1
		}
		p.lat[ifi] = s
		p.fetchPC += uint16(n)
	}

	return p.drained(), nil
}

// fault ends the run on an EX fault with the oracle's instruction count.
// The instructions past EX have already executed, and an instruction that
// faults past decode counts as executed, just as a functional run counts it.
func (p *Pipeline) fault(err error) (bool, error) {
	p.Stats.Insts = p.oracle.Stats.Insts
	return false, err
}

func (p *Pipeline) drained() bool {
	if !p.stopFetch {
		return false
	}
	for _, s := range p.lat {
		if s.valid {
			return false
		}
	}
	return true
}

// Run clocks the pipeline until the program halts and drains, an error
// occurs, or maxCycles elapse.
func (p *Pipeline) Run(maxCycles uint64) error {
	for i := uint64(0); i < maxCycles; i++ {
		done, err := p.Cycle()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
	return ErrNoHalt
}

// ctxCheckInterval is how many cycles RunContext clocks between cancellation
// polls; see the identical constant in package cpu for the sizing rationale.
const ctxCheckInterval = 256

// RunContext clocks like Run but honors context cancellation, polling ctx
// every ctxCheckInterval cycles. On cancellation the returned error wraps
// ctx.Err().
func (p *Pipeline) RunContext(ctx context.Context, maxCycles uint64) error {
	if ctx == nil || ctx.Done() == nil {
		return p.Run(maxCycles)
	}
	done := ctx.Done()
	for executed := uint64(0); executed < maxCycles; {
		n := maxCycles - executed
		if n > ctxCheckInterval {
			n = ctxCheckInterval
		}
		for i := uint64(0); i < n; i++ {
			finished, err := p.Cycle()
			if err != nil {
				return err
			}
			if finished {
				return nil
			}
		}
		executed += n
		select {
		case <-done:
			return fmt.Errorf("pipeline: run cancelled after %d cycles: %w", p.Stats.Cycles, ctx.Err())
		default:
		}
	}
	return ErrNoHalt
}

// RunProgram assembles src and runs it to completion on a fresh pipeline,
// returning the pipeline for state and stats inspection.
func RunProgram(src string, cfg Config, maxCycles uint64, out io.Writer) (*Pipeline, error) {
	prog, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	p, err := New(cfg)
	if err != nil {
		return nil, err
	}
	p.SetOutput(out)
	if err := p.Load(prog); err != nil {
		return nil, err
	}
	if err := p.Run(maxCycles); err != nil {
		return p, err
	}
	return p, nil
}
