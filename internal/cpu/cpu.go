// Package cpu implements a functional (instruction-at-a-time) model of the
// Tangled processor with its integrated Qat coprocessor — the reference
// semantics that the pipelined model (package pipeline) must match, in the
// same way the students' multi-cycle Verilog design preceded their
// pipelined one.
//
// Architectural state: sixteen 16-bit general registers, a 16-bit PC, a
// 65,536-word unified memory, and the Qat register file. All Qat
// instructions are fetched and decoded by Tangled; only meas/next/pop
// deliver results back into Tangled registers.
package cpu

import (
	"context"
	"errors"
	"fmt"
	"io"

	"tangled/internal/asm"
	"tangled/internal/bf16"
	"tangled/internal/isa"
	"tangled/internal/qat"
)

// MemWords is the size of Tangled's word-addressed memory.
const MemWords = isa.MemWords

// Syscall service codes, taken from $0 when sys executes. The paper leaves
// sys semantics to the implementation; these match the conventions used by
// this repository's examples.
const (
	SysHalt     = 0 // stop execution
	SysPutInt   = 1 // print $1 as a signed decimal integer and newline
	SysPutChar  = 2 // print the low byte of $1
	SysPutFloat = 3 // print $1 interpreted as bfloat16
)

// ErrHalted is returned by Step once the machine has halted.
var ErrHalted = errors.New("cpu: machine halted")

// ErrNoHalt is returned by Run when the step budget is exhausted.
var ErrNoHalt = errors.New("cpu: step budget exhausted without halt")

// Stats accumulates execution counters.
type Stats struct {
	Insts         uint64 // instructions executed
	TangledInsts  uint64
	QatInsts      uint64
	BranchesTaken uint64
	Branches      uint64
	MemReads      uint64
	MemWrites     uint64
	// MultiCycles is the cycle count a multi-cycle (non-pipelined)
	// implementation would spend on this execution; see MultiCyclesFor.
	MultiCycles uint64
}

// Machine is one Tangled/Qat system.
type Machine struct {
	Regs [isa.NumRegs]uint16
	PC   uint16
	Mem  []uint16
	Qat  *qat.Coprocessor

	// Enc is the binary instruction codec; nil means isa.Primary. The
	// paper's students each picked their own encoding, so the machine is
	// layout-agnostic.
	Enc isa.Encoding

	// RecipLUT selects the course hardware's table-lookup reciprocal
	// datapath (within 1 ulp) instead of the correctly rounded divider.
	RecipLUT bool

	Halted bool
	Stats  Stats

	// Out receives sys service output; nil discards it.
	Out io.Writer

	// Trace, when non-nil, observes every executed instruction.
	Trace func(pc uint16, inst isa.Inst)

	// Metrics, when non-nil, feeds the performance-counter set (see
	// metrics.go); attach with AttachMetrics so the coprocessor's set is
	// wired in the same motion.
	Metrics *Metrics
}

// New builds a machine whose Qat coprocessor has the given entanglement
// degree (16 for the paper's design, 8 for the student versions).
func New(ways int) *Machine {
	return &Machine{Mem: make([]uint16, MemWords), Qat: qat.New(ways)}
}

// NewWithConstants builds a machine whose Qat uses the Section 5
// constant-register convention instead of zero/one/had instructions.
func NewWithConstants(ways int) *Machine {
	return &Machine{Mem: make([]uint16, MemWords), Qat: qat.NewWithConstants(ways)}
}

// NewFromConfig builds a machine whose Qat coprocessor is selected by cfg —
// the constructor that reaches the RE compressed backend (and, through it,
// entanglement beyond the dense 16-way limit).
func NewFromConfig(cfg qat.Config) (*Machine, error) {
	q, err := qat.NewFromConfig(cfg)
	if err != nil {
		return nil, err
	}
	return &Machine{Mem: make([]uint16, MemWords), Qat: q}, nil
}

// Load installs an assembled program image at address 0 and resets the
// whole machine: PC, registers, memory, statistics, and the Qat register
// file (its reserved constant bank, if any, is preserved; only the Qat
// registers written since the last reset need clearing, see
// qat.Coprocessor.Reset). A machine can therefore be reused across runs
// deterministically — and without reallocating any of its state, which is
// what makes pooled reuse (package farm) allocation-free at steady state.
// Host attachments (Out, Trace) are left alone so they can be configured
// once before repeated loads.
func (m *Machine) Load(p *asm.Program) error {
	if len(p.Words) > len(m.Mem) {
		return fmt.Errorf("cpu: program of %d words exceeds memory", len(p.Words))
	}
	m.clearArch()
	copy(m.Mem, p.Words)
	return nil
}

// clearArch zeroes all architectural state in place.
func (m *Machine) clearArch() {
	for i := range m.Mem {
		m.Mem[i] = 0
	}
	m.Regs = [isa.NumRegs]uint16{}
	m.PC = 0
	m.Halted = false
	m.Stats = Stats{}
	m.Qat.Reset()
}

// Fetch decodes the instruction at pc without executing it.
func (m *Machine) Fetch(pc uint16) (isa.Inst, int, error) {
	w0 := m.Mem[pc]
	w1 := m.Mem[uint16(pc+1)] // wraps at the top of memory
	if m.Enc != nil {
		return m.Enc.Decode(w0, w1)
	}
	return isa.Decode(w0, w1)
}

// Step executes one instruction. It returns ErrHalted if the machine was
// already halted, or a decode/execution error (leaving PC at the faulting
// instruction).
func (m *Machine) Step() error {
	if m.Halted {
		return ErrHalted
	}
	inst, n, err := m.Fetch(m.PC)
	if err != nil {
		return fmt.Errorf("cpu: at %#04x: %w", m.PC, err)
	}
	if m.Trace != nil {
		m.Trace(m.PC, inst)
	}
	pc := m.PC
	m.PC += uint16(n)
	m.Stats.Insts++
	m.Stats.MultiCycles += MultiCyclesFor(inst)
	m.Metrics.retire(inst)
	if inst.Op.IsQat() {
		m.Stats.QatInsts++
		out, writes, err := m.Qat.Exec(inst, m.Regs[inst.RD])
		if err != nil {
			m.PC = pc
			return err
		}
		if writes {
			m.Regs[inst.RD] = out
		}
		return nil
	}
	m.Stats.TangledInsts++
	return m.execTangled(inst)
}

func (m *Machine) execTangled(inst isa.Inst) error {
	r := &m.Regs
	d, s := inst.RD, inst.RS
	switch inst.Op {
	case isa.OpAdd:
		r[d] += r[s]
	case isa.OpAddf:
		r[d] = uint16(bf16.Add(bf16.Float(r[d]), bf16.Float(r[s])))
	case isa.OpAnd:
		r[d] &= r[s]
	case isa.OpBrf:
		m.Stats.Branches++
		if r[d] == 0 {
			m.Stats.BranchesTaken++
			m.PC += uint16(int16(inst.Imm))
		}
	case isa.OpBrt:
		m.Stats.Branches++
		if r[d] != 0 {
			m.Stats.BranchesTaken++
			m.PC += uint16(int16(inst.Imm))
		}
	case isa.OpCopy:
		r[d] = r[s]
	case isa.OpFloat:
		r[d] = uint16(bf16.FromInt(int16(r[d])))
	case isa.OpInt:
		r[d] = uint16(bf16.ToInt(bf16.Float(r[d])))
	case isa.OpJumpr:
		m.PC = r[d]
	case isa.OpLex:
		r[d] = uint16(int16(inst.Imm))
	case isa.OpLhi:
		r[d] = r[d]&0x00FF | uint16(uint8(inst.Imm))<<8
	case isa.OpLoad:
		m.Stats.MemReads++
		r[d] = m.Mem[r[s]]
	case isa.OpMul:
		r[d] = uint16(int16(r[d]) * int16(r[s]))
	case isa.OpMulf:
		r[d] = uint16(bf16.Mul(bf16.Float(r[d]), bf16.Float(r[s])))
	case isa.OpNeg:
		r[d] = uint16(-int16(r[d]))
	case isa.OpNegf:
		r[d] = uint16(bf16.Float(r[d]).Neg())
	case isa.OpNot:
		r[d] = ^r[d]
	case isa.OpOr:
		r[d] |= r[s]
	case isa.OpRecip:
		if m.RecipLUT {
			r[d] = uint16(bf16.RecipLUT(bf16.Float(r[d])))
		} else {
			r[d] = uint16(bf16.Recip(bf16.Float(r[d])))
		}
	case isa.OpShift:
		r[d] = shift(r[d], int16(r[s]))
	case isa.OpSlt:
		if int16(r[d]) < int16(r[s]) {
			r[d] = 1
		} else {
			r[d] = 0
		}
	case isa.OpStore:
		m.Stats.MemWrites++
		m.Mem[r[s]] = r[d]
	case isa.OpSys:
		return m.syscall()
	case isa.OpXor:
		r[d] ^= r[s]
	default:
		return fmt.Errorf("cpu: unimplemented op %s", inst.Op.Name())
	}
	return nil
}

// shift implements the Tangled shift instruction: left for non-negative
// counts, arithmetic right for negative counts (the sign-aware reading of
// the paper's "shift left/right ... $d=$d<<$s"). Counts of magnitude >= 16
// produce the fully-shifted result (0, or the sign fill).
func shift(v uint16, by int16) uint16 {
	if by >= 0 {
		if by >= 16 {
			return 0
		}
		return v << uint(by)
	}
	n := uint(-by)
	if n >= 16 {
		n = 15
	}
	return uint16(int16(v) >> n)
}

func (m *Machine) syscall() error {
	switch m.Regs[0] {
	case SysHalt:
		m.Halted = true
	case SysPutInt:
		m.print("%d\n", int16(m.Regs[1]))
	case SysPutChar:
		m.print("%c", rune(m.Regs[1]&0xFF))
	case SysPutFloat:
		m.print("%g\n", bf16.Float(m.Regs[1]).Float64())
	default:
		return fmt.Errorf("cpu: unknown sys service %d", m.Regs[0])
	}
	return nil
}

func (m *Machine) print(format string, args ...interface{}) {
	if m.Out != nil {
		fmt.Fprintf(m.Out, format, args...)
	}
}

// Run executes until halt, error, or maxSteps instructions.
func (m *Machine) Run(maxSteps uint64) error {
	for i := uint64(0); i < maxSteps; i++ {
		if err := m.Step(); err != nil {
			return err
		}
		if m.Halted {
			return nil
		}
	}
	return ErrNoHalt
}

// ctxCheckInterval is how many instructions RunContext executes between
// cancellation polls. The budget is set by the slowest instruction, not the
// average: one Qat op on 65,536-bit words costs microseconds, so a 2048-step
// window could hold a canceled job's worker for milliseconds. 256 keeps the
// poll under ~0.1% of even pure-scalar loops while letting DELETE /v1/jobs
// and router-side disconnects reclaim the worker promptly.
const ctxCheckInterval = 256

// RunContext executes like Run but honors context cancellation, polling ctx
// every ctxCheckInterval instructions. On cancellation the returned error
// wraps ctx.Err(), so errors.Is(err, context.DeadlineExceeded) and friends
// work. The machine is left in a consistent (resumable or reloadable) state.
func (m *Machine) RunContext(ctx context.Context, maxSteps uint64) error {
	if ctx == nil || ctx.Done() == nil {
		return m.Run(maxSteps)
	}
	done := ctx.Done()
	for executed := uint64(0); executed < maxSteps; {
		n := maxSteps - executed
		if n > ctxCheckInterval {
			n = ctxCheckInterval
		}
		for i := uint64(0); i < n; i++ {
			if err := m.Step(); err != nil {
				return err
			}
			if m.Halted {
				return nil
			}
		}
		executed += n
		select {
		case <-done:
			return fmt.Errorf("cpu: run cancelled after %d instructions: %w", m.Stats.Insts, ctx.Err())
		default:
		}
	}
	return ErrNoHalt
}

// RunProgram is a convenience: assemble src, load, and run.
func RunProgram(src string, ways int, maxSteps uint64, out io.Writer) (*Machine, error) {
	p, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	m := New(ways)
	m.Out = out
	if err := m.Load(p); err != nil {
		return nil, err
	}
	if err := m.Run(maxSteps); err != nil {
		return m, err
	}
	return m, nil
}
