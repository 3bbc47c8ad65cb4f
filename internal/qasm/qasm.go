// Package qasm is the toolchain facade: one-call helpers that chain the
// compiler, assembler and the functional or pipelined machines, used by the
// command-line tools, the examples and the top-level benchmark harness.
package qasm

import (
	"bytes"
	"fmt"

	"tangled/internal/asm"
	"tangled/internal/compile"
	"tangled/internal/cpu"
	"tangled/internal/farm"
	"tangled/internal/pipeline"
)

// Result captures one program execution.
type Result struct {
	// Regs is the final Tangled register file.
	Regs [16]uint16
	// Output is everything the program printed through sys.
	Output string
	// Insts is the retired instruction count.
	Insts uint64
	// Pipe holds cycle accounting when run on the pipelined machine.
	Pipe *pipeline.Stats
}

// MaxSteps bounds all helper executions, and is the serving stack's
// ceiling on a request's step budget. It is the farm's default budget.
const MaxSteps = farm.DefaultMaxSteps

// RunFunctional assembles src and executes it on the functional machine.
func RunFunctional(src string, ways int) (*Result, error) {
	var out bytes.Buffer
	m, err := cpu.RunProgram(src, ways, MaxSteps, &out)
	if err != nil {
		return nil, err
	}
	return &Result{Regs: m.Regs, Output: out.String(), Insts: m.Stats.Insts}, nil
}

// RunPipelined assembles src and executes it on a pipelined machine.
func RunPipelined(src string, cfg pipeline.Config) (*Result, error) {
	var out bytes.Buffer
	p, err := pipeline.RunProgram(src, cfg, MaxSteps, &out)
	if err != nil {
		return nil, err
	}
	stats := p.Stats
	return &Result{
		Regs:   p.Machine().Regs,
		Output: out.String(),
		Insts:  stats.Insts,
		Pipe:   &stats,
	}, nil
}

// FactorReport is the outcome of a full factoring toolchain run.
type FactorReport struct {
	N        uint64
	Factors  [2]uint16
	QatInsts int
	RegsUsed int
	Result   *Result
}

// Factor generates, assembles and runs the Figure 10-style factoring
// program for n on the given pipeline configuration, returning the two
// nontrivial factors.
func Factor(n uint64, aBits, bBits int, copts compile.Options, pcfg pipeline.Config) (*FactorReport, error) {
	res, err := compile.FactorProgram(n, pcfg.Ways, aBits, bBits, copts)
	if err != nil {
		return nil, err
	}
	pcfg.ConstantRegs = copts.ConstantRegs
	run, err := RunPipelined(res.Asm, pcfg)
	if err != nil {
		return nil, fmt.Errorf("qasm: factoring program failed: %w", err)
	}
	return factorReport(n, res, run)
}

// factorReport reads the two factors a factoring program leaves in $4 and
// $1 and checks that they multiply back to n. On a mismatch it returns the
// report together with the error.
func factorReport(n uint64, gen *compile.FactorResult, run *Result) (*FactorReport, error) {
	rep := &FactorReport{
		N:        n,
		Factors:  [2]uint16{run.Regs[4], run.Regs[1]},
		QatInsts: gen.QatInsts,
		RegsUsed: gen.RegsUsed,
		Result:   run,
	}
	if p, q := uint64(rep.Factors[0]), uint64(rep.Factors[1]); p*q != n {
		return rep, fmt.Errorf("qasm: measured factors %d x %d != %d", p, q, n)
	}
	return rep, nil
}

// Assemble is a re-export so tools only import this package.
func Assemble(src string) (*asm.Program, error) { return asm.Assemble(src) }
