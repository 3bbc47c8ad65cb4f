// experiments regenerates every reproducible table/figure artifact of the
// paper and prints a paper-vs-measured report (the source of
// EXPERIMENTS.md). Each section is tagged with the experiment id from
// DESIGN.md.
//
// Run: go run ./cmd/experiments
package main

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"tangled/internal/aob"
	"tangled/internal/asm"
	"tangled/internal/compile"
	"tangled/internal/core"
	"tangled/internal/cpu"
	"tangled/internal/energy"
	"tangled/internal/gates"
	"tangled/internal/netlist"
	"tangled/internal/pipeline"
	"tangled/internal/qasm"
	"tangled/internal/re"
	"tangled/internal/rex"
)

// cpuMachine builds a functional machine for metered runs.
func cpuMachine(ways int) *cpu.Machine { return cpu.New(ways) }

func main() {
	w := bufio.NewWriter(os.Stdout)
	report(w)
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
}

// report writes every section, in order, to w. Its output is pinned byte
// for byte by experiments_output.txt at the repository root.
func report(w io.Writer) {
	fig1(w)
	tables123(w)
	fig27(w, "F2-F5 gate semantics spot checks")
	fig7(w)
	fig8(w)
	fig9(w)
	fig10(w)
	s31(w)
	multicycle(w)
	s12(w)
	rexScaling(w)
	s5(w)
	s5energy(w)
	x221(w)
}

func header(w io.Writer, id, title string) {
	fmt.Fprintf(w, "\n## %s — %s\n\n", id, title)
}

// F1: the AoB representation examples of Figure 1.
func fig1(w io.Writer) {
	header(w, "F1", "Figure 1: AoB representation")
	lo := aob.HadVector(2, 0)
	hi := aob.HadVector(2, 1)
	fmt.Fprintf(w, "2-way pbit pair: lsb=%s msb=%s (paper: {0,1,0,1},{0,0,1,1})\n", lo, hi)
	vals := make([]uint64, 4)
	for ch := uint64(0); ch < 4; ch++ {
		vals[ch] = lo.Meas(ch) | hi.Meas(ch)<<1
	}
	fmt.Fprintf(w, "encoded values per channel: %v (paper: {0,1,2,3}, each P=1/4)\n", vals)
	lo2, _ := aob.FromString(2, "0010")
	hi2, _ := aob.FromString(2, "0011")
	counts := map[uint64]int{}
	for ch := uint64(0); ch < 4; ch++ {
		counts[lo2.Meas(ch)|hi2.Meas(ch)<<1]++
	}
	fmt.Fprintf(w, "{0,0,1,0},{0,0,1,1} encodes %v (paper: 50%% 0, 0%% 1, 25%% 2, 25%% 3)\n", counts)
}

// T1-T3: ISA conformance — statically verified by the test suite; report
// the coverage counts.
func tables123(w io.Writer) {
	header(w, "T1-T3", "Tables 1-3: instruction sets")
	fmt.Fprintln(w, "Table 1 base ISA:        24 instructions implemented (see internal/cpu tests)")
	fmt.Fprintln(w, "Table 2 macros:          br, jump, jumpf, jumpt, loadi (see internal/asm tests)")
	fmt.Fprintln(w, "Table 3 Qat ISA:         13 instructions + proposed pop (see internal/qat tests)")
	src := "and $1,$2\nand @1,@2,@3\n"
	p, err := asm.Assemble(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "sigil disambiguation:    %q -> %v\n", strings.TrimSpace(src), asm.Disassemble(p.Words))
}

// F2-F5: gate semantics.
func fig27(w io.Writer, title string) {
	header(w, "F2-F5", title)
	a := aob.HadVector(4, 1)
	orig := a.Clone()
	a.Not()
	a.Not()
	fmt.Fprintf(w, "not self-inverse: %v\n", a.Equal(orig))
	b := aob.HadVector(4, 2)
	a.CNot(b)
	a.CNot(b)
	fmt.Fprintf(w, "cnot self-inverse: %v\n", a.Equal(orig))
	c := aob.HadVector(4, 3)
	x, y := a.Clone(), b.Clone()
	popBefore := x.Pop() + y.Pop()
	x.CSwap(y, c)
	fmt.Fprintf(w, "cswap billiard-ball conservancy: %v (pop %d -> %d)\n",
		x.Pop()+y.Pop() == popBefore, popBefore, x.Pop()+y.Pop())
	fmt.Fprintf(w, "meas non-destructive: %v\n", func() bool {
		v := aob.HadVector(8, 3)
		s := v.Clone()
		for i := uint64(0); i < 256; i++ {
			v.Meas(i)
		}
		return v.Equal(s)
	}())
}

// F7: had patterns and implementation alternatives.
func fig7(w io.Writer) {
	header(w, "F7", "Figure 7: had hardware")
	v := aob.HadVector(16, 15)
	fmt.Fprintf(w, "had @a,15: %d zeros then %d ones (paper: 32,768 each): pop=%d, first 1 at %d\n",
		v.Next(0), 65536-int(v.Next(0)), v.Pop(), v.Next(0))
	fmt.Fprintf(w, "had @a,0: channel0=%d channel1=%d (paper: even 0, odd 1)\n", v2(0).Meas(0), v2(0).Meas(1))
	mux := gates.HadMuxCost(16)
	fmt.Fprintf(w, "mux-table implementation: %d gates, %d levels\n", mux.Gates, mux.Levels)
	fmt.Fprintf(w, "constant-register bank:   0 gates, %d bits of storage (Section 5's preferred design)\n",
		gates.HadConstRegBits(16))
}

func v2(k int) *aob.Vector { return aob.HadVector(16, k) }

// F8: next — the worked example and the gate-delay scaling table.
func fig8(w io.Writer) {
	header(w, "F8", "Figure 8: next hardware")
	m, err := qasm.RunFunctional("had @123,4\nlex $8,42\nnext $8,@123\nlex $0,0\nsys\n", 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "paper's worked example (had @123,4; lex $8,42; next $8,@123): $8 = %d (paper: 48)\n", m.Regs[8])
	fmt.Fprintln(w, "\ngate-delay model (levels of logic), wide-OR vs 2-input-OR tree:")
	fmt.Fprintln(w, "  WAYS   wide-OR   2-in-OR")
	for _, ways := range []int{4, 8, 12, 16} {
		fmt.Fprintf(w, "  %4d   %7d   %7d\n", ways, gates.NextCost(ways, gates.WideOR).Levels, gates.NextCost(ways, 2).Levels)
	}
	fmt.Fprintln(w, "shape: O(WAYS) with wide OR; approaches O(WAYS^2) with 2-input ORs (paper Section 3.3)")
	nl, err := netlist.NextCircuit(8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "\nstructural netlist (8-way, the student scale): %d gates, depth %d\n",
		nl.C.NumGates(), nl.C.Depth())
	fmt.Fprintf(w, "analytic model:                                %d gates, depth %d\n",
		gates.NextCost(8, 2).Gates, gates.NextCost(8, 2).Levels)
}

// F9: word-level factoring of 15.
func fig9(w io.Writer) {
	header(w, "F9", "Figure 9: word-level prime factoring of 15")
	mach := core.NewAoB(8)
	a := core.Mk(mach, 4, 15)
	b := core.H(mach, 4, 0x0F)
	c := core.H(mach, 4, 0xF0)
	d := b.Mul(c)
	e := d.Eq(a)
	f := core.FromBits(mach, []*aob.Vector{e}).Mul(b)
	var vals []uint64
	for _, meas := range f.MeasureAll() {
		vals = append(vals, meas.Value)
	}
	fmt.Fprintf(w, "pint_measure(f) prints: %v (paper: 0, 1, 3, 5, 15)\n", vals)
}

// F10: the complete Tangled/Qat program.
func fig10(w io.Writer) {
	header(w, "F10", "Figure 10: Tangled/Qat assembly factoring 15")
	res, err := compile.FactorProgram(15, 8, 4, 4, compile.Options{})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := qasm.Factor(15, 4, 4, compile.Options{}, pipeline.StudentConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "generated Qat instructions: %d (paper's listing: ~80)\n", res.QatInsts)
	fmt.Fprintf(w, "Qat registers touched:      %d (paper: 81, @0..@80)\n", res.RegsUsed)
	fmt.Fprintf(w, "factors measured:           %d and %d (paper: 5 in $0, 3 in $1)\n",
		rep.Factors[0], rep.Factors[1])
	fmt.Fprintf(w, "pipeline execution:         %d cycles, CPI %.3f\n",
		rep.Result.Pipe.Cycles, rep.Result.Pipe.CPI())
}

// S31: pipeline feasibility sweep.
func s31(w io.Writer) {
	header(w, "S31", "Section 3.1: pipelined implementations")
	straight := strings.Repeat("lex $1,5\n", 2000) + "lex $0,0\nsys\n"
	mixed := `
	lex $1,100
	lex $3,-1
	had @1,3
	loop:
	and @2,@1,@1
	xor @3,@2,@1
	copy $2,$1
	next $2,@3
	add $1,$3
	brt $1,loop
	lex $0,0
	sys
	`
	fmt.Fprintln(w, "CPI by organization (paper: every team sustained 1 instr/cycle absent interlocks):")
	fmt.Fprintln(w, "  config                straight-line   mixed-hazard")
	for _, c := range []struct {
		name string
		cfg  pipeline.Config
	}{
		{"4-stage fwd", pipeline.Config{Stages: 4, Ways: 8, Forwarding: true, MulLatency: 1, QatNextLatency: 1}},
		{"5-stage fwd", pipeline.Config{Stages: 5, Ways: 8, Forwarding: true, MulLatency: 1, QatNextLatency: 1}},
		{"5-stage no-fwd", pipeline.Config{Stages: 5, Ways: 8, MulLatency: 1, QatNextLatency: 1}},
		{"5-stage narrow-fetch", pipeline.Config{Stages: 5, Ways: 8, Forwarding: true, TwoWordFetchPenalty: true, MulLatency: 1, QatNextLatency: 1}},
		{"5-stage next-lat-4", pipeline.Config{Stages: 5, Ways: 8, Forwarding: true, MulLatency: 1, QatNextLatency: 4}},
	} {
		s, err := qasm.RunPipelined(straight, c.cfg)
		if err != nil {
			log.Fatal(err)
		}
		m, err := qasm.RunPipelined(mixed, c.cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "  %-21s %12.3f   %12.3f\n", c.name, s.Pipe.CPI(), m.Pipe.CPI())
	}
}

// S12: RE compression.
func s12(w io.Writer) {
	header(w, "S12", "Section 1.2: RE-compressed representation")
	fmt.Fprintln(w, "run-length examples (1-bit chunks): {0,1,0,1} and {0,0,1,1}")
	s := re.MustSpace(2, 1)
	fmt.Fprintf(w, "  %s (paper: (01)^2), %s (paper: 0^2 1^2)\n", s.Had(0), s.Had(1))
	fmt.Fprintln(w, "\ncompression of Hadamard pbits (4096-bit chunks, as the LCPC'20 prototype):")
	fmt.Fprintln(w, "  ways   channels        runs   compression")
	for _, ways := range []int{16, 24, 32, 40} {
		sp := re.MustSpace(ways, 12)
		p := sp.Had(ways - 1)
		fmt.Fprintf(w, "  %4d   %12d   %4d   %10.0fx\n", ways, sp.Channels(), p.NumRuns(), p.CompressionRatio())
	}
	// Note the flat run-length encoding degrades for channel sets near the
	// chunk size (the run count grows toward 2^(ways-chunkWays)); high
	// channel sets — the common case when layering above AoB hardware —
	// stay maximally compressed.
	sp := re.MustSpace(40, 12)
	x := sp.Had(39).Xor(sp.Had(30)).And(sp.Had(35).Not())
	fmt.Fprintf(w, "\n40-way gate ops stay symbolic: result has %d runs, pop=%d of %d channels\n",
		x.NumRuns(), x.Pop(), sp.Channels())
}

// S5: ISA simplification ablations.
func s5(w io.Writer) {
	header(w, "S5", "Section 5: design-simplification ablations")
	fmt.Fprintln(w, "factoring-15 program under each variant:")
	fmt.Fprintln(w, "  variant                        qat-insts   regs   cycles")
	for _, v := range []struct {
		name string
		opts compile.Options
	}{
		{"paper-faithful", compile.Options{}},
		{"register reuse", compile.Options{Reuse: true}},
		{"constant-register bank", compile.Options{ConstantRegs: true}},
		{"reversible gates only", compile.Options{Reversible: true}},
		{"reuse+constants", compile.Options{Reuse: true, ConstantRegs: true}},
	} {
		rep, err := qasm.Factor(15, 4, 4, v.opts, pipeline.StudentConfig())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "  %-30s %9d   %4d   %6d\n", v.name, rep.QatInsts, rep.RegsUsed, rep.Result.Pipe.Cycles)
	}
	fmt.Fprintln(w, "\nregister-file port demands (Section 5's hardware argument):")
	for _, cls := range []string{"and", "cnot", "ccnot", "swap", "cswap", "meas"} {
		pc, err := gates.PortsFor(cls)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "  %-6s %d read, %d write\n", cls, pc.ReadPorts, pc.WritePorts)
	}
}

// multicycle: the course-project progression, multi-cycle -> pipelined.
func multicycle(w io.Writer) {
	header(w, "SMC", "Section 3: multi-cycle vs pipelined implementation")
	src := strings.Repeat("add $1,$2\nxor $3,$4\nand @1,@2,@3\nlex $5,9\n", 400) + "lex $0,0\nsys\n"
	ref, err := qasm.RunFunctional(src, 8)
	if err != nil {
		log.Fatal(err)
	}
	// Recompute multi-cycle count via a fresh run (RunFunctional drops it).
	prog, err := asm.Assemble(src)
	if err != nil {
		log.Fatal(err)
	}
	fm := cpuMachine(8)
	if err := fm.Load(prog); err != nil {
		log.Fatal(err)
	}
	if err := fm.Run(10_000_000); err != nil {
		log.Fatal(err)
	}
	p, err := qasm.RunPipelined(src, pipeline.Config{Stages: 5, Ways: 8, Forwarding: true, MulLatency: 1, QatNextLatency: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "multi-cycle machine: %d cycles (%0.2f states/inst)\n",
		fm.Stats.MultiCycles, float64(fm.Stats.MultiCycles)/float64(fm.Stats.Insts))
	fmt.Fprintf(w, "pipelined machine:   %d cycles (CPI %.3f)\n", p.Pipe.Cycles, p.Pipe.CPI())
	fmt.Fprintf(w, "speedup: %.2fx (the gain the second class project delivered)\n",
		float64(fm.Stats.MultiCycles)/float64(p.Pipe.Cycles))
	_ = ref
}

// rexScaling: the nested (tree-compressed) RE representation.
func rexScaling(w io.Writer) {
	header(w, "SREX", "Conclusions: scaling regular patterns of AoB blocks (rex)")
	fmt.Fprintln(w, "hash-consed chunk trees keep EVERY Hadamard pattern at O(ways) nodes,")
	fmt.Fprintln(w, "including the flat-RLE worst case near the chunk size:")
	fmt.Fprintln(w, "  ways   k      flat-RLE runs   rex nodes")
	for _, c := range []struct{ ways, k int }{{24, 12}, {32, 12}, {40, 13}, {60, 12}} {
		flatRuns := "2^" + fmt.Sprint(c.ways-c.k)
		sx := rex.MustSpace(c.ways, 12)
		fmt.Fprintf(w, "  %4d   %2d   %13s   %9d\n", c.ways, c.k, flatRuns, sx.Had(c.k).NumNodes())
	}
	s := rex.MustSpace(60, 12)
	x := s.Had(59).And(s.Had(13))
	fmt.Fprintf(w, "\ncross-scale combine at 60 ways (2^60 channels): %d nodes, pop %d\n",
		x.NumNodes(), x.Pop())
	fmt.Fprintf(w, "next(0) = %d (= 2^59 + 2^13, found by O(height) descent)\n", x.Next(0))
}

// s5energy: the adiabatic/power question from the conclusions.
func s5energy(w io.Writer) {
	header(w, "SE", "Section 5 / conclusions: switching-energy ablation")
	type row struct {
		name string
		opts compile.Options
	}
	fmt.Fprintln(w, "factoring-15 program, energy proxies (see internal/energy):")
	fmt.Fprintln(w, "  gate set       switched-bits   erased-bits   recoverable")
	for _, r := range []row{
		{"irreversible", compile.Options{}},
		{"reversible", compile.Options{Reversible: true}},
	} {
		res, err := compile.FactorProgram(15, 8, 4, 4, r.opts)
		if err != nil {
			log.Fatal(err)
		}
		prog, err := asm.Assemble(res.Asm)
		if err != nil {
			log.Fatal(err)
		}
		m := cpuMachine(8)
		meter := energy.NewMeter()
		m.Qat.Meter = meter
		if err := m.Load(prog); err != nil {
			log.Fatal(err)
		}
		if err := m.Run(10_000_000); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "  %-12s %15d %13d %13d (%.0f%%)\n", r.name,
			meter.SwitchedBits, meter.ErasedBits, meter.AdiabaticRecoverable(),
			100*float64(meter.AdiabaticRecoverable())/float64(meter.SwitchedBits))
	}
	fmt.Fprintln(w, "shape: the reversible gate set switches more bits overall but nearly")
	fmt.Fprintln(w, "all of it is adiabatically recoverable — the paper's power argument.")
}

// X221: the original factoring problem at full hardware scale.
func x221(w io.Writer) {
	header(w, "X221", "Section 4.1: factoring 221 (the problem the paper scaled down)")
	rep, err := qasm.Factor(221, 8, 8, compile.Options{Reuse: true}, pipeline.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "221 = %d x %d on 16-way Qat (65,536-bit AoB registers)\n",
		rep.Factors[0], rep.Factors[1])
	fmt.Fprintf(w, "%d Qat instructions, %d registers (reuse required; greedy allocation exhausts 256)\n",
		rep.QatInsts, rep.RegsUsed)
	fmt.Fprintf(w, "pipeline: %d cycles, CPI %.3f\n", rep.Result.Pipe.Cycles, rep.Result.Pipe.CPI())
}
