package pipeline

import (
	"math/rand"
	"strings"
	"testing"

	"tangled/internal/asm"
	"tangled/internal/cpu"
	"tangled/internal/isa"
)

const halt = "\nlex $0,0\nsys\n"

func mustRun(t *testing.T, src string, cfg Config) *Pipeline {
	t.Helper()
	p, err := RunProgram(src, cfg, 10_000_000, nil)
	if err != nil {
		t.Fatalf("run: %v\nstats: %+v", err, p)
	}
	return p
}

// TestS31PipelineIPCStraightLine: with no hazards the pipelines sustain one
// instruction per cycle — the paper's headline feasibility claim ("All
// implementations were capable of sustaining completion of one instruction
// every clock cycle, provided there were no pipeline interlocks").
func TestS31PipelineIPCStraightLine(t *testing.T) {
	var b strings.Builder
	const n = 2000
	for i := 0; i < n; i++ {
		b.WriteString("lex $1,5\n") // no dependences between lex's
	}
	b.WriteString(halt)
	for _, stages := range []int{4, 5} {
		cfg := DefaultConfig()
		cfg.Stages = stages
		cfg.Ways = 4
		p := mustRun(t, b.String(), cfg)
		if p.Stats.Insts != n+2 {
			t.Fatalf("%d-stage: retired %d, want %d", stages, p.Stats.Insts, n+2)
		}
		// Cycles = insts + pipeline fill; CPI must approach 1.
		fill := uint64(stages + 1)
		if p.Stats.Cycles > p.Stats.Insts+fill {
			t.Errorf("%d-stage: %d cycles for %d insts (expected <= insts+%d)",
				stages, p.Stats.Cycles, p.Stats.Insts, fill)
		}
		if cpi := p.Stats.CPI(); cpi > 1.01 {
			t.Errorf("%d-stage: CPI %.4f, want ~1", stages, cpi)
		}
	}
}

// TestS31ForwardingCoversALUChains: back-to-back dependent ALU ops need no
// stalls when forwarding is on.
func TestS31ForwardingCoversALUChains(t *testing.T) {
	var b strings.Builder
	b.WriteString("lex $1,1\n")
	for i := 0; i < 500; i++ {
		b.WriteString("add $1,$1\nxor $2,$1\nand $3,$2\n")
	}
	b.WriteString(halt)
	for _, stages := range []int{4, 5} {
		cfg := DefaultConfig()
		cfg.Stages = stages
		cfg.Ways = 4
		p := mustRun(t, b.String(), cfg)
		if p.Stats.LoadUseStalls != 0 || p.Stats.RawStalls != 0 {
			t.Errorf("%d-stage: unexpected stalls %+v", stages, p.Stats)
		}
		if cpi := p.Stats.CPI(); cpi > 1.01 {
			t.Errorf("%d-stage: CPI %.4f with full forwarding", stages, cpi)
		}
	}
}

// TestLoadUseStall: the canonical 5-stage load-use hazard costs exactly one
// bubble; the 4-stage EXM organization hides it entirely.
func TestLoadUseStall(t *testing.T) {
	src := `
	lex $2,100
	loadi $1,0x1234
	store $1,$2
	load $3,$2       ; load...
	add $3,$3        ; ...immediately used
	` + halt
	cfg5 := DefaultConfig()
	cfg5.Ways = 4
	p5 := mustRun(t, src, cfg5)
	if p5.Stats.LoadUseStalls != 1 {
		t.Errorf("5-stage load-use stalls = %d, want 1", p5.Stats.LoadUseStalls)
	}
	cfg4 := cfg5
	cfg4.Stages = 4
	p4 := mustRun(t, src, cfg4)
	if p4.Stats.LoadUseStalls != 0 {
		t.Errorf("4-stage load-use stalls = %d, want 0", p4.Stats.LoadUseStalls)
	}
	if int16(p5.Machine().Regs[3]) != 0x2468 || int16(p4.Machine().Regs[3]) != 0x2468 {
		t.Error("load-use value wrong")
	}
}

func TestLoadWithGapNoStall(t *testing.T) {
	src := `
	lex $2,100
	loadi $1,0x1234
	store $1,$2
	load $3,$2
	lex $4,7         ; independent gap instruction
	add $3,$3
	` + halt
	cfg := DefaultConfig()
	cfg.Ways = 4
	p := mustRun(t, src, cfg)
	if p.Stats.LoadUseStalls != 0 {
		t.Errorf("gapped load stalled: %+v", p.Stats)
	}
}

// TestS31NoForwardingStalls: disabling forwarding makes dependent pairs pay
// the classic 2-cycle (5-stage) / 1-cycle (4-stage) penalty.
func TestS31NoForwardingStalls(t *testing.T) {
	src := "lex $1,1\nadd $1,$1\n" + halt
	for _, c := range []struct {
		stages int
		want   uint64
	}{{5, 2}, {4, 1}} {
		cfg := DefaultConfig()
		cfg.Stages = c.stages
		cfg.Ways = 4
		cfg.Forwarding = false
		p := mustRun(t, src, cfg)
		// add depends on lex; the sys epilogue depends on the final lex $0.
		// Count only the first dependence by construction: lex $0,0 then
		// sys is also a RAW pair, so expect exactly 2 dependent pairs.
		if p.Stats.RawStalls != 2*c.want {
			t.Errorf("%d-stage no-forwarding: RawStalls=%d, want %d",
				c.stages, p.Stats.RawStalls, 2*c.want)
		}
	}
}

// TestBranchPenalty: a taken branch squashes the two younger instructions
// (EX resolution, predict not-taken); untaken branches are free.
func TestBranchPenalty(t *testing.T) {
	taken := `
	lex $1,1
	brt $1,skip
	lex $2,99
	lex $2,98
	skip: lex $3,5
	` + halt
	cfg := DefaultConfig()
	cfg.Ways = 4
	p := mustRun(t, taken, cfg)
	if p.Stats.BranchFlushes != 1 {
		t.Errorf("flushes = %d, want 1", p.Stats.BranchFlushes)
	}
	if p.Stats.FlushCycles != 2 {
		t.Errorf("flush cycles = %d, want 2", p.Stats.FlushCycles)
	}
	if p.Machine().Regs[2] != 0 || p.Machine().Regs[3] != 5 {
		t.Error("wrong-path instruction retired")
	}

	untaken := `
	lex $1,0
	brt $1,skip
	lex $2,42
	skip: lex $3,5
	` + halt
	p2 := mustRun(t, untaken, cfg)
	if p2.Stats.BranchFlushes != 0 {
		t.Errorf("untaken branch flushed: %+v", p2.Stats)
	}
	if p2.Machine().Regs[2] != 42 {
		t.Error("fall-through path lost")
	}
}

// TestBranchPenaltyCycleCount measures the 2-cycle cost directly by
// comparing a taken-branch loop against its straight-line equivalent.
func TestBranchPenaltyCycleCount(t *testing.T) {
	loop := `
	lex $1,100
	lex $2,-1
	loop: add $1,$2
	brt $1,loop
	` + halt
	cfg := DefaultConfig()
	cfg.Ways = 4
	p := mustRun(t, loop, cfg)
	// 99 taken branches x 2 bubbles each.
	if p.Stats.FlushCycles != 198 {
		t.Errorf("flush cycles = %d, want 198", p.Stats.FlushCycles)
	}
}

// TestTwoWordFetchPenalty: the variable-length Qat instructions cost an
// extra fetch cycle when the fetch path is one word wide.
func TestTwoWordFetchPenalty(t *testing.T) {
	var b strings.Builder
	const n = 500
	for i := 0; i < n; i++ {
		b.WriteString("and @1,@2,@3\n")
	}
	b.WriteString(halt)
	cfg := DefaultConfig()
	cfg.Ways = 4
	fast := mustRun(t, b.String(), cfg)
	cfg.TwoWordFetchPenalty = true
	slow := mustRun(t, b.String(), cfg)
	if fast.Stats.FetchStalls != 0 {
		t.Errorf("wide fetch saw %d fetch stalls", fast.Stats.FetchStalls)
	}
	if slow.Stats.FetchStalls < n {
		t.Errorf("narrow fetch saw %d fetch stalls, want >= %d", slow.Stats.FetchStalls, n)
	}
	if slow.Stats.Cycles <= fast.Stats.Cycles+uint64(n)-10 {
		t.Errorf("narrow fetch cycles %d vs wide %d: penalty missing",
			slow.Stats.Cycles, fast.Stats.Cycles)
	}
}

// TestQatTangledInterlock: meas/next results forward into dependent
// Tangled instructions — "processor pipeline interlocks and forwarding are
// determined in part by coprocessor operations".
func TestQatTangledInterlock(t *testing.T) {
	src := `
	had @5,3
	lex $1,5
	next $1,@5       ; $1 = 8
	add $1,$1        ; consumes the coprocessor result immediately
	copy $2,$1
	meas $3,@5       ; uses $3=0: channel 0 -> 0
	` + halt
	cfg := DefaultConfig()
	cfg.Ways = 8
	p := mustRun(t, src, cfg)
	if p.Machine().Regs[2] != 16 {
		t.Errorf("$2 = %d, want 16", p.Machine().Regs[2])
	}
	if p.Stats.LoadUseStalls != 0 || p.Stats.RawStalls != 0 {
		t.Errorf("coprocessor results must forward: %+v", p.Stats)
	}
}

// TestS31NextLatencyAblation: splitting next across EX cycles (the Figure 8
// OR-tree discussion) costs ExBusy stalls but preserves results.
func TestS31NextLatencyAblation(t *testing.T) {
	var b strings.Builder
	b.WriteString("had @5,3\nlex $1,0\n")
	for i := 0; i < 100; i++ {
		b.WriteString("next $1,@5\nlex $1,0\n")
	}
	b.WriteString(halt)
	cfg := DefaultConfig()
	cfg.Ways = 8
	base := mustRun(t, b.String(), cfg)
	cfg.QatNextLatency = 4
	slow := mustRun(t, b.String(), cfg)
	if slow.Stats.ExBusyStalls != 300 { // 100 nexts x 3 extra cycles
		t.Errorf("ExBusyStalls = %d, want 300", slow.Stats.ExBusyStalls)
	}
	if slow.Stats.Cycles <= base.Stats.Cycles {
		t.Error("latency 4 not slower than latency 1")
	}
	if slow.Machine().Regs[1] != base.Machine().Regs[1] {
		t.Error("latency changed semantics")
	}
}

func TestMulLatencyAblation(t *testing.T) {
	src := "lex $1,3\nlex $2,5\nmul $1,$2\nmul $1,$2\nmul $1,$2" + halt
	cfg := DefaultConfig()
	cfg.Ways = 4
	cfg.MulLatency = 3
	p := mustRun(t, src, cfg)
	if p.Stats.ExBusyStalls != 6 {
		t.Errorf("ExBusyStalls = %d, want 6", p.Stats.ExBusyStalls)
	}
	if int16(p.Machine().Regs[1]) != 375 {
		t.Errorf("$1 = %d, want 375", int16(p.Machine().Regs[1]))
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Stages: 3, Ways: 4, MulLatency: 1, QatNextLatency: 1}); err == nil {
		t.Error("3-stage accepted")
	}
	if _, err := New(Config{Stages: 5, Ways: 4, MulLatency: 0, QatNextLatency: 1}); err == nil {
		t.Error("0 latency accepted")
	}
}

func TestIllegalInstructionAtEXFaults(t *testing.T) {
	prog := &asm.Program{Words: []uint16{0xA000}}
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Load(prog); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(100); err == nil {
		t.Fatal("illegal instruction did not fault")
	}
}

func TestWrongPathGarbageIsSquashed(t *testing.T) {
	// A taken branch jumps over a word that does not decode; the pipeline
	// fetches it speculatively but must squash it without faulting.
	src := `
	lex $1,1
	brt $1,ok
	.word 0xA000     ; illegal on the wrong path
	ok: lex $2,7
	` + halt
	cfg := DefaultConfig()
	cfg.Ways = 4
	p := mustRun(t, src, cfg)
	if p.Machine().Regs[2] != 7 {
		t.Error("did not reach ok")
	}
}

// TestDifferentialVsFunctional cross-validates the pipelined machine
// against the functional simulator on randomized programs across all
// configurations: same retired instruction count, same final register
// file, same memory effects, same Qat state.
func TestDifferentialVsFunctional(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	cfgs := []Config{
		{Stages: 5, Ways: 6, Forwarding: true, MulLatency: 1, QatNextLatency: 1},
		{Stages: 4, Ways: 6, Forwarding: true, MulLatency: 1, QatNextLatency: 1},
		{Stages: 5, Ways: 6, Forwarding: false, MulLatency: 1, QatNextLatency: 1},
		{Stages: 4, Ways: 6, Forwarding: false, MulLatency: 3, QatNextLatency: 2},
		{Stages: 5, Ways: 6, Forwarding: true, TwoWordFetchPenalty: true, MulLatency: 2, QatNextLatency: 4},
	}
	for trial := 0; trial < 60; trial++ {
		prog := randomProgram(r, 120)
		ref := cpu.New(6)
		if err := ref.Load(prog); err != nil {
			t.Fatal(err)
		}
		if err := ref.Run(100_000); err != nil {
			t.Fatalf("trial %d: functional run: %v", trial, err)
		}
		cfg := cfgs[trial%len(cfgs)]
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Load(prog); err != nil {
			t.Fatal(err)
		}
		if err := p.Run(1_000_000); err != nil {
			t.Fatalf("trial %d cfg %+v: pipeline run: %v", trial, cfg, err)
		}
		if p.Stats.Insts != ref.Stats.Insts {
			t.Fatalf("trial %d: retired %d, functional executed %d",
				trial, p.Stats.Insts, ref.Stats.Insts)
		}
		if p.Stats.Cycles < p.Stats.Insts {
			t.Fatalf("trial %d: IPC > 1 on a scalar pipeline", trial)
		}
		for i := 0; i < isa.NumRegs; i++ {
			if p.Machine().Regs[i] != ref.Regs[i] {
				t.Fatalf("trial %d: $%d = %#x, functional %#x",
					trial, i, p.Machine().Regs[i], ref.Regs[i])
			}
		}
		for q := 0; q < 16; q++ {
			if !p.Machine().Qat.Reg(uint8(q)).Equal(ref.Qat.Reg(uint8(q))) {
				t.Fatalf("trial %d: @%d differs", trial, q)
			}
		}
		for a := 0x4000; a < 0x4010; a++ {
			if p.Machine().Mem[a] != ref.Mem[a] {
				t.Fatalf("trial %d: mem[%#x] differs", trial, a)
			}
		}
	}
}

// randomProgram generates a halting program exercising the whole ISA. All
// generated control flow is forward, so termination is guaranteed.
func randomProgram(r *rand.Rand, n int) *asm.Program {
	var insts []isa.Inst
	treg := func() uint8 { return uint8(1 + r.Intn(10)) } // avoid $0 (sys selector)
	qreg := func() uint8 { return uint8(r.Intn(16)) }
	emit := func(in isa.Inst) { insts = append(insts, in) }
	for len(insts) < n {
		switch r.Intn(20) {
		case 0:
			emit(isa.Inst{Op: isa.OpLex, RD: treg(), Imm: int8(r.Intn(256) - 128)})
		case 1:
			emit(isa.Inst{Op: isa.OpLhi, RD: treg(), Imm: int8(r.Intn(256) - 128)})
		case 2:
			emit(isa.Inst{Op: isa.OpAdd, RD: treg(), RS: treg()})
		case 3:
			emit(isa.Inst{Op: isa.OpMul, RD: treg(), RS: treg()})
		case 4:
			emit(isa.Inst{Op: isa.OpSlt, RD: treg(), RS: treg()})
		case 5:
			emit(isa.Inst{Op: isa.OpXor, RD: treg(), RS: treg()})
		case 6:
			emit(isa.Inst{Op: isa.OpNot, RD: treg()})
		case 7:
			emit(isa.Inst{Op: isa.OpShift, RD: treg(), RS: treg()})
		case 8:
			// Safe load/store: force the address into 0x40xx data space.
			a := treg()
			emit(isa.Inst{Op: isa.OpLex, RD: a, Imm: int8(r.Intn(16))})
			emit(isa.Inst{Op: isa.OpLhi, RD: a, Imm: 0x40})
			if r.Intn(2) == 0 {
				emit(isa.Inst{Op: isa.OpStore, RD: treg(), RS: a})
			} else {
				emit(isa.Inst{Op: isa.OpLoad, RD: treg(), RS: a})
			}
		case 9:
			emit(isa.Inst{Op: isa.OpQHad, QA: qreg(), K: uint8(r.Intn(6))})
		case 10:
			emit(isa.Inst{Op: isa.OpQZero, QA: qreg()})
		case 11:
			emit(isa.Inst{Op: isa.OpQOne, QA: qreg()})
		case 12:
			emit(isa.Inst{Op: isa.OpQAnd, QA: qreg(), QB: qreg(), QC: qreg()})
		case 13:
			emit(isa.Inst{Op: isa.OpQXor, QA: qreg(), QB: qreg(), QC: qreg()})
		case 14:
			emit(isa.Inst{Op: isa.OpQCcnot, QA: qreg(), QB: qreg(), QC: qreg()})
		case 15:
			emit(isa.Inst{Op: isa.OpQCswap, QA: qreg(), QB: qreg(), QC: qreg()})
		case 16:
			emit(isa.Inst{Op: isa.OpQMeas, RD: treg(), QA: qreg()})
		case 17:
			emit(isa.Inst{Op: isa.OpQNext, RD: treg(), QA: qreg()})
		case 18:
			emit(isa.Inst{Op: isa.OpQPop, RD: treg(), QA: qreg()})
		case 19:
			// Forward branch over 1-3 single-word instructions.
			k := 1 + r.Intn(3)
			op := isa.OpBrt
			if r.Intn(2) == 0 {
				op = isa.OpBrf
			}
			emit(isa.Inst{Op: op, RD: treg(), Imm: int8(k)})
			for j := 0; j < k; j++ {
				emit(isa.Inst{Op: isa.OpLex, RD: treg(), Imm: int8(r.Intn(100))})
			}
		}
	}
	// Halt epilogue.
	emit(isa.Inst{Op: isa.OpLex, RD: 0, Imm: 0})
	emit(isa.Inst{Op: isa.OpSys})
	var words []uint16
	for _, in := range insts {
		w, err := isa.Append(nil, in)
		if err != nil {
			panic(err)
		}
		words = append(words, w...)
	}
	return &asm.Program{Words: words}
}

// TestFig10StyleProgramOnPipeline runs the paper's measurement tail pattern
// through the pipeline and compares with the functional machine.
func TestFig10StyleProgramOnPipeline(t *testing.T) {
	src := `
	had @0,3
	had @1,5
	and @2,@0,@1
	or @80,@2,@2
	not @80
	lex $1,31
	next $1,@80
	copy $2,$1
	next $2,@80
	` + halt
	cfg := DefaultConfig()
	cfg.Ways = 8
	p := mustRun(t, src, cfg)
	var ref *cpu.Machine
	ref, err := cpu.RunProgram(src, 8, 100000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Machine().Regs[1] != ref.Regs[1] || p.Machine().Regs[2] != ref.Regs[2] {
		t.Error("pipeline disagrees with functional machine")
	}
}

func TestConstantRegsPipeline(t *testing.T) {
	src := `
	xor @100,@0,@4   ; H2 from the constant bank
	lex $1,4
	meas $1,@100
	` + halt
	cfg := DefaultConfig()
	cfg.Ways = 8
	cfg.ConstantRegs = true
	p := mustRun(t, src, cfg)
	if p.Machine().Regs[1] != 1 {
		t.Errorf("meas = %d, want 1", p.Machine().Regs[1])
	}
}

func BenchmarkS31Pipeline5Stage(b *testing.B) {
	benchmarkPipeline(b, 5)
}

func BenchmarkS31Pipeline4Stage(b *testing.B) {
	benchmarkPipeline(b, 4)
}

func benchmarkPipeline(b *testing.B, stages int) {
	src := `
	lex $1,100
	lex $3,-1
	had @1,3
	loop: and @2,@1,@1
	xor @3,@2,@1
	copy $2,$1
	next $2,@3
	add $1,$3
	brt $1,loop
	` + halt
	prog, err := asm.Assemble(src)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Stages = stages
	p, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Load(prog); err != nil {
			b.Fatal(err)
		}
		if err := p.Run(100_000); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(p.Stats.CPI(), "CPI")
}

// TestRetireOrderInvariant: on random programs, instructions leave WB in
// exactly the order the functional machine executed them — no instruction
// is lost, duplicated, or reordered by stalls, flushes, or multi-cycle
// occupancy.
func TestRetireOrderInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 20; trial++ {
		prog := randomProgram(r, 80)
		ref := cpu.New(6)
		if err := ref.Load(prog); err != nil {
			t.Fatal(err)
		}
		var want []uint16
		ref.Trace = func(pc uint16, _ isa.Inst) { want = append(want, pc) }
		if err := ref.Run(1_000_000); err != nil {
			t.Fatal(err)
		}

		cfg := Config{Stages: 5, Ways: 6, Forwarding: true,
			TwoWordFetchPenalty: trial%2 == 0, MulLatency: 1 + trial%3, QatNextLatency: 1 + trial%2}
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got []uint16
		wb := p.wbIdx()
		p.SetTracer(func(cycle uint64, stages []string) {
			if p.lat[wb].valid {
				got = append(got, p.lat[wb].pc)
			}
		})
		if err := p.Load(prog); err != nil {
			t.Fatal(err)
		}
		if err := p.Run(10_000_000); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: retired %d, executed %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: retire %d at pc %#x, functional pc %#x",
					trial, i, got[i], want[i])
			}
		}
	}
}

// TestPipelineStudentEncoding: the pipelined machine is encoding-agnostic —
// a transcoded image under the student codec produces identical
// architectural results and timing.
func TestPipelineStudentEncoding(t *testing.T) {
	src := `
	had @1,3
	lex $1,0
	next $1,@1
	and @2,@1,@1
	lex $2,100
	lex $3,-1
	loop: add $2,$3
	brt $2,loop
	` + halt
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Ways = 8
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Load(prog); err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(1_000_000); err != nil {
		t.Fatal(err)
	}

	words, err := isa.Transcode(prog.Words, isa.Primary, isa.Student)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Machine().Enc = isa.Student
	if err := p.Load(&asm.Program{Words: words}); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if p.Machine().Regs != ref.Machine().Regs {
		t.Fatal("registers differ across encodings")
	}
	if p.Stats.Cycles != ref.Stats.Cycles || p.Stats.Insts != ref.Stats.Insts {
		t.Fatalf("timing differs across encodings: %+v vs %+v", p.Stats, ref.Stats)
	}
}
