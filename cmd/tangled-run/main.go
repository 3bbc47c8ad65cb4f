// tangled-run executes a Tangled/Qat program on the functional simulator or
// on the cycle-accurate pipelined model.
//
// Usage:
//
//	tangled-run [flags] prog.asm      (assembly source, by .asm suffix)
//	tangled-run [flags] image.hex     (hex word image otherwise)
//
// Flags select the machine organization; -stats prints retired-instruction
// and cycle accounting after the run, -regs dumps the final register file.
//
// Observability is off by default and free when off (nil metric handles on
// the hot path). With -metrics FILE the run's counters — per-opcode retire
// counts, Qat op and AoB word-operation totals, energy-model gauges, and in
// pipeline mode per-stage occupancy and the stall/flush breakdown — are
// rendered as Prometheus text exposition format after the run ("-" for
// stdout). With -http ADDR the same registry is served live at /metrics
// alongside expvar (/debug/vars) and pprof (/debug/pprof/). With
// -trace FILE the last cycles of the run are exported as versioned JSONL
// (schema in docs/TRACE.md); -itrace remains the human-readable
// instruction trace on stderr (functional mode).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tangled/internal/asm"
	"tangled/internal/backend"
	"tangled/internal/cpu"
	"tangled/internal/energy"
	"tangled/internal/isa"
	"tangled/internal/obs"
	"tangled/internal/pipeline"
	"tangled/internal/qat"
)

func main() {
	ways := flag.Int("ways", 16, "Qat entanglement degree (1-16)")
	pipe := flag.Bool("pipeline", false, "run on the cycle-accurate pipelined model")
	stages := flag.Int("stages", 5, "pipeline depth (4 or 5)")
	noFwd := flag.Bool("no-forwarding", false, "disable forwarding (pipeline mode)")
	narrow := flag.Bool("narrow-fetch", false, "charge an extra cycle for two-word fetches")
	mulLat := flag.Int("mul-latency", 1, "EX cycles for integer multiply")
	nextLat := flag.Int("next-latency", 1, "EX cycles for Qat next/pop")
	constRegs := flag.Bool("const-regs", false, "Section 5 constant-register Qat variant")
	backendName := flag.String("backend", "", "Qat register file: dense (default), re (run-encoded, functional mode; allows -ways up to 24), or auto (planner picks from the static profile)")
	chunkWays := flag.Int("chunk-ways", 0, "re backend: symbol chunk width (default min(ways,16))")
	spillRuns := flag.Int("spill-runs", 0, "re backend: dense-spill run budget (default 64, negative disables)")
	stats := flag.Bool("stats", false, "print execution statistics")
	regs := flag.Bool("regs", false, "dump final registers")
	itrace := flag.Bool("itrace", false, "trace every executed instruction on stderr (functional mode)")
	pipeTrace := flag.Bool("pipetrace", false, "print the per-cycle stage diagram (pipeline mode)")
	maxSteps := flag.Uint64("max-steps", 100_000_000, "execution budget")
	encName := flag.String("enc", "primary", "binary encoding of the image/program (primary or student)")
	metricsOut := flag.String("metrics", "", "write Prometheus text metrics to FILE after the run (- for stdout)")
	httpAddr := flag.String("http", "", "serve /metrics, /debug/vars and /debug/pprof on ADDR during the run")
	traceOut := flag.String("trace", "", "write the cycle trace as JSONL to FILE")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tangled-run [flags] prog.asm|image.hex")
		os.Exit(2)
	}
	enc, err := encodingByName(*encName)
	if err != nil {
		fatal(err)
	}
	prog, err := loadProgram(flag.Arg(0), enc)
	if err != nil {
		fatal(err)
	}

	var reg *obs.Registry
	if *metricsOut != "" || *httpAddr != "" {
		reg = obs.NewRegistry()
	}
	var ring *obs.TraceRing
	if *traceOut != "" {
		ring = obs.NewTraceRing(0)
	}
	if *httpAddr != "" {
		srv, addr, err := obs.Serve(*httpAddr, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tangled-run: metrics at http://%s/metrics\n", addr)
		defer srv.Close()
	}
	dump := func() {
		if *metricsOut != "" {
			if err := writeMetrics(*metricsOut, reg); err != nil {
				fatal(err)
			}
		}
		if ring != nil {
			if err := writeTrace(*traceOut, ring); err != nil {
				fatal(err)
			}
		}
	}

	if *pipe {
		if *backendName != "" && *backendName != qat.BackendDense {
			fatal(fmt.Errorf("the pipelined model supports only the dense backend (got -backend %s)", *backendName))
		}
		cfg := pipeline.Config{
			Stages:              *stages,
			Ways:                *ways,
			Forwarding:          !*noFwd,
			TwoWordFetchPenalty: *narrow,
			MulLatency:          *mulLat,
			QatNextLatency:      *nextLat,
			ConstantRegs:        *constRegs,
		}
		p, err := pipeline.New(cfg)
		if err != nil {
			fatal(err)
		}
		p.SetOutput(os.Stdout)
		p.Machine().Enc = enc
		if *pipeTrace {
			p.SetTracer(p.WriteTracer(os.Stderr))
		}
		if reg != nil {
			p.SetMetrics(pipeline.NewMetrics(reg))
			p.Machine().AttachMetrics(cpu.NewMetrics(reg))
			meter := energy.NewMeter()
			p.Machine().Qat.Meter = meter
			qat.RegisterMeter(reg, meter)
		}
		p.SetTraceRing(ring)
		if err := p.Load(prog); err != nil {
			fatal(err)
		}
		runErr := p.Run(*maxSteps)
		dump()
		if runErr != nil {
			fatal(runErr)
		}
		if *stats {
			s := p.Stats
			fmt.Fprintf(os.Stderr, "cycles=%d insts=%d CPI=%.3f load-use=%d raw=%d exbusy=%d fetch=%d flushes=%d flush-cycles=%d\n",
				s.Cycles, s.Insts, s.CPI(), s.LoadUseStalls, s.RawStalls,
				s.ExBusyStalls, s.FetchStalls, s.BranchFlushes, s.FlushCycles)
		}
		if *regs {
			dumpRegs(p.Machine())
		}
		return
	}

	qcfg := qat.Config{
		Ways:         *ways,
		ConstantRegs: *constRegs,
		Backend:      *backendName,
		ChunkWays:    *chunkWays,
		SpillRuns:    *spillRuns,
	}
	if qcfg.Backend == backend.Auto {
		if *chunkWays != 0 || *spillRuns != 0 {
			fatal(fmt.Errorf("-chunk-ways/-spill-runs are chosen by the planner under -backend auto"))
		}
		plan, err := backend.PlanAuto(prog, qcfg, nil)
		if err != nil {
			fatal(err)
		}
		qcfg = plan.Config
		// With no memo to probe, a plan without a profile was decided by
		// the width alone.
		why := "(width-forced)"
		if p := plan.Profile; p != nil {
			why = fmt.Sprintf("(degree bound %d, compressibility %.2f)", p.DegreeBound, p.Compressibility)
		}
		fmt.Fprintf(os.Stderr, "tangled-run: auto backend: %s %s\n", qcfg.Backend, why)
	}
	m, err := cpu.NewFromConfig(qcfg)
	if err != nil {
		fatal(err)
	}
	m.Out = os.Stdout
	m.Enc = enc
	if *itrace {
		m.Trace = func(pc uint16, inst isa.Inst) {
			fmt.Fprintf(os.Stderr, "%04x: %s\n", pc, inst)
		}
	}
	if reg != nil {
		m.AttachMetrics(cpu.NewMetrics(reg))
		meter := energy.NewMeter()
		m.Qat.Meter = meter
		qat.RegisterMeter(reg, meter)
	}
	if ring != nil {
		// The functional machine has no pipeline clock; the trace records
		// one event per retired instruction with the instruction ordinal as
		// the cycle column.
		prev := m.Trace
		m.Trace = func(pc uint16, inst isa.Inst) {
			if prev != nil {
				prev(pc, inst)
			}
			// The hook fires before Stats.Insts increments; +1 keeps the
			// ordinal 1-based like the pipeline's cycle column.
			ring.Append(obs.TraceEvent{Cycle: m.Stats.Insts + 1, PC: pc, Inst: inst.String(), Event: "retire"})
		}
	}
	if err := m.Load(prog); err != nil {
		fatal(err)
	}
	runErr := m.Run(*maxSteps)
	dump()
	if runErr != nil {
		fatal(runErr)
	}
	if *stats {
		s := m.Stats
		fmt.Fprintf(os.Stderr, "insts=%d tangled=%d qat=%d branches=%d taken=%d loads=%d stores=%d\n",
			s.Insts, s.TangledInsts, s.QatInsts, s.Branches, s.BranchesTaken,
			s.MemReads, s.MemWrites)
	}
	if *regs {
		dumpRegs(m)
	}
}

func encodingByName(name string) (isa.Encoding, error) {
	switch name {
	case "primary":
		return isa.Primary, nil
	case "student":
		return isa.Student, nil
	default:
		return nil, fmt.Errorf("unknown encoding %q (primary or student)", name)
	}
}

func loadProgram(path string, enc isa.Encoding) (*asm.Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".asm") || strings.HasSuffix(path, ".s") {
		return asm.AssembleWith(string(data), enc)
	}
	words, err := asm.ReadHex(strings.NewReader(string(data)))
	if err != nil {
		return nil, err
	}
	return &asm.Program{Words: words}, nil
}

// writeMetrics renders reg as Prometheus text to path ("-" for stdout).
func writeMetrics(path string, reg *obs.Registry) error {
	if path == "-" {
		reg.WritePrometheus(os.Stdout)
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	reg.WritePrometheus(f)
	return f.Close()
}

// writeTrace exports the trace ring as versioned JSONL to path.
func writeTrace(path string, ring *obs.TraceRing) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ring.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	if n := ring.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "tangled-run: trace ring dropped %d oldest events (capacity %d)\n", n, obs.DefaultTraceCap)
	}
	return f.Close()
}

func dumpRegs(m *cpu.Machine) {
	for i := 0; i < isa.NumRegs; i++ {
		fmt.Fprintf(os.Stderr, "%-4s %6d (%#04x)\n", isa.RegName(uint8(i)), int16(m.Regs[i]), m.Regs[i])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tangled-run:", err)
	os.Exit(1)
}
