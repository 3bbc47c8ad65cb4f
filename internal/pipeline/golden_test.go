package pipeline

// Golden-trace regression tests: the per-cycle JSONL trace of two fixed
// workloads on the 4-stage pipeline is pinned under testdata/. Any change to
// hazard detection, stall timing, flush behaviour or trace encoding shows up
// as a field-level diff against the golden file, with the cycle number and
// field named — far more localized than a final-state mismatch. Regenerate
// deliberately with:
//
//	go test ./internal/pipeline -run TestGoldenTrace -update
//
// and review the golden diff like any other code change.

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tangled/internal/asm"
	"tangled/internal/compile"
	"tangled/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden trace files under testdata/")

// goldenConfig is the organization the goldens pin: the paper's 4-stage
// S3-1-style machine with forwarding and single-cycle EX.
func goldenConfig(ways int) Config {
	return Config{Stages: 4, Ways: ways, Forwarding: true, MulLatency: 1, QatNextLatency: 1}
}

// captureTrace runs prog to completion on cfg and returns the full cycle
// trace (the test fails if the ring would have dropped events).
func captureTrace(t *testing.T, prog *asm.Program, cfg Config) []obs.TraceEvent {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewTraceRing(0)
	p.SetTraceSink(ring)
	p.SetOutput(io.Discard)
	if err := p.Load(prog); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if n := ring.Dropped(); n > 0 {
		t.Fatalf("trace ring dropped %d events; golden workloads must fit %d cycles", n, obs.DefaultTraceCap)
	}
	return ring.Events()
}

// checkGolden compares got against testdata/<name>.trace.jsonl field by
// field, or rewrites the file under -update.
func checkGolden(t *testing.T, name string, got []obs.TraceEvent) {
	t.Helper()
	path := filepath.Join("testdata", name+".trace.jsonl")
	if *updateGolden {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteJSONL(f, got); err != nil {
			f.Close()
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d events)", path, len(got))
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden)", err)
	}
	defer f.Close()
	want, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatalf("golden %s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d events, golden has %d", name, len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		g, w := got[i], want[i]
		diff := func(field string, gv, wv interface{}) {
			t.Errorf("%s: event %d (cycle %d) %s = %v, golden %v", name, i, w.Cycle, field, gv, wv)
		}
		if g.Cycle != w.Cycle {
			diff("cycle", g.Cycle, w.Cycle)
		}
		if g.PC != w.PC {
			diff("pc", g.PC, w.PC)
		}
		if g.Inst != w.Inst {
			diff("inst", g.Inst, w.Inst)
		}
		if gs, ws := strings.Join(g.Stages, "|"), strings.Join(w.Stages, "|"); gs != ws {
			diff("stages", gs, ws)
		}
		if g.Event != w.Event {
			diff("event", g.Event, w.Event)
		}
		if t.Failed() {
			t.Fatalf("%s: first trace divergence at event %d; stopping", name, i)
		}
	}
}

// TestGoldenTraceFactor15 pins the paper's worked example: the Figure 10
// factoring program for n=15 on the 4-stage pipeline.
func TestGoldenTraceFactor15(t *testing.T) {
	gen, err := compile.FactorProgram(15, 8, 4, 4, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(gen.Asm)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "factor15-4stage", captureTrace(t, prog, goldenConfig(8)))
}

// goldenRandomSource emits a deterministic pseudo-random hazard-rich program:
// ALU chains (RAW), loads feeding consumers (load-use), stores to high
// memory, Qat traffic (EX-busy interlock) and bounded backward branches
// (flushes). The generator is seeded and self-contained so the program — and
// therefore the golden — never changes unless this file does.
func goldenRandomSource() string {
	r := rand.New(rand.NewSource(0x600D))
	var b strings.Builder
	emit := func(format string, args ...interface{}) { fmt.Fprintf(&b, format+"\n", args...) }
	reg := func() int { return 1 + r.Intn(7) }
	for d := 1; d <= 7; d++ {
		emit("lex $%d,%d", d, r.Intn(256)-128)
	}
	emit("had @1,3")
	emit("had @2,2")
	for i := 0; i < 30; i++ {
		switch r.Intn(8) {
		case 0:
			emit("add $%d,$%d", reg(), reg())
		case 1:
			emit("mul $%d,$%d", reg(), reg())
		case 2:
			d := reg()
			emit("load $%d,$%d", d, reg())
			emit("add $%d,$%d", reg(), d) // immediate consumer: load-use bait
		case 3:
			s := reg()
			emit("lhi $%d,0x7F", s)
			emit("store $%d,$%d", reg(), s)
		case 4:
			emit("xor @3,@1,@2")
			emit("next $%d,@3", reg())
		case 5:
			emit("cnot @%d,@%d", 1+r.Intn(3), 1+r.Intn(3))
		case 6:
			emit("slt $%d,$%d", reg(), reg())
		case 7:
			lbl := fmt.Sprintf("L%d", i)
			emit("brt $%d,%s", reg(), lbl)
			emit("not $%d", reg())
			emit("%s:", lbl)
		}
	}
	emit("lex $9,3")
	emit("lex $8,-1")
	emit("Lloop:")
	emit("add $1,$9")
	emit("add $9,$8")
	emit("brt $9,Lloop")
	emit("lex $0,0")
	emit("sys")
	return b.String()
}

// TestGoldenTraceRandom pins a seeded random program covering the hazard
// classes the factoring demo misses (load-use, backward-branch loops).
func TestGoldenTraceRandom(t *testing.T) {
	prog, err := asm.Assemble(goldenRandomSource())
	if err != nil {
		t.Fatalf("golden random program does not assemble: %v\n%s", err, goldenRandomSource())
	}
	checkGolden(t, "random-600d-4stage", captureTrace(t, prog, goldenConfig(6)))
}
