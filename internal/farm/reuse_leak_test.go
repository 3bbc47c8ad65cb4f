package farm_test

// Pool-reuse hygiene: a machine handed back to the sync.Pool must carry
// nothing from its previous tenant. Three leak surfaces are pinned here:
// the cycle-trace request tag (a stale tagged sink would stamp the previous
// request's ID onto an unrelated job's rows), Qat register state left by a
// run cut short, and the interleaved tagged/untagged mix under the race
// detector.

import (
	"fmt"
	"reflect"
	"testing"

	"tangled/internal/asm"
	"tangled/internal/compile"
	"tangled/internal/farm"
	"tangled/internal/farm/farmtest"
	"tangled/internal/isa"
	"tangled/internal/obs"
	"tangled/internal/pipeline"
)

func leakProg(t *testing.T, seed int) *asm.Program {
	t.Helper()
	prog, err := asm.Assemble(farmtest.Generate(farmtest.Seed(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestReuseNoTraceTagLeak: after a tagged job releases its pooled pipeline,
// an untagged job reusing the same machine must emit rows with an empty Req
// — the tagged sink must not survive the handoff.
func TestReuseNoTraceTagLeak(t *testing.T) {
	reg := obs.NewRegistry()
	o := farm.NewObs(reg)
	o.Trace = obs.NewTraceRing(1 << 16)
	engine := farm.New(1)
	engine.SetObs(o)

	prog := leakProg(t, 3)
	cfg := pipeline.DefaultConfig()
	cfg.Ways = farmtest.Ways

	// sync.Pool deliberately drops a fraction of puts under the race
	// detector, so one tagged/untagged pair is not guaranteed to share a
	// machine; retry the pair until the untagged job actually reuses one.
	for attempt := 0; attempt < 100; attempt++ {
		tagged := farm.Job{Name: "tagged", Prog: prog, Mode: farm.Pipelined, Pipeline: cfg, TraceTag: "req-A"}
		if res, _ := engine.Run(nil, []farm.Job{tagged}); res[0].Err != nil {
			t.Fatalf("tagged job: %v", res[0].Err)
		}
		taggedRows := len(o.Trace.Events())
		if taggedRows == 0 {
			t.Fatalf("tagged job emitted no trace rows")
		}
		for _, e := range o.Trace.Events() {
			if e.Req != "req-A" {
				t.Fatalf("tagged job row carries req %q, want %q", e.Req, "req-A")
			}
		}

		untagged := farm.Job{Name: "untagged", Prog: prog, Mode: farm.Pipelined, Pipeline: cfg}
		res, st := engine.Run(nil, []farm.Job{untagged})
		if res[0].Err != nil {
			t.Fatalf("untagged job: %v", res[0].Err)
		}
		events := o.Trace.Events()
		if len(events) <= taggedRows {
			t.Fatalf("untagged job emitted no trace rows")
		}
		for _, e := range events[taggedRows:] {
			if e.Req != "" {
				t.Fatalf("untagged job row carries leaked req tag %q", e.Req)
			}
		}
		if st.PoolHits > 0 {
			return // reuse happened and the rows above came out clean
		}
		o.Trace = obs.NewTraceRing(1 << 16) // fresh ring for the retry
		engine.SetObs(o)
	}
	t.Fatalf("untagged job never reused the pooled pipeline; leak surface not exercised")
}

// TestReuseNoQatStateLeak: a 16-way pipelined factoring job cut short by
// MaxSteps leaves the Qat registers it wrote on its pooled machine. The
// jobs that reuse the machine read those registers before writing them,
// and must see what a fresh engine sees.
func TestReuseNoQatStateLeak(t *testing.T) {
	fr, err := compile.FactorProgram(143, 16, 8, 8, compile.Options{Reuse: true})
	if err != nil {
		t.Fatal(err)
	}
	factor, err := asm.Assemble(fr.Asm)
	if err != nil {
		t.Fatal(err)
	}
	_, firstHad := qatWriteSet(t, factor)
	if firstHad < 0 {
		t.Fatal("fixture: factor program has no had")
	}
	reader := func(r int) farm.Job {
		prog, err := asm.Assemble(fmt.Sprintf(
			"lex $1,0\npop $1,@%d\nlex $2,0\nnext $2,@%d\nlex $0,0\nsys\n", r, r))
		if err != nil {
			t.Fatal(err)
		}
		return farm.Job{Prog: prog, Mode: farm.Pipelined}
	}
	full := farm.Job{Prog: factor, Mode: farm.Pipelined}
	if res, _ := farm.New(1).Run(nil, []farm.Job{full}); res[0].Regs[4]*res[0].Regs[1] != 143 {
		t.Fatalf("fixture: factored 143 as %d x %d (err %v)", res[0].Regs[4], res[0].Regs[1], res[0].Err)
	}
	cut := full
	cut.MaxSteps = 200
	p, err := pipeline.New(pipeline.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Load(factor); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(cut.MaxSteps); err == nil || !p.Machine().Qat.Reg(uint8(firstHad)).Any() {
		t.Fatalf("fixture: cut-short run (err %v) left @%d clear", err, firstHad)
	}

	t.Run("maxsteps", func(t *testing.T) {
		next := []farm.Job{reader(firstHad), full}
		want, _ := farm.New(1).Run(nil, next)
		engine := farm.New(1)
		// Retry until the next jobs actually get the recycled machine
		// (sync.Pool drops puts under -race).
		for attempt := 0; attempt < 100; attempt++ {
			if res, _ := engine.Run(nil, []farm.Job{cut}); res[0].Err == nil {
				t.Fatal("dirty job: finished within its cut-short budget")
			}
			got, st := engine.Run(nil, next)
			for i := range got {
				if got[i].Err != nil || want[i].Err != nil {
					t.Fatalf("job %d: err %v, fresh err %v", i, got[i].Err, want[i].Err)
				}
				if got[i].Regs != want[i].Regs || got[i].Output != want[i].Output ||
					!reflect.DeepEqual(got[i].Pipe, want[i].Pipe) {
					t.Fatalf("job %d on a reused machine: regs %v, fresh %v", i, got[i].Regs, want[i].Regs)
				}
			}
			if st.PoolHits > 0 {
				return
			}
		}
		t.Fatalf("next jobs never reused the pooled machine; leak surface not exercised")
	})
}

// qatWriteSet decodes prog and returns every Qat register it can write,
// and the target of its first had (-1 if none).
func qatWriteSet(t *testing.T, prog *asm.Program) (written [isa.NumQRegs]bool, firstHad int) {
	t.Helper()
	firstHad = -1
	for pc := 0; pc < len(prog.Words); {
		if prog.Data[pc] {
			pc++
			continue
		}
		var w1 uint16
		if pc+1 < len(prog.Words) {
			w1 = prog.Words[pc+1]
		}
		inst, n, err := isa.Decode(prog.Words[pc], w1)
		if err != nil {
			t.Fatalf("decode @%#x: %v", pc, err)
		}
		ws, nw := isa.QatWrites(inst)
		for _, r := range ws[:nw] {
			written[r] = true
		}
		if inst.Op == isa.OpQHad && firstHad < 0 {
			firstHad = int(inst.QA)
		}
		pc += n
	}
	return written, firstHad
}

// TestReuseInterleavedTaggedUntagged runs a concurrent mix of tagged and
// untagged pipelined jobs over a small worker pool (forcing heavy machine
// reuse) and asserts every trace row carries either its own job's tag or no
// tag at all — with the race detector watching the shared ring and pooled
// machines.
func TestReuseInterleavedTaggedUntagged(t *testing.T) {
	reg := obs.NewRegistry()
	o := farm.NewObs(reg)
	o.Trace = obs.NewTraceRing(1 << 18)
	engine := farm.New(4)
	engine.SetObs(o)

	prog := leakProg(t, 5)
	cfg := pipeline.DefaultConfig()
	cfg.Ways = farmtest.Ways

	const n = 48
	jobs := make([]farm.Job, n)
	want := map[string]bool{"": true}
	for i := range jobs {
		jobs[i] = farm.Job{Prog: prog, Mode: farm.Pipelined, Pipeline: cfg}
		if i%2 == 0 {
			tag := "req-" + string(rune('a'+i/2))
			jobs[i].TraceTag = tag
			want[tag] = true
		}
	}
	results, _ := engine.Run(nil, jobs)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
	}
	tagged := 0
	for _, e := range o.Trace.Events() {
		if !want[e.Req] {
			t.Fatalf("trace row carries unknown req tag %q", e.Req)
		}
		if e.Req != "" {
			tagged++
		}
	}
	if tagged == 0 {
		t.Fatalf("no tagged rows recorded")
	}
}
