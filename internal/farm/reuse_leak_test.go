package farm_test

// Pool-reuse hygiene: a machine handed back to the sync.Pool must carry
// nothing from its previous tenant. Four leak surfaces are pinned here:
// the cycle-trace request tag (a stale tagged sink would stamp the previous
// request's ID onto an unrelated job's rows), machine-level attachments an
// Inspect hook may have planted (instruction-trace hook, energy meter,
// alternate encoding, LUT reciprocal datapath), Qat register state left by
// an Inspect hook or by a run cut short, and the interleaved
// tagged/untagged mix under the race detector.

import (
	"fmt"
	"reflect"
	"testing"

	"tangled/internal/aob"
	"tangled/internal/asm"
	"tangled/internal/compile"
	"tangled/internal/cpu"
	"tangled/internal/energy"
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

// TestReuseNoInspectStateLeak: attachments and hardware-identity overrides
// planted by one tenant's Inspect hook must be gone when the next tenant's
// Inspect observes the same pooled machine.
func TestReuseNoInspectStateLeak(t *testing.T) {
	prog := leakProg(t, 4)
	cfg := pipeline.DefaultConfig()
	cfg.Ways = farmtest.Ways

	for _, mode := range []struct {
		name string
		job  func(inspect func(*cpu.Machine)) farm.Job
	}{
		{"functional", func(in func(*cpu.Machine)) farm.Job {
			return farm.Job{Prog: prog, Mode: farm.Functional, Ways: farmtest.Ways, Inspect: in}
		}},
		{"pipelined", func(in func(*cpu.Machine)) farm.Job {
			return farm.Job{Prog: prog, Mode: farm.Pipelined, Pipeline: cfg, Inspect: in}
		}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			engine := farm.New(1)
			// Retry the dirty/clean pair until the clean job actually gets
			// the recycled machine (sync.Pool drops puts under -race).
			for attempt := 0; attempt < 100; attempt++ {
				dirty := mode.job(func(m *cpu.Machine) {
					m.Trace = func(uint16, isa.Inst) {}
					m.Qat.Meter = energy.NewMeter()
					m.Enc = isa.Student
					m.RecipLUT = true
				})
				if res, _ := engine.Run(nil, []farm.Job{dirty}); res[0].Err != nil {
					t.Fatalf("dirty job: %v", res[0].Err)
				}

				var leaked []string
				clean := mode.job(func(m *cpu.Machine) {
					if m.Trace != nil {
						leaked = append(leaked, "Trace")
					}
					if m.Qat.Meter != nil {
						leaked = append(leaked, "Qat.Meter")
					}
					if m.Enc != nil {
						leaked = append(leaked, "Enc")
					}
					if m.RecipLUT {
						leaked = append(leaked, "RecipLUT")
					}
				})
				res, st := engine.Run(nil, []farm.Job{clean})
				if res[0].Err != nil {
					t.Fatalf("clean job: %v", res[0].Err)
				}
				if len(leaked) > 0 {
					t.Fatalf("state leaked across pool tenants: %v", leaked)
				}
				if st.PoolHits > 0 {
					return
				}
			}
			t.Fatalf("clean job never reused the pooled machine; leak surface not exercised")
		})
	}
}

// TestReuseNoQatStateLeak: a 16-way pipelined factoring job leaves Qat
// state on its pooled machine — a register its program never writes,
// planted by its Inspect hook through SetReg, or the registers it wrote
// before MaxSteps cut it short. The jobs that reuse the machine read those
// registers before writing them, and must see what a fresh engine sees.
func TestReuseNoQatStateLeak(t *testing.T) {
	fr, err := compile.FactorProgram(143, 16, 8, 8, compile.Options{Reuse: true})
	if err != nil {
		t.Fatal(err)
	}
	factor, err := asm.Assemble(fr.Asm)
	if err != nil {
		t.Fatal(err)
	}
	written, firstHad := qatWriteSet(t, factor)
	const planted = 255
	if written[planted] || firstHad < 0 {
		t.Fatalf("fixture: factor program writes @%d (%v) or has no had (%d)", planted, written[planted], firstHad)
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

	plant := full
	plant.Inspect = func(m *cpu.Machine) {
		v := aob.New(16)
		v.One()
		m.Qat.SetReg(planted, v)
	}
	cut := full
	cut.MaxSteps = 200
	cut.Inspect = func(m *cpu.Machine) {
		if !m.Qat.Reg(uint8(firstHad)).Any() {
			t.Errorf("fixture: cut-short run left @%d clear", firstHad)
		}
	}

	for _, tc := range []struct {
		name     string
		dirty    farm.Job
		dirtyErr bool
		next     []farm.Job
	}{
		{"inspect-setreg", plant, false, []farm.Job{reader(planted)}},
		{"maxsteps", cut, true, []farm.Job{reader(firstHad), full}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, _ := farm.New(1).Run(nil, tc.next)
			engine := farm.New(1)
			// Retry until the next jobs actually get the recycled machine
			// (sync.Pool drops puts under -race).
			for attempt := 0; attempt < 100; attempt++ {
				if res, _ := engine.Run(nil, []farm.Job{tc.dirty}); (res[0].Err != nil) != tc.dirtyErr {
					t.Fatalf("dirty job: err = %v, want error %v", res[0].Err, tc.dirtyErr)
				}
				got, st := engine.Run(nil, tc.next)
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
