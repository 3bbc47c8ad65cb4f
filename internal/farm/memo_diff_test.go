package farm_test

// Memoization correctness harness: for every corpus program, a memoized
// engine's first run (the miss that populates the cache) and second run
// (the hit served from it) must be byte-identical to a fresh, memo-less
// execution — registers, output, retired instruction count, and pipeline
// stats — across the functional machine and both pipeline organizations.
// A separate test proves the singleflight property: a batch of identical
// concurrent jobs costs exactly one execution.

import (
	"fmt"
	"testing"

	"tangled/internal/asm"
	"tangled/internal/farm"
	"tangled/internal/farm/farmtest"
	"tangled/internal/memo"
	"tangled/internal/obs"
)

// sameResult compares the deterministic slice of two farm results.
func sameResult(a, b farm.Result) error {
	if a.Regs != b.Regs {
		return fmt.Errorf("regs %v != %v", a.Regs, b.Regs)
	}
	if a.Output != b.Output {
		return fmt.Errorf("output %q != %q", a.Output, b.Output)
	}
	if a.Insts != b.Insts {
		return fmt.Errorf("insts %d != %d", a.Insts, b.Insts)
	}
	if (a.Pipe == nil) != (b.Pipe == nil) {
		return fmt.Errorf("pipe presence %v != %v", a.Pipe != nil, b.Pipe != nil)
	}
	if a.Pipe != nil && *a.Pipe != *b.Pipe {
		return fmt.Errorf("pipe stats %+v != %+v", *a.Pipe, *b.Pipe)
	}
	if (a.Err == nil) != (b.Err == nil) || (a.Err != nil && a.Err.Error() != b.Err.Error()) {
		return fmt.Errorf("err %v != %v", a.Err, b.Err)
	}
	return nil
}

// observedCache returns a memo cache of the given capacity with its metric
// set attached, for tests that read the traffic counters.
func observedCache(capacity int) (*memo.Cache, *memo.Obs) {
	c := memo.New(capacity)
	o := memo.NewObs(obs.NewRegistry())
	c.SetObs(o)
	return c, o
}

// TestMemoDifferential: fresh (memo-less) execution vs the memoized
// engine's populating miss vs its subsequent hit, over the full shared
// corpus and all three machine models.
func TestMemoDifferential(t *testing.T) {
	fresh := farm.New(0)
	memoized := farm.New(0)
	cache, mo := observedCache(0)
	memoized.SetMemo(cache)

	for i := 0; i < farmtest.Programs; i++ {
		src := farmtest.Generate(farmtest.Seed(i))
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("program %d does not assemble: %v", i, err)
		}
		p4cfg, p5cfg := pipeConfigs(i)
		jobs := []farm.Job{
			{Name: "func", Prog: prog, Mode: farm.Functional, Ways: diffWays},
			{Name: "pipe4", Prog: prog, Mode: farm.Pipelined, Pipeline: p4cfg},
			{Name: "pipe5", Prog: prog, Mode: farm.Pipelined, Pipeline: p5cfg},
		}
		freshRes, _ := fresh.Run(nil, jobs)
		missRes, missSt := memoized.Run(nil, jobs)
		hitRes, hitSt := memoized.Run(nil, jobs)

		if missSt.MemoHits != 0 {
			t.Fatalf("program %d: first memoized run reported %d memo hits", i, missSt.MemoHits)
		}
		if hitSt.MemoHits != uint64(len(jobs)) {
			t.Fatalf("program %d: second memoized run reported %d/%d memo hits", i, hitSt.MemoHits, len(jobs))
		}
		for k := range jobs {
			if freshRes[k].Err != nil {
				t.Fatalf("program %d, %s: fresh run failed: %v\n%s", i, jobs[k].Name, freshRes[k].Err, src)
			}
			if missRes[k].Cached {
				t.Fatalf("program %d, %s: populating run flagged cached", i, jobs[k].Name)
			}
			if !hitRes[k].Cached {
				t.Fatalf("program %d, %s: repeat run not served from cache", i, jobs[k].Name)
			}
			if err := sameResult(freshRes[k], missRes[k]); err != nil {
				t.Fatalf("program %d, %s: miss differs from fresh: %v\n%s", i, jobs[k].Name, err, src)
			}
			if err := sameResult(freshRes[k], hitRes[k]); err != nil {
				t.Fatalf("program %d, %s: cache hit differs from fresh: %v\n%s", i, jobs[k].Name, err, src)
			}
		}
	}
	if h, m := mo.Hits.Value(), mo.Misses.Value(); h == 0 || m == 0 {
		t.Fatalf("cache saw no traffic: %d hits / %d misses", h, m)
	}
}

// TestMemoBatchSingleflight: one batch of N identical jobs costs exactly
// one execution — concurrent duplicates collapse onto the in-flight leader
// (or hit the entry it just stored), never re-executing.
func TestMemoBatchSingleflight(t *testing.T) {
	const n = 32
	src := farmtest.Generate(farmtest.Seed(1))
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	cache, mo := observedCache(0)
	engine := farm.New(8)
	engine.SetMemo(cache)

	jobs := make([]farm.Job, n)
	for i := range jobs {
		jobs[i] = farm.Job{Name: "dup", Prog: prog, Mode: farm.Functional, Ways: diffWays}
	}
	results, st := engine.Run(nil, jobs)

	hits, misses := mo.Hits.Value(), mo.Misses.Value()
	if misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 execution for %d identical jobs (%d hits)", misses, n, hits)
	}
	if hits+misses != n {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, n)
	}
	if st.MemoHits != n-1 {
		t.Fatalf("batch memo hits = %d, want %d", st.MemoHits, n-1)
	}
	var cached int
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
		if err := sameResult(results[0], res); err != nil {
			t.Fatalf("job %d differs from job 0: %v", i, err)
		}
		if res.Cached {
			cached++
		}
	}
	if cached != n-1 {
		t.Fatalf("%d results flagged cached, want %d", cached, n-1)
	}
}

// TestMemoBypass: pipelined jobs feeding a trace ring always execute, and
// never populate or read the cache.
func TestMemoBypass(t *testing.T) {
	src := farmtest.Generate(farmtest.Seed(2))
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	cache, mo := observedCache(0)
	engine := farm.New(1)
	engine.SetMemo(cache)
	o := farm.NewObs(obs.NewRegistry())
	o.Trace = obs.NewTraceRing(1 << 16)
	engine.SetObs(o)
	p4cfg, _ := pipeConfigs(2)

	jobs := []farm.Job{
		{Name: "traced", Prog: prog, Mode: farm.Pipelined, Pipeline: p4cfg},
		{Name: "traced-again", Prog: prog, Mode: farm.Pipelined, Pipeline: p4cfg},
	}
	results, st := engine.Run(nil, jobs)
	for i, res := range results {
		if res.Err != nil || res.Cached {
			t.Fatalf("job %d: err=%v cached=%v", i, res.Err, res.Cached)
		}
	}
	if st.MemoHits != 0 {
		t.Fatalf("bypass jobs produced %d memo hits", st.MemoHits)
	}
	if h, m := mo.Hits.Value(), mo.Misses.Value(); h != 0 || m != 0 || cache.Len() != 0 {
		t.Fatalf("bypass jobs touched the cache: %d hits / %d misses, len=%d", h, m, cache.Len())
	}
	if o.Trace.Len() == 0 {
		t.Fatal("traced pipelined jobs emitted no trace rows")
	}
}

// TestMemoSkipsInvalidConfig: a job whose register-file choice is invalid
// fails without reaching the cache. Keyed anyway, an unknown backend at 16
// ways (or a pipelined job on "re") would hash like the dense spelling,
// and its error would be replayed to every later dense run of the program.
func TestMemoSkipsInvalidConfig(t *testing.T) {
	src := "\tlex $1, 7\n\tlex $0, 0\n\tsys\n"
	for _, c := range []struct {
		name      string
		bad, good farm.Job
	}{
		{"unknown backend", farm.Job{Src: src, Ways: 16, Backend: "fpga"}, farm.Job{Src: src, Ways: 16}},
		{"pipelined re", farm.Job{Src: src, Mode: farm.Pipelined, Backend: "re"}, farm.Job{Src: src, Mode: farm.Pipelined}},
	} {
		engine := farm.New(1)
		cache, mo := observedCache(16)
		engine.SetMemo(cache)
		bad, good := c.bad, c.good
		if res, _ := engine.Run(nil, []farm.Job{bad}); res[0].Err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
		if _, hit := engine.MemoProbe(&good); hit {
			t.Fatalf("%s: the dense spelling hit an entry the failed job stored", c.name)
		}
		if res, _ := engine.Run(nil, []farm.Job{good}); res[0].Err != nil || res[0].Cached {
			t.Fatalf("%s: dense run after the failed job: err=%v cached=%v", c.name, res[0].Err, res[0].Cached)
		}
		if _, hit := engine.MemoProbe(&bad); hit {
			t.Fatalf("%s: hit the dense entry", c.name)
		}
		if h, m := mo.Hits.Value(), mo.Misses.Value(); h != 0 || m != 1 {
			t.Fatalf("%s: memo hits/misses %d/%d, want 0/1", c.name, h, m)
		}
	}
}
