package memo

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tangled/internal/obs"
	"tangled/internal/pipeline"
)

// --- LRU core ---

func TestLRUEvictionOrder(t *testing.T) {
	var evicted []string
	l := NewLRU[string, int](3, func(k string, _ int) { evicted = append(evicted, k) })
	l.Add("a", 1)
	l.Add("b", 2)
	l.Add("c", 3)

	// Touch "a": it must now outlive "b" even though it was inserted first.
	if v, ok := l.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	l.Add("d", 4)
	if _, ok := l.Peek("b"); ok {
		t.Fatalf("b should have been evicted (a was refreshed)")
	}
	if _, ok := l.Peek("a"); !ok {
		t.Fatalf("a was refreshed and must survive")
	}
	if want := []string{"b"}; !reflect.DeepEqual(evicted, want) {
		t.Fatalf("evicted = %v, want %v", evicted, want)
	}

	// Peek must NOT refresh: peeking "c" then inserting must still evict "c".
	l.Peek("c")
	l.Add("e", 5)
	if _, ok := l.Peek("c"); ok {
		t.Fatalf("c should have been evicted; Peek must not refresh recency")
	}
	if l.Len() != 3 || l.Cap() != 3 {
		t.Fatalf("Len=%d Cap=%d, want 3/3", l.Len(), l.Cap())
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	l := NewLRU[string, int](2, nil)
	l.Add("a", 1)
	l.Add("b", 2)
	l.Add("a", 10) // update, not insert: nothing evicted, "a" refreshed
	if l.Len() != 2 {
		t.Fatalf("Len = %d after update, want 2", l.Len())
	}
	l.Add("c", 3)
	if _, ok := l.Peek("b"); ok {
		t.Fatalf("b should have been evicted (a was refreshed by update)")
	}
	if v, _ := l.Get("a"); v != 10 {
		t.Fatalf("a = %d, want updated value 10", v)
	}
}

func TestLRUCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("NewLRU(0) must panic")
		}
	}()
	NewLRU[int, int](0, nil)
}

// --- Key derivation ---

func TestKeyDeterministic(t *testing.T) {
	k := ExecKey{
		Pipelined: true,
		Pipeline:  pipeline.DefaultConfig(),
		MaxSteps:  1 << 20,
		Words:     []uint16{0x1234, 0xBEEF, 0},
	}
	if k.Sum() != k.Sum() {
		t.Fatalf("Sum is not deterministic")
	}
	// A semantically identical copy (fresh slice, same contents) must agree.
	k2 := k
	k2.Words = append([]uint16(nil), k.Words...)
	if k.Sum() != k2.Sum() {
		t.Fatalf("equal ExecKeys hash differently")
	}
}

func TestKeySensitivity(t *testing.T) {
	base := ExecKey{
		Pipelined: true,
		Pipeline:  pipeline.DefaultConfig(),
		MaxSteps:  1000,
		Words:     []uint16{1, 2, 3},
	}
	seen := map[Key]string{base.Sum(): "base"}
	variants := map[string]ExecKey{}

	v := base
	v.Pipelined = false
	variants["pipelined"] = v

	v = base
	v.Ways = 4
	variants["ways"] = v

	v = base
	v.ConstantRegs = true
	variants["constRegs"] = v

	v = base
	v.Pipeline.Stages = 4
	variants["stages"] = v

	v = base
	v.Pipeline.Forwarding = !v.Pipeline.Forwarding
	variants["forwarding"] = v

	v = base
	v.Pipeline.MulLatency++
	variants["mulLatency"] = v

	v = base
	v.Pipeline.QatNextLatency++
	variants["qatNextLatency"] = v

	v = base
	v.Pipeline.TwoWordFetchPenalty = !v.Pipeline.TwoWordFetchPenalty
	variants["twoWordFetch"] = v

	v = base
	v.Pipeline.ConstantRegs = !v.Pipeline.ConstantRegs
	variants["pipeConstRegs"] = v

	v = base
	v.MaxSteps++
	variants["maxSteps"] = v

	v = base
	v.Words = []uint16{1, 2, 4}
	variants["words"] = v

	v = base
	v.Words = []uint16{1, 2, 3, 0}
	variants["wordsLen"] = v

	for name, vk := range variants {
		sum := vk.Sum()
		if prev, dup := seen[sum]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		seen[sum] = name
	}
}

// TestKeyCoversPipelineConfig pins the field count of pipeline.Config: if a
// field is added there without teaching ExecKey.Sum about it, two
// executions differing only in that field would share a key and the cache
// would serve wrong results. Update Sum (and bump keySchema) before
// updating this count.
func TestKeyCoversPipelineConfig(t *testing.T) {
	const covered = 7 // Stages, Ways, Forwarding, TwoWordFetchPenalty, MulLatency, QatNextLatency, ConstantRegs
	if n := reflect.TypeOf(pipeline.Config{}).NumField(); n != covered {
		t.Fatalf("pipeline.Config has %d fields but ExecKey.Sum covers %d — extend the key derivation and bump keySchema", n, covered)
	}
}

// --- Cache / singleflight ---

func testKey(i int) Key {
	return ExecKey{MaxSteps: uint64(i), Words: []uint16{uint16(i)}}.Sum()
}

// observed returns a cache of the given capacity with its metric set
// attached, for tests that read the traffic counters.
func observed(capacity int) (*Cache, *Obs) {
	c := New(capacity)
	o := NewObs(obs.NewRegistry())
	c.SetObs(o)
	return c, o
}

func TestCacheHitMiss(t *testing.T) {
	c, o := observed(8)
	var execs atomic.Int64
	exec := func() Entry {
		execs.Add(1)
		return Entry{Output: "out", Insts: 42, Pipe: &pipeline.Stats{Cycles: 7}}
	}

	e1, cached, err := c.Do(context.Background(), testKey(1), exec)
	if err != nil || cached {
		t.Fatalf("first Do: cached=%v err=%v", cached, err)
	}
	e2, cached, err := c.Do(context.Background(), testKey(1), exec)
	if err != nil || !cached {
		t.Fatalf("second Do: cached=%v err=%v", cached, err)
	}
	if execs.Load() != 1 {
		t.Fatalf("execs = %d, want 1", execs.Load())
	}
	if e1.Output != e2.Output || e1.Insts != e2.Insts || *e1.Pipe != *e2.Pipe {
		t.Fatalf("hit differs from fresh: %+v vs %+v", e2, e1)
	}
	// Clones must not alias: mutating one caller's stats can't corrupt the
	// store or another caller.
	e2.Pipe.Cycles = 999
	e3, _ := c.Get(testKey(1))
	if e3.Pipe.Cycles != 7 {
		t.Fatalf("stored entry mutated through a returned clone")
	}
	if h, m := o.Hits.Value(), o.Misses.Value(); h != 2 || m != 1 { // Do-hit + Get-hit
		t.Fatalf("%d hits / %d misses, want 2 / 1", h, m)
	}
}

func TestCacheGetDoesNotCountMiss(t *testing.T) {
	c, o := observed(8)
	if _, ok := c.Get(testKey(1)); ok {
		t.Fatalf("unexpected hit")
	}
	if h, m := o.Hits.Value(), o.Misses.Value(); h != 0 || m != 0 {
		t.Fatalf("probe miss must be silent: %d hits / %d misses", h, m)
	}
}

func TestSingleflight(t *testing.T) {
	c, o := observed(8)
	const callers = 16
	var execs atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{})
	exec := func() Entry {
		close(started)
		execs.Add(1)
		<-gate // hold every follower in the wait path
		return Entry{Output: "once"}
	}

	var wg sync.WaitGroup
	results := make([]Entry, callers)
	cachedFlags := make([]bool, callers)
	errs := make([]error, callers)

	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], cachedFlags[0], errs[0] = c.Do(context.Background(), testKey(7), exec)
	}()
	<-started // leader is inside exec before any follower arrives

	for i := 1; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], cachedFlags[i], errs[i] = c.Do(context.Background(), testKey(7), func() Entry {
				t.Errorf("follower %d executed", i)
				return Entry{}
			})
		}(i)
	}

	// Wait for every follower to register as a dedup waiter, then release.
	deadline := time.Now().Add(5 * time.Second)
	for o.Dedup.Value() < callers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("followers never queued: dedup = %d", o.Dedup.Value())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if execs.Load() != 1 {
		t.Fatalf("execs = %d, want exactly 1 for %d concurrent identical requests", execs.Load(), callers)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("caller %d: err = %v", i, errs[i])
		}
		if results[i].Output != "once" {
			t.Fatalf("caller %d: output = %q", i, results[i].Output)
		}
		if i > 0 && !cachedFlags[i] {
			t.Fatalf("follower %d not flagged cached", i)
		}
	}
	if cachedFlags[0] {
		t.Fatalf("leader flagged cached")
	}
	if m, d, h := o.Misses.Value(), o.Dedup.Value(), o.Hits.Value(); m != 1 || d != callers-1 || h != callers-1 {
		t.Fatalf("%d misses, %d dedup, %d hits; want 1, %d, %d", m, d, h, callers-1, callers-1)
	}
}

func TestDoWaiterHonorsContext(t *testing.T) {
	c := New(8)
	gate := make(chan struct{})
	started := make(chan struct{})
	go c.Do(context.Background(), testKey(3), func() Entry {
		close(started)
		<-gate
		return Entry{}
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, testKey(3), func() Entry { return Entry{} })
		done <- err
	}()
	// Give the waiter time to park on the flight, then cancel it.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("waiter did not honor ctx cancellation")
	}
	close(gate)
}

func TestDeterministicErrorsAreCached(t *testing.T) {
	c := New(8)
	detErr := errors.New("qat: write to constant register")
	var execs atomic.Int64
	exec := func() Entry {
		execs.Add(1)
		return Entry{Err: detErr}
	}
	e, _, _ := c.Do(context.Background(), testKey(5), exec)
	if e.Err != detErr {
		t.Fatalf("err = %v", e.Err)
	}
	e, cached, _ := c.Do(context.Background(), testKey(5), exec)
	if !cached || !errors.Is(e.Err, detErr) || execs.Load() != 1 {
		t.Fatalf("deterministic failure not cached: cached=%v err=%v execs=%d", cached, e.Err, execs.Load())
	}
}

func TestContextErrorsAreNotCached(t *testing.T) {
	c := New(8)
	var execs atomic.Int64
	for _, werr := range []error{
		context.Canceled,
		context.DeadlineExceeded,
		fmt.Errorf("run: %w", context.Canceled), // wrapped, as cpu.RunContext returns
	} {
		execs.Store(0)
		k := testKey(100)
		for i := 0; i < 2; i++ {
			e, cached, err := c.Do(context.Background(), k, func() Entry {
				execs.Add(1)
				return Entry{Err: werr}
			})
			if err != nil || cached || !errors.Is(e.Err, werr) {
				t.Fatalf("attempt %d (%v): cached=%v err=%v entryErr=%v", i, werr, cached, err, e.Err)
			}
		}
		if execs.Load() != 2 {
			t.Fatalf("%v: execs = %d, want 2 (uncacheable outcomes must re-execute)", werr, execs.Load())
		}
		if c.Len() != 0 {
			t.Fatalf("%v: uncacheable entry was stored", werr)
		}
	}
}

// TestWaiterRetriesAfterUncacheableLeader: the leader's outcome is
// caller-dependent (ctx error), so the parked follower must not inherit it —
// it loops and executes for itself.
func TestWaiterRetriesAfterUncacheableLeader(t *testing.T) {
	c, o := observed(8)
	k := testKey(9)
	gate := make(chan struct{})
	started := make(chan struct{})
	go c.Do(context.Background(), k, func() Entry {
		close(started)
		<-gate
		return Entry{Err: context.Canceled}
	})
	<-started

	done := make(chan Entry, 1)
	go func() {
		e, _, _ := c.Do(context.Background(), k, func() Entry {
			return Entry{Output: "retried"}
		})
		done <- e
	}()
	deadline := time.Now().Add(5 * time.Second)
	for o.Dedup.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never parked")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	select {
	case e := <-done:
		if e.Output != "retried" {
			t.Fatalf("follower entry = %+v, want its own retried execution", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("follower deadlocked after uncacheable leader")
	}
}

// TestPanicReleasesFlight: a panicking exec must release the in-flight slot
// (no deadlocked waiters, no cached garbage) and still propagate.
func TestPanicReleasesFlight(t *testing.T) {
	c := New(8)
	k := testKey(11)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("panic did not propagate")
			}
		}()
		c.Do(context.Background(), k, func() Entry { panic("boom") })
	}()
	if c.Len() != 0 {
		t.Fatalf("panicked execution was cached")
	}
	// The key must be executable again (flight released).
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, cached, err := c.Do(context.Background(), k, func() Entry { return Entry{} }); cached || err != nil {
			t.Errorf("post-panic Do: cached=%v err=%v", cached, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("flight leaked after panic; subsequent Do deadlocked")
	}
}

func TestCacheEvictionCountsAndObs(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(2)
	c.SetObs(NewObs(reg))
	for i := 0; i < 3; i++ {
		c.Do(context.Background(), testKey(i), func() Entry { return Entry{} })
	}
	c.Get(testKey(2)) // hit
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want capacity 2", c.Len())
	}
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"memo_hits_total":           1,
		"memo_misses_total":         3,
		"memo_evictions_total":      1,
		"memo_inflight_dedup_total": 0,
	} {
		if got, ok := snap[name].(uint64); !ok || got != want {
			t.Errorf("%s = %v, want %v", name, snap[name], want)
		}
	}
}

func TestNewDefaultCap(t *testing.T) {
	if got := New(0).lru.Cap(); got != DefaultCap {
		t.Fatalf("New(0) cap = %d, want %d", got, DefaultCap)
	}
	if got := New(-5).lru.Cap(); got != DefaultCap {
		t.Fatalf("New(-5) cap = %d, want %d", got, DefaultCap)
	}
}
