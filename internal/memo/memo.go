// Package memo is a content-addressed execution cache for Tangled/Qat
// runs. Qat execution is fully deterministic — the PBP model has no
// decoherence and measurement is non-destructive, and the host machine is
// zero-initialized by Load — so an execution's outcome is a pure function
// of the assembled program image and the machine configuration. The single
// biggest perf lever for repeated traffic is therefore never re-executing
// an identical (program, configuration) pair: the host/coprocessor dispatch
// boundary that dominates hybrid designs is removed entirely on a hit.
//
// The cache is keyed by a canonical SHA-256 (ExecKey.Sum) over the program
// words, the machine configuration, and the step budget; the store is a
// true LRU (lru.go), and concurrent identical requests collapse through a
// singleflight: the first caller executes, the rest wait for its result, so
// N simultaneous identical submissions cost one execution.
//
// Cacheability is an outcome property, not just a key property: results
// that depend on the caller (context cancellation, deadline expiry) are
// returned but never stored, while deterministic failures (step-budget
// exhaustion, Qat write-to-constant faults) are cached exactly like
// successes — a repeat would fail identically. Callers that need a real
// execution (cycle tracing, machine inspection) bypass the cache at the
// call site; see internal/farm.
package memo

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"tangled/internal/pipeline"
)

// keySchema versions the key derivation. It covers everything implicit in
// an execution that the explicit fields do not: the zero-initialized
// machine state after Load (registers, memory, pbit/AoB register file) and
// the result layout. Bump it whenever execution semantics or Entry change
// meaning, and every old key misses harmlessly.
const keySchema = "tangled-memo-v1"

// DefaultCap is the entry bound used when New is given a non-positive
// capacity.
const DefaultCap = 4096

// Key is the canonical content address of one execution.
type Key [sha256.Size]byte

// ExecKey describes one deterministic execution for hashing. Callers
// normalize defaults before hashing (farm resolves ways 0 to the full
// hardware and an all-zero pipeline config to pipeline.DefaultConfig), so
// two spellings of the same execution share a key.
type ExecKey struct {
	// Pipelined selects the cycle-accurate model; false is the functional
	// machine.
	Pipelined bool
	// Ways and ConstantRegs configure the functional machine's coprocessor
	// (zero/false for pipelined executions, whose Pipeline carries both).
	Ways         int
	ConstantRegs bool
	// Pipeline is the pipelined organization (the zero value for
	// functional executions).
	Pipeline pipeline.Config
	// Backend selects the functional coprocessor's register-file
	// representation: 0 dense, 1 run-encoded. REChunkWays and RESpillRuns
	// only apply to the run-encoded backend and must be the canonical
	// post-default values (dense executions leave all three zero, keeping
	// their keys byte-identical to the pre-backend schema).
	Backend     uint8
	REChunkWays uint8
	RESpillRuns int32
	// MaxSteps is the instruction (functional) or cycle (pipelined)
	// budget. It is part of the key because budget exhaustion is a
	// deterministic, cacheable outcome that depends on it.
	MaxSteps uint64
	// Words is the assembled program image loaded at address 0.
	Words []uint16
}

// Sum derives the canonical SHA-256 key. Every field is serialized at a
// fixed width in a fixed order, so the mapping is injective and
// insensitive to struct layout.
func (k ExecKey) Sum() Key {
	h := sha256.New()
	io.WriteString(h, keySchema)
	var flags byte
	if k.Pipelined {
		flags |= 1 << 0
	}
	if k.ConstantRegs {
		flags |= 1 << 1
	}
	if k.Pipeline.Forwarding {
		flags |= 1 << 2
	}
	if k.Pipeline.TwoWordFetchPenalty {
		flags |= 1 << 3
	}
	if k.Pipeline.ConstantRegs {
		flags |= 1 << 4
	}
	var hdr [45]byte
	hdr[0] = flags
	binary.LittleEndian.PutUint32(hdr[1:], uint32(k.Ways))
	binary.LittleEndian.PutUint32(hdr[5:], uint32(k.Pipeline.Stages))
	binary.LittleEndian.PutUint32(hdr[9:], uint32(k.Pipeline.Ways))
	binary.LittleEndian.PutUint32(hdr[13:], uint32(k.Pipeline.MulLatency))
	binary.LittleEndian.PutUint32(hdr[17:], uint32(k.Pipeline.QatNextLatency))
	binary.LittleEndian.PutUint64(hdr[21:], k.MaxSteps)
	binary.LittleEndian.PutUint64(hdr[29:], uint64(len(k.Words)))
	hdr[37] = k.Backend
	hdr[38] = k.REChunkWays
	binary.LittleEndian.PutUint32(hdr[39:], uint32(k.RESpillRuns))
	// hdr[43:45] reserved (zero): room for future fields without reflowing
	// the layout.
	h.Write(hdr[:])
	buf := make([]byte, 2*len(k.Words))
	for i, w := range k.Words {
		binary.LittleEndian.PutUint16(buf[2*i:], w)
	}
	h.Write(buf)
	var out Key
	h.Sum(out[:0])
	return out
}

// Entry is one cached execution outcome — the deterministic slice of a
// farm.Result.
type Entry struct {
	// Regs is the final Tangled register file.
	Regs [16]uint16
	// Output is everything the program printed through sys.
	Output string
	// Insts is the retired instruction count.
	Insts uint64
	// Pipe holds the cycle accounting of pipelined executions (nil for
	// functional ones).
	Pipe *pipeline.Stats
	// Err is the execution's deterministic failure, if any (nil entries
	// with context-derived errors are never stored; see Cacheable).
	Err error
}

// clone returns a copy safe to hand to a caller: the Pipe stats are
// duplicated so no two results alias one mutable struct.
func (e Entry) clone() Entry {
	if e.Pipe != nil {
		p := *e.Pipe
		e.Pipe = &p
	}
	return e
}

// Cacheable reports whether an execution outcome is a pure function of its
// key. Context-derived failures depend on the caller's deadline or
// disconnect, not on the program, so they are returned but never stored.
func Cacheable(err error) bool {
	return err == nil ||
		!(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// flight is one in-progress execution other callers can wait on.
type flight struct {
	done  chan struct{}
	entry Entry
	ok    bool // entry is valid and was cached
}

// Cache is a bounded, content-addressed execution cache with singleflight
// collapsing of concurrent identical requests. Safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	lru      *LRU[Key, Entry]
	inflight map[Key]*flight

	obs atomic.Pointer[Obs]
}

// New returns a cache bounded to capacity entries (<= 0 means DefaultCap).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	c := &Cache{inflight: make(map[Key]*flight)}
	c.lru = NewLRU[Key, Entry](capacity, func(Key, Entry) {
		if o := c.obs.Load(); o != nil {
			o.Evictions.Inc()
		}
	})
	return c
}

// SetObs attaches (or with nil detaches) the metric set; see NewObs. Safe
// to call concurrently with cache traffic.
func (c *Cache) SetObs(o *Obs) { c.obs.Store(o) }

// Len returns the number of stored entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Get probes the store, refreshing the entry's recency and counting a hit
// when present. A miss is silent — Get is the cheap pre-admission probe
// (internal/server); only Do, which commits to executing, counts misses.
func (c *Cache) Get(k Key) (Entry, bool) {
	start := time.Now()
	c.mu.Lock()
	e, ok := c.lru.Get(k)
	c.mu.Unlock()
	if !ok {
		return Entry{}, false
	}
	c.hit(start)
	return e.clone(), true
}

// Has reports whether k is stored, without counting a hit, refreshing
// recency or copying the entry: the auto-planner's probe, which only picks
// a backend. The lookup that then serves the entry (Get or Do) counts it.
func (c *Cache) Has(k Key) bool {
	c.mu.Lock()
	_, ok := c.lru.Peek(k)
	c.mu.Unlock()
	return ok
}

// Do returns the cached entry for k, or executes exec to produce it. The
// returned flag reports whether the entry came from the cache (a stored
// entry or another caller's just-finished identical execution) rather than
// this caller's own exec. Concurrent Do calls with the same key run exec
// once: the first caller executes while the rest wait; ctx bounds only the
// wait (the returned error is ctx.Err() then), never the execution, which
// manages its own cancellation and reports it through Entry.Err. Outcomes
// that fail Cacheable are returned to their caller but not stored, and any
// waiters retry.
func (c *Cache) Do(ctx context.Context, k Key, exec func() Entry) (Entry, bool, error) {
	start := time.Now()
	var f *flight
	for {
		c.mu.Lock()
		if e, ok := c.lru.Get(k); ok {
			c.mu.Unlock()
			c.hit(start)
			return e.clone(), true, nil
		}
		waiter, ok := c.inflight[k]
		if !ok {
			f = &flight{done: make(chan struct{})}
			c.inflight[k] = f
			c.mu.Unlock()
			break
		}
		c.mu.Unlock()
		if o := c.obs.Load(); o != nil {
			o.Dedup.Inc()
		}
		select {
		case <-waiter.done:
			if waiter.ok {
				c.hit(start)
				return waiter.entry.clone(), true, nil
			}
			// The leader's outcome was caller-dependent and uncacheable;
			// loop and execute (or wait on a newer leader).
		case <-ctx.Done():
			return Entry{}, false, ctx.Err()
		}
	}

	// Leader path. completed distinguishes a normal return from a panic
	// unwinding through exec: a panic must release the flight without
	// caching the half-built entry, or every waiter deadlocks.
	var entry Entry
	completed := false
	defer func() {
		c.mu.Lock()
		delete(c.inflight, k)
		if completed && Cacheable(entry.Err) {
			// Store a clone: the leader keeps (and may mutate) its own
			// entry, so the cached copy must not alias its Pipe stats.
			c.lru.Add(k, entry.clone())
			f.entry, f.ok = entry.clone(), true
		}
		c.mu.Unlock()
		close(f.done)
	}()
	entry = exec()
	completed = true
	c.miss(start)
	return entry, false, nil
}

func (c *Cache) hit(start time.Time) {
	if o := c.obs.Load(); o != nil {
		o.Hits.Inc()
		o.HitSeconds.Observe(time.Since(start).Seconds())
	}
}

func (c *Cache) miss(start time.Time) {
	if o := c.obs.Load(); o != nil {
		o.Misses.Inc()
		o.MissSeconds.Observe(time.Since(start).Seconds())
	}
}
