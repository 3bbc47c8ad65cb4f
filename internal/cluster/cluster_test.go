package cluster

// Coordinator integration tests over in-process workers. The two
// acceptance lenses live here: the 200-program corpus must come back
// byte-identical routed across a 3-node fleet vs a single direct worker,
// and a repeat-heavy mix must keep the fleet's memo hit ratio within 10%
// of a single node's even across a node join (the ring moves only the
// joining node's arcs, so warm caches stay warm). The lifecycle tests use
// stub workers whose failure behavior is scripted.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tangled/internal/client"
	"tangled/internal/farm"
	"tangled/internal/farm/farmtest"
	"tangled/internal/obs"
	"tangled/internal/qasm"
	"tangled/internal/server"
)

func startWorker(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := srv.StartLocal()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, base
}

// runDirect is the in-process reference of the cluster differential: each
// corpus program executed functionally by a farm engine, with no serving
// layer in between.
func runDirect(t *testing.T, srcs []string) []farm.Result {
	t.Helper()
	jobs := make([]farm.Job, len(srcs))
	for i, src := range srcs {
		jobs[i] = farm.Job{Src: src, Mode: farm.Functional, Ways: farmtest.Ways, MaxSteps: qasm.MaxSteps}
	}
	results, _ := farm.New(0).Run(context.Background(), jobs)
	for i := range results {
		if err := results[i].Err; err != nil {
			t.Fatalf("direct run of program %d: %v", i, err)
		}
	}
	return results
}

func startCoordinator(t *testing.T, cfg Config) (*Coordinator, string) {
	t.Helper()
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := co.StartLocal()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	return co, base
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestClusterDifferentialCorpus is the serving-equivalence acceptance: the
// full shared corpus routed across three workers — as one batch and as
// individual runs — must match direct in-process execution, and the
// routed response bodies must equal a single direct worker's byte for
// byte.
func TestClusterDifferentialCorpus(t *testing.T) {
	srcs := make([]string, farmtest.Programs)
	for i := range srcs {
		srcs[i] = farmtest.Generate(farmtest.Seed(i))
	}
	direct := runDirect(t, srcs)

	var urls []string
	for i := 0; i < 3; i++ {
		_, base := startWorker(t, server.Config{Workers: 2, BatchMax: 16})
		urls = append(urls, base)
	}
	co, base := startCoordinator(t, Config{Nodes: urls})
	cl := client.NewWith(client.Config{BaseURL: base, MaxRetries: -1})
	_, solo := startWorker(t, server.Config{Workers: 2, BatchMax: 16})

	req := server.BatchRequest{ID: "cluster-diff", Programs: make([]server.RunRequest, len(srcs))}
	for i, src := range srcs {
		req.Programs[i] = server.RunRequest{Src: src, Ways: farmtest.Ways}
	}
	// The batch's NDJSON stream, routed and direct, byte for byte. This
	// first pass also leaves every program in both sides' memos, so the
	// single runs below answer cached:true on both.
	body, _ := json.Marshal(req)
	rcode, rbody := postRaw(t, base+"/v1/batch", body)
	dcode, dbody := postRaw(t, solo+"/v1/batch", body)
	if rcode != http.StatusOK || rcode != dcode || !bytes.Equal(rbody, dbody) {
		t.Fatalf("batch stream: routed %d with %d bytes, direct %d with %d bytes", rcode, len(rbody), dcode, len(dbody))
	}

	results, err := cl.Batch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(srcs) {
		t.Fatalf("got %d results, want %d", len(results), len(srcs))
	}
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("result %d arrived at position %d: merge order broken", r.Index, i)
		}
		if r.Error != "" {
			t.Fatalf("program %d failed through the cluster: %s\n%s", i, r.Error, srcs[i])
		}
		d := direct[i]
		if r.Regs != d.Regs || r.Output != d.Output || r.Insts != d.Insts {
			t.Fatalf("program %d diverged through the cluster:\nrouted: regs=%v output=%q insts=%d\ndirect: regs=%v output=%q insts=%d\n%s",
				i, r.Regs, r.Output, r.Insts, d.Regs, d.Output, d.Insts, srcs[i])
		}
	}
	// Consistent hashing over 200 distinct keys must have spread the batch.
	for _, n := range co.order {
		if n.routed.Load() == 0 {
			t.Fatalf("node %s routed nothing out of %d programs: ring is not spreading", n.id, len(srcs))
		}
	}

	// A sample of individual runs takes the /v1/run failover path.
	for i := 0; i < 10; i++ {
		body, _ := json.Marshal(server.RunRequest{ID: fmt.Sprintf("single-%d", i), Src: srcs[i], Ways: farmtest.Ways})
		rcode, rbody := postRaw(t, base+"/v1/run", body)
		dcode, dbody := postRaw(t, solo+"/v1/run", body)
		if rcode != http.StatusOK || rcode != dcode || !bytes.Equal(rbody, dbody) {
			t.Fatalf("single run %d: routed %d %s, direct %d %s", i, rcode, rbody, dcode, dbody)
		}
		var r server.RunResult
		if err := json.Unmarshal(rbody, &r); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		d := direct[i]
		if r.Regs != d.Regs || r.Output != d.Output || r.Insts != d.Insts {
			t.Fatalf("single run %d diverged through the cluster", i)
		}
	}
}

// TestMemoHotRouting is the cache-locality acceptance: a repeat-heavy mix
// keyed onto the ring keeps the fleet-wide memo hit ratio within 10% of a
// single node's, even when a node joins mid-mix (only the joining node's
// arcs go cold).
func TestMemoHotRouting(t *testing.T) {
	const distinct, reps = 20, 10
	progs := make([]string, distinct)
	for i := range progs {
		progs[i] = farmtest.Generate(farmtest.Seed(1000 + i))
	}
	runMix := func(cl *client.Client, repFrom, repTo int) {
		t.Helper()
		for rep := repFrom; rep < repTo; rep++ {
			for _, src := range progs {
				if _, err := cl.Run(context.Background(), server.RunRequest{Src: src, Ways: farmtest.Ways}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	ratioOf := func(regs ...*obs.Registry) float64 {
		var hits, misses uint64
		for _, r := range regs {
			snap := r.Snapshot()
			hits += snap["memo_hits_total"].(uint64)
			misses += snap["memo_misses_total"].(uint64)
		}
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}

	// Baseline: the whole mix against one direct worker.
	soloReg := obs.NewRegistry()
	_, soloBase := startWorker(t, server.Config{Workers: 2, Registry: soloReg})
	runMix(client.NewWith(client.Config{BaseURL: soloBase, MaxRetries: -1}), 0, reps)
	baseline := ratioOf(soloReg)

	// Fleet: three live workers plus one configured-but-down slot. The
	// coordinator starts optimistic, so wait for the heartbeat to evict the
	// empty slot before measuring.
	var regs []*obs.Registry
	var urls []string
	for i := 0; i < 3; i++ {
		reg := obs.NewRegistry()
		_, base := startWorker(t, server.Config{Workers: 2, Registry: reg})
		regs = append(regs, reg)
		urls = append(urls, base)
	}
	spare, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	spareAddr := spare.Addr().String()
	spare.Close()
	urls = append(urls, "http://"+spareAddr)

	co, base := startCoordinator(t, Config{Nodes: urls, HeartbeatInterval: 20 * time.Millisecond, FailAfter: 2})
	waitFor(t, "empty slot eviction", func() bool { return co.clusterHealth().NodesHealthy == 3 })
	cl := client.NewWith(client.Config{BaseURL: base, MaxRetries: -1})

	runMix(cl, 0, reps/2)

	// Join: bring the fourth worker up on its reserved address; the
	// heartbeat readmits it and its arcs move over.
	reg4 := obs.NewRegistry()
	srv4, err := server.New(server.Config{Workers: 2, Registry: reg4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv4.Start(spareAddr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv4.Close() })
	regs = append(regs, reg4)
	waitFor(t, "node join", func() bool { return co.clusterHealth().NodesHealthy == 4 })

	runMix(cl, reps/2, reps)

	fleet := ratioOf(regs...)
	t.Logf("memo hit ratio: single-node %.3f, 3→4-node fleet %.3f", baseline, fleet)
	if fleet < baseline*0.9 {
		t.Fatalf("fleet memo hit ratio %.3f fell more than 10%% below single-node %.3f: hot routing is not keeping caches warm",
			fleet, baseline)
	}
}

// ---- scripted stub workers for lifecycle tests ----

type stubWorker struct {
	srv   *httptest.Server
	runs  atomic.Int64
	onRun atomic.Value // func(http.ResponseWriter, *http.Request)
}

func newStubWorker(t *testing.T) *stubWorker {
	t.Helper()
	s := &stubWorker{}
	s.onRun.Store(func(w http.ResponseWriter, r *http.Request) {
		var req server.RunRequest
		json.NewDecoder(r.Body).Decode(&req)
		stubJSON(w, http.StatusOK, server.RunResult{ID: req.ID, Insts: 7})
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		stubJSON(w, http.StatusOK, server.Health{Status: "ok", Workers: 1})
	})
	mux.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) {
		s.runs.Add(1)
		s.onRun.Load().(func(http.ResponseWriter, *http.Request))(w, r)
	})
	s.srv = httptest.NewServer(mux)
	t.Cleanup(s.srv.Close)
	return s
}

func (s *stubWorker) id() string { return strings.TrimPrefix(s.srv.URL, "http://") }

func stubJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// keyedReqOwnedBy crafts a run request whose ring owner is the wanted node.
func keyedReqOwnedBy(t *testing.T, co *Coordinator, owner string) server.RunRequest {
	t.Helper()
	for i := 0; i < 4096; i++ {
		req := server.RunRequest{Src: fmt.Sprintf("lex $1,%d\nlex $2,%d\n", i%128, i/128), Ways: 2}
		key, keyed := RouteKey(&req)
		if !keyed {
			t.Fatal("probe request failed to key")
		}
		if got, _ := co.ring.Lookup(key); got == owner {
			return req
		}
	}
	t.Fatalf("no probe request hashed to node %s", owner)
	return server.RunRequest{}
}

// TestBackpressureDemotion covers admission-feedback routing: a worker 429
// opens a demotion window sized by its Retry-After hint (capped), traffic
// skips the node for the window without dropping its ring arcs, and a
// fully backpressured fleet surfaces an aggregate 429 with the smallest
// remaining window.
func TestBackpressureDemotion(t *testing.T) {
	a, b := newStubWorker(t), newStubWorker(t)
	co, err := New(Config{Nodes: []string{a.srv.URL, b.srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(co.Handler())
	t.Cleanup(front.Close)
	cl := client.NewWith(client.Config{BaseURL: front.URL, MaxRetries: -1})

	req := keyedReqOwnedBy(t, co, a.id())
	busy := func(w http.ResponseWriter, r *http.Request) {
		stubJSON(w, http.StatusTooManyRequests, server.ErrorResponse{Error: "queue full", RetryAfterMs: 60_000})
	}
	a.onRun.Store(busy)

	// Owner 429s → demoted, request fails over to b and succeeds.
	if _, err := cl.Run(context.Background(), req); err != nil {
		t.Fatalf("failover run: %v", err)
	}
	if a.runs.Load() != 1 || b.runs.Load() != 1 {
		t.Fatalf("runs a=%d b=%d, want 1 and 1 (one refusal, one failover)", a.runs.Load(), b.runs.Load())
	}
	nodeA := co.nodes[a.id()]
	now := time.Now()
	if !nodeA.demoted(now) {
		t.Fatal("429 did not open a demotion window")
	}
	if win := time.Duration(nodeA.demotedUntil.Load() - now.UnixNano()); win > demoteMax {
		t.Fatalf("demotion window %v exceeds the %v cap", win, demoteMax)
	}
	if !co.ring.Contains(a.id()) {
		t.Fatal("demotion must not drop ring membership (backpressure is transient, locality is not)")
	}
	if st := nodeA.row(now).State; st != "demoted" {
		t.Fatalf("health row state %q, want demoted", st)
	}

	// While demoted the owner is skipped outright.
	if _, err := cl.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if a.runs.Load() != 1 {
		t.Fatalf("demoted node was routed to again (runs=%d)", a.runs.Load())
	}

	// Demote b too: no candidate remains → aggregate 429 with a hint.
	b.onRun.Store(busy)
	_, err = cl.Run(context.Background(), req)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("fully backpressured fleet returned %v, want aggregate 429", err)
	}
	if apiErr.Resp.RetryAfterMs <= 0 {
		t.Fatal("aggregate 429 carries no retry hint")
	}
}

// TestDrainSteering503 covers the node-leave protocol on the forward path:
// a worker answering 503 (its own graceful drain) is marked draining, its
// arcs reassign immediately, and the in-flight request fails over.
func TestDrainSteering503(t *testing.T) {
	a, b := newStubWorker(t), newStubWorker(t)
	co, err := New(Config{Nodes: []string{a.srv.URL, b.srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(co.Handler())
	t.Cleanup(front.Close)
	cl := client.NewWith(client.Config{BaseURL: front.URL, MaxRetries: -1})

	req := keyedReqOwnedBy(t, co, a.id())
	a.onRun.Store(func(w http.ResponseWriter, r *http.Request) {
		stubJSON(w, http.StatusServiceUnavailable, server.ErrorResponse{Error: "server is draining", RetryAfterMs: 1000})
	})
	if _, err := cl.Run(context.Background(), req); err != nil {
		t.Fatalf("failover run: %v", err)
	}
	if co.nodes[a.id()].getState() != nodeDraining {
		t.Fatal("503 on the forward path did not mark the node draining")
	}
	if co.ring.Contains(a.id()) {
		t.Fatal("draining node kept its ring arcs")
	}
	if _, err := cl.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if a.runs.Load() != 1 {
		t.Fatalf("draining node was routed to again (runs=%d)", a.runs.Load())
	}
}

// TestHeartbeatEvictionAndRejoin runs the probe state machine against a
// worker that dies (listener gone) and later comes back on the same
// address: FailAfter consecutive missed beats evict it, a successful probe
// readmits it.
func TestHeartbeatEvictionAndRejoin(t *testing.T) {
	stay := newStubWorker(t)

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		stubJSON(w, http.StatusOK, server.Health{Status: "ok", Workers: 1})
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	hs := &http.Server{Handler: mux}
	go hs.Serve(ln)

	co, _ := startCoordinator(t, Config{
		Nodes:             []string{stay.srv.URL, "http://" + addr},
		HeartbeatInterval: 20 * time.Millisecond,
		FailAfter:         2,
		Registry:          obs.NewRegistry(),
	})
	flaky := co.nodes[addr]
	waitFor(t, "initial health", func() bool { return co.clusterHealth().NodesHealthy == 2 })

	hs.Close()
	waitFor(t, "eviction", func() bool { return flaky.getState() == nodeDead })
	if co.ring.Contains(addr) {
		t.Fatal("dead node kept its ring arcs")
	}
	if co.clusterHealth().NodesHealthy != 1 {
		t.Fatalf("healthz aggregation did not converge after eviction")
	}

	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	hs2 := &http.Server{Handler: mux}
	go hs2.Serve(ln2)
	t.Cleanup(func() { hs2.Close() })

	waitFor(t, "rejoin", func() bool { return flaky.getState() == nodeHealthy })
	if !co.ring.Contains(addr) {
		t.Fatal("rejoined node did not get its ring arcs back")
	}
	if got := co.obs.rejoins.Value(); got == 0 {
		t.Fatal("rejoin not counted")
	}
}

// TestWorkerDrainMidLoad is the in-process version of the CI smoke: two
// real workers under continuous mixed load through the coordinator, one
// drained mid-stream. With client retries disabled, zero failures proves
// the router's own failover absorbs the leave.
func TestWorkerDrainMidLoad(t *testing.T) {
	w1, base1 := startWorker(t, server.Config{Workers: 2})
	_, base2 := startWorker(t, server.Config{Workers: 2})
	_, base := startCoordinator(t, Config{
		Nodes:             []string{base1, base2},
		HeartbeatInterval: 25 * time.Millisecond,
	})

	progs := make([]string, 5)
	for i := range progs {
		progs[i] = farmtest.Generate(farmtest.Seed(2000 + i))
	}
	const loaders, perLoader = 4, 25
	var done atomic.Int64
	var errMu sync.Mutex
	var errs []error
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		// Let some load land first, then gracefully drain worker 1.
		for done.Load() < 20 {
			time.Sleep(time.Millisecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		w1.Drain(ctx)
	}()
	var wg sync.WaitGroup
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			cl := client.NewWith(client.Config{BaseURL: base, MaxRetries: -1})
			for i := 0; i < perLoader; i++ {
				_, err := cl.Run(context.Background(), server.RunRequest{Src: progs[(l+i)%len(progs)], Ways: farmtest.Ways})
				if err != nil {
					errMu.Lock()
					errs = append(errs, err)
					errMu.Unlock()
				}
				done.Add(1)
			}
		}(l)
	}
	wg.Wait()
	<-drained
	if len(errs) != 0 {
		t.Fatalf("%d of %d requests failed across a graceful worker drain (first: %v)",
			len(errs), loaders*perLoader, errs[0])
	}
}

// TestAggregation exercises the fleet-facing read endpoints through the
// client superset decoders.
func TestAggregation(t *testing.T) {
	_, base1 := startWorker(t, server.Config{Workers: 2})
	_, base2 := startWorker(t, server.Config{Workers: 3})
	_, base := startCoordinator(t, Config{
		Nodes:             []string{base1, base2},
		HeartbeatInterval: 20 * time.Millisecond,
	})
	cl := client.NewWith(client.Config{BaseURL: base, MaxRetries: -1})

	waitFor(t, "health aggregation", func() bool {
		h, err := cl.ClusterHealth(context.Background())
		return err == nil && h.NodesHealthy == 2 && h.Workers == 5
	})
	h, err := cl.ClusterHealth(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Nodes) != 2 || h.Status != "ok" {
		t.Fatalf("cluster health %+v, want 2 node rows and status ok", h)
	}
	for _, row := range h.Nodes {
		if row.State != "healthy" || row.Workers == 0 {
			t.Fatalf("node row %+v, want healthy with probed worker count", row)
		}
	}

	bi, err := cl.ClusterBuildInfo(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if bi.Workers != 5 {
		t.Fatalf("aggregate workers %d, want 5", bi.Workers)
	}
	if len(bi.Nodes) != 2 || bi.Nodes[0].Err != "" || bi.Nodes[1].Err != "" {
		t.Fatalf("build info rows %+v, want 2 reachable", bi.Nodes)
	}
	hasCluster := false
	for _, c := range bi.Capabilities {
		if c == "cluster" {
			hasCluster = true
		}
	}
	if !hasCluster {
		t.Fatalf("capabilities %v missing \"cluster\"", bi.Capabilities)
	}
	if bi.MaxWays == 0 || len(bi.Backends) == 0 {
		t.Fatalf("fleet ceilings not aggregated: %+v", bi)
	}
}

// TestRouteKeyStability pins the routing key's contract: deterministic,
// config-sensitive, and source/words-equivalent — the properties that make
// memo-hot routing work.
func TestRouteKeyStability(t *testing.T) {
	base := server.RunRequest{Src: "lex $1,7\nlex $2,9\n", Ways: 2}
	k1, ok1 := RouteKey(&base)
	again := base
	k2, ok2 := RouteKey(&again)
	if !ok1 || !ok2 || k1 != k2 {
		t.Fatalf("identical requests keyed differently: %x/%v vs %x/%v", k1, ok1, k2, ok2)
	}

	other := server.RunRequest{Src: "lex $1,8\nlex $2,9\n", Ways: 2}
	if k3, _ := RouteKey(&other); k3 == k1 {
		t.Fatal("different programs share a key")
	}
	wider := base
	wider.Ways = 3
	if k4, _ := RouteKey(&wider); k4 == k1 {
		t.Fatal("different configs share a key")
	}
	auto := base
	auto.Backend = "auto"
	if k5, _ := RouteKey(&auto); k5 == k1 {
		t.Fatal("auto-backend requests must key separately from dense ones")
	}
	piped := base
	piped.Mode = "pipelined"
	if k6, ok := RouteKey(&piped); !ok || k6 == k1 {
		t.Fatal("pipelined requests must key separately from scalar ones")
	}

	// The router does not assemble: a bad source is keyed like any other,
	// and its owning worker reports the diagnostics.
	bad := server.RunRequest{Src: "bogus $9\n", Ways: 2}
	if kb, ok := RouteKey(&bad); !ok || kb == k1 {
		t.Fatalf("unassemblable source keyed %x/%v, want a key of its own", kb, ok)
	}
	withID := base
	withID.ID = "retry-7"
	if k7, _ := RouteKey(&withID); k7 != k1 {
		t.Fatal("the request ID must not move the key")
	}
	empty := server.RunRequest{}
	if _, ok := RouteKey(&empty); ok {
		t.Fatal("invalid request must fall back to unkeyed routing")
	}
}

// TestRouteKeyPinned pins the routing key's bytes for fixed requests of
// each kind: a change to the key encoding moves every warm memo entry to a
// different node, so it must be deliberate (and bump routeSchema).
func TestRouteKeyPinned(t *testing.T) {
	src := "lex $1,7\nlex $2,9\nsys\n"
	for _, c := range []struct {
		name string
		req  server.RunRequest
		want uint64
	}{
		{"dense", server.RunRequest{Src: src}, 0x3efb309c140b0f5a},
		{"dense-words", server.RunRequest{Words: []uint16{0x1234, 0xabcd}, Ways: 8, ConstRegs: true}, 0xfeeea0d582529612},
		{"re", server.RunRequest{Src: src, Backend: "re", Ways: 20}, 0x25322511ce56816a},
		{"re-narrow", server.RunRequest{Src: src, Backend: "re", Ways: 6, MaxSteps: 1000}, 0x717c0ee2eeeecb3c},
		{"auto", server.RunRequest{Src: src, Backend: "auto", Ways: 20}, 0xd43d78df01ec3237},
		{"pipelined", server.RunRequest{Src: src, Mode: "pipelined", Stages: 4, Ways: 8}, 0x68c25ea7f0adec5a},
	} {
		got, ok := RouteKey(&c.req)
		if !ok || got != c.want {
			t.Errorf("%s: RouteKey = %#x/%v, want %#x", c.name, got, ok, c.want)
		}
	}
}

// TestRouteKeyAllocs gates the routing key's cost: it hashes the request
// as submitted, without assembling it.
func TestRouteKeyAllocs(t *testing.T) {
	req := server.RunRequest{Src: farmtest.Generate(farmtest.Seed(0)), Ways: farmtest.Ways, Backend: "auto"}
	allocs := testing.AllocsPerRun(50, func() {
		if _, ok := RouteKey(&req); !ok {
			t.Fatal("corpus program failed to key")
		}
	})
	if allocs > 4 {
		t.Fatalf("RouteKey allocates %.0f times per call, budget 4", allocs)
	}
}

// TestCoordinatorBodyRulesMatchWorker: to a client the coordinator is a
// qatserver, so a body a worker refuses — a valid request followed by a
// second JSON value, more bytes than server.MaxBodyBytes, or a program
// carrying RE geometry fields the wire does not have — gets the same
// status and the same error body from the coordinator, on every POST
// endpoint.
func TestCoordinatorBodyRulesMatchWorker(t *testing.T) {
	_, worker := startWorker(t, server.Config{Workers: 1})
	_, coord := startCoordinator(t, Config{Nodes: []string{worker}})
	run := `{"src":"lex $0,0\nsys\n"}`
	valid := map[string]string{"/v1/run": run, "/v1/batch": `{"programs":[` + run + `]}`, "/v1/assemble": run}
	post := func(url, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}
	for path, body := range valid {
		for what, bad := range map[string]string{
			"trailing data": body + ` {}`,
			"oversize":      body[:len(body)-1] + `,"id":"` + strings.Repeat("x", server.MaxBodyBytes) + `"}`,
			"re geometry":   strings.Replace(body, run, run[:len(run)-1]+`,"backend":"re","chunk_ways":4,"spill_runs":1}`, 1),
		} {
			wantCode, wantBody := post(worker+path, bad)
			gotCode, gotBody := post(coord+path, bad)
			if gotCode != wantCode || gotBody != wantBody {
				t.Errorf("%s %s: coordinator %d %q, worker %d %q", path, what, gotCode, gotBody, wantCode, wantBody)
			}
			if gotCode < 400 {
				t.Errorf("%s %s: coordinator answered %d, want a refusal", path, what, gotCode)
			}
		}
	}
}

// TestCoordinatorMethodRulesMatchWorker: a GET on a POST endpoint gets the
// same 405, Allow header and error body from the coordinator as from a
// worker.
func TestCoordinatorMethodRulesMatchWorker(t *testing.T) {
	_, worker := startWorker(t, server.Config{Workers: 1})
	_, coord := startCoordinator(t, Config{Nodes: []string{worker}})
	get := func(url string) string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d Allow=%q %s", resp.StatusCode, resp.Header.Get("Allow"), b)
	}
	for _, path := range []string{"/v1/run", "/v1/batch", "/v1/assemble"} {
		if got, want := get(coord+path), get(worker+path); got != want {
			t.Errorf("GET %s: coordinator %s, worker %s", path, got, want)
		}
	}
}

// TestCoordinatorRelaysRunFailureRecord: a run cut off by its timeout gets
// the same 504 from the coordinator as from a worker — status,
// X-Request-ID, and the failure record's id, code and backend (its insts
// count varies with timing).
func TestCoordinatorRelaysRunFailureRecord(t *testing.T) {
	_, worker := startWorker(t, server.Config{Workers: 1})
	_, coord := startCoordinator(t, Config{Nodes: []string{worker}})
	body := `{"id":"spin","src":"lex $1,1\nL:\nbrt $1,L\n","timeout_ms":20}`
	type answer struct {
		status             int
		reqID, id, backend string
		code               int
	}
	run := func(base string) answer {
		t.Helper()
		resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rec server.RunResult
		if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
			t.Fatal(err)
		}
		return answer{resp.StatusCode, resp.Header.Get("X-Request-ID"), rec.ID, rec.Backend, rec.Code}
	}
	want := run(worker)
	if want.status != http.StatusGatewayTimeout {
		t.Fatalf("worker answered %+v, want a 504 failure record", want)
	}
	if got := run(coord); got != want {
		t.Fatalf("coordinator %+v, worker %+v", got, want)
	}
}

// postRaw posts body to url and returns the status and the body as
// received.
func postRaw(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestCoordinatorRelaysAssemblyErrors: a source that does not assemble is
// routed like any other, and the client gets the owning worker's 400 with
// the same line diagnostics a direct request gets — for a single run, whose
// body is the worker's byte for byte, and for a batch, where the refused
// program is named by its index in the client's batch. A source with 2000
// bad lines has a 400 body far past the client's 64 KiB read bound; it
// too reaches the caller whole.
func TestCoordinatorRelaysAssemblyErrors(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		_, base := startWorker(t, server.Config{Workers: 1})
		urls = append(urls, base)
	}
	_, coBase := startCoordinator(t, Config{Nodes: urls})

	refusal := func(what string, status int, body []byte) server.ErrorResponse {
		t.Helper()
		var resp server.ErrorResponse
		if err := json.Unmarshal(body, &resp); err != nil || status != http.StatusBadRequest || len(resp.Lines) == 0 {
			t.Fatalf("%s: %d %.200q (%v), want a 400 with line diagnostics", what, status, body, err)
		}
		return resp
	}
	same := func(what string, got, want server.ErrorResponse) {
		t.Helper()
		if fmt.Sprint(got.Lines) != fmt.Sprint(want.Lines) || got.Error != want.Error {
			t.Fatalf("%s: routed %q %v, direct %q %v", what, got.Error, got.Lines, want.Error, want.Lines)
		}
	}

	for _, tc := range []struct {
		src   string
		lines int // the diagnostics a refusal must carry; 0 = any
	}{
		{"lex $1,1\nadd $1,$\nbogus $9\n", 0},
		{strings.Repeat("bogus $9\n", 2000), 2000},
	} {
		bad := server.RunRequest{Src: tc.src, Ways: 2}
		run, _ := json.Marshal(bad)
		dcode, dbody := postRaw(t, urls[0]+"/v1/run", run)
		rcode, rbody := postRaw(t, coBase+"/v1/run", run)
		want := refusal("direct /v1/run", dcode, dbody)
		same("/v1/run", refusal("routed /v1/run", rcode, rbody), want)
		if rcode != dcode || !bytes.Equal(rbody, dbody) {
			t.Fatalf("/v1/run of %d bytes: coordinator %d with %d body bytes, worker %d with %d",
				len(tc.src), rcode, len(rbody), dcode, len(dbody))
		}
		if tc.lines > 0 && len(want.Lines) != tc.lines {
			t.Fatalf("worker reported %d lines, want %d", len(want.Lines), tc.lines)
		}

		// Good programs spread over both nodes around the bad one.
		var progs []server.RunRequest
		for i := 0; i < 12; i++ {
			progs = append(progs, server.RunRequest{Src: farmtest.Generate(farmtest.Seed(i)), Ways: farmtest.Ways})
		}
		progs = slices.Insert(progs, 7, bad)
		batch, _ := json.Marshal(server.BatchRequest{ID: "bad-batch", Programs: progs})
		dcode, dbody = postRaw(t, urls[0]+"/v1/batch", batch)
		rcode, rbody = postRaw(t, coBase+"/v1/batch", batch)
		got := refusal("routed /v1/batch", rcode, rbody)
		same("/v1/batch", got, refusal("direct /v1/batch", dcode, dbody))
		if !strings.HasPrefix(got.Error, "program 7:") {
			t.Fatalf("batch refusal %q does not name program 7", got.Error)
		}
		if tc.lines > 0 && len(got.Lines) != tc.lines {
			t.Fatalf("routed batch refusal carries %d lines, want %d", len(got.Lines), tc.lines)
		}
	}
}

// TestRelayedRefusalIsNotAFailover: a worker's 400 is the answer, not a
// node failure, so relaying it counts no failover
// (cluster_node_retried_total); a relayed /v1/assemble 200 counts as
// routed.
func TestRelayedRefusalIsNotAFailover(t *testing.T) {
	_, worker := startWorker(t, server.Config{Workers: 1})
	co, coBase := startCoordinator(t, Config{Nodes: []string{worker}, Registry: obs.NewRegistry()})
	if code, body := postRaw(t, coBase+"/v1/run", []byte(`{"src":"bogus $9\n"}`)); code != http.StatusBadRequest {
		t.Fatalf("bad program: %d %s, want 400", code, body)
	}
	if code, body := postRaw(t, coBase+"/v1/assemble", []byte(`{"src":"lex $0,0\nsys\n"}`)); code != http.StatusOK {
		t.Fatalf("assemble: %d %s, want 200", code, body)
	}
	if n := co.obs.nodeRetry.Total(); n != 0 {
		t.Fatalf("cluster_node_retried_total = %d after a relayed 400, want 0", n)
	}
	if n := co.obs.routed.Value(); n != 1 {
		t.Fatalf("cluster_routed_total = %d, want 1 (the assemble)", n)
	}
}

// TestBatchFailoverSplitsGroup: a sub-batch whose node fails (500) is
// regrouped onto each program's next ring successor, here two nodes at
// once, and every program still comes back. The regrouped sub-batches run
// concurrently, so under -race this also checks that they share no
// unguarded state.
func TestBatchFailoverSplitsGroup(t *testing.T) {
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			stubJSON(w, http.StatusOK, server.Health{Status: "ok", Workers: 1})
			return
		}
		stubJSON(w, http.StatusInternalServerError, server.ErrorResponse{Error: "worker fault"})
	}))
	t.Cleanup(failing.Close)
	_, b := startWorker(t, server.Config{Workers: 1})
	_, c := startWorker(t, server.Config{Workers: 1})
	co, base := startCoordinator(t, Config{Nodes: []string{failing.URL, b, c}, Registry: obs.NewRegistry()})
	owner := strings.TrimPrefix(failing.URL, "http://")

	// Programs the failing node owns, whose next successors cover both
	// other nodes.
	var progs []server.RunRequest
	next := map[string]bool{}
	for i := 0; len(progs) < 8 || len(next) < 2; i++ {
		if i == 4096 {
			t.Fatal("no programs owned by the failing node with both other nodes next")
		}
		req := server.RunRequest{Src: farmtest.Generate(farmtest.Seed(3000 + i)), Ways: farmtest.Ways}
		key, _ := RouteKey(&req)
		if succ := co.ring.Successors(key, 3); succ[0] == owner {
			progs = append(progs, req)
			next[succ[1]] = true
		}
	}
	cl := client.NewWith(client.Config{BaseURL: base, MaxRetries: -1})
	results, err := cl.Batch(context.Background(), server.BatchRequest{ID: "split", Programs: progs})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Error != "" {
			t.Fatalf("program %d: %s", i, r.Error)
		}
	}
	if n := co.obs.nodeRetry.With(owner).Value(); n != 1 {
		t.Fatalf("cluster_node_retried_total for the failing node = %d, want 1", n)
	}
}
