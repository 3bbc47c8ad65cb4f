package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tangled/internal/client"
	"tangled/internal/obs"
	"tangled/internal/server"
)

// Config parameterizes a Coordinator; the zero value plus Nodes is a
// sensible production router.
type Config struct {
	// Nodes are the worker base URLs (e.g. "http://10.0.0.1:8080").
	Nodes []string
	// Replicas is the virtual-node count per worker on the hash ring;
	// <=0 means DefaultReplicas.
	Replicas int
	// HeartbeatInterval paces health probing; <=0 means 500ms. Each probe
	// is bounded by the interval, so a hung worker costs one beat, not a
	// stalled loop.
	HeartbeatInterval time.Duration
	// FailAfter is how many consecutive missed beats evict a node;
	// <=0 means 3.
	FailAfter int
	// Registry receives the cluster_* metric family; nil disables it.
	Registry *obs.Registry
}

// Coordinator fronts a fleet of qatserver workers, routing /v1/run and
// /v1/batch by memo key and aggregating /v1/healthz and /v1/buildinfo.
type Coordinator struct {
	cfg   Config
	ring  *Ring
	nodes map[string]*node
	order []*node // registration order, for stable iteration
	mux   *http.ServeMux
	obs   *clusterObs

	// stateMu serializes node state transitions against ring membership,
	// so a probe and a run-path 503 can't interleave a remove/add pair.
	stateMu sync.Mutex

	draining atomic.Bool
	started  atomic.Bool
	inFlight atomic.Int64
	rr       atomic.Uint64 // rotates least-in-flight ties

	ln      net.Listener
	httpSrv *http.Server
	serveWG sync.WaitGroup
	hbStop  chan struct{}
	hbDone  chan struct{}
}

// New builds a coordinator over cfg.Nodes; every node starts healthy and
// on the ring (the first heartbeat sweep corrects optimism, and the
// forward path fails over meanwhile).
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: no worker nodes configured")
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 500 * time.Millisecond
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 3
	}
	co := &Coordinator{
		cfg:    cfg,
		ring:   NewRing(cfg.Replicas),
		nodes:  make(map[string]*node),
		obs:    newClusterObs(cfg.Registry),
		hbStop: make(chan struct{}),
		hbDone: make(chan struct{}),
	}
	for _, raw := range cfg.Nodes {
		n := newNode(raw)
		if _, dup := co.nodes[n.id]; dup {
			return nil, fmt.Errorf("cluster: node %q configured twice", n.id)
		}
		co.nodes[n.id] = n
		co.order = append(co.order, n)
		co.ring.Add(n.id)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", co.methodOnly(http.MethodPost, co.handleRun))
	mux.HandleFunc("/v1/batch", co.methodOnly(http.MethodPost, co.handleBatch))
	mux.HandleFunc("/v1/assemble", co.methodOnly(http.MethodPost, co.handleAssemble))
	mux.HandleFunc("/v1/healthz", co.methodOnly(http.MethodGet, co.handleHealthz))
	mux.HandleFunc("/v1/buildinfo", co.methodOnly(http.MethodGet, co.handleBuildinfo))
	if cfg.Registry != nil {
		mux.Handle("/metrics", obs.Handler(cfg.Registry))
		mux.Handle("/debug/", obs.Handler(cfg.Registry))
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		co.writeError(w, http.StatusNotFound, server.ErrorResponse{
			Error: "no such route (the coordinator serves /v1/run, /v1/batch, /v1/assemble, /v1/healthz, /v1/buildinfo; async jobs are per-node)"})
	})
	co.mux = mux
	return co, nil
}

// Handler exposes the coordinator's mux (tests mount it directly).
func (co *Coordinator) Handler() http.Handler { return co.mux }

// Start listens on addr, serves in a background goroutine, and starts the
// heartbeat loop, returning the bound address (pass "127.0.0.1:0" to let
// the OS pick).
func (co *Coordinator) Start(addr string) (net.Addr, error) {
	if !co.started.CompareAndSwap(false, true) {
		return nil, errors.New("cluster: already started")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	co.ln = ln
	co.httpSrv = &http.Server{Handler: co.mux}
	co.serveWG.Add(1)
	go func() {
		defer co.serveWG.Done()
		co.httpSrv.Serve(ln)
	}()
	go co.heartbeatLoop()
	return ln.Addr(), nil
}

// StartLocal is Start("127.0.0.1:0") returning the base URL.
func (co *Coordinator) StartLocal() (string, error) {
	addr, err := co.Start("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	return "http://" + addr.String(), nil
}

// Drain gracefully stops the coordinator: new work is refused with 503,
// in-flight forwards finish, the heartbeat stops, and the listener closes.
// ctx bounds the wait. The workers themselves are not touched — they have
// their own drain protocol.
func (co *Coordinator) Drain(ctx context.Context) error {
	co.draining.Store(true)
	co.stopHeartbeat()
	var err error
	if co.httpSrv != nil {
		err = co.httpSrv.Shutdown(ctx)
		if err != nil {
			co.httpSrv.Close()
		}
		co.serveWG.Wait()
	}
	return err
}

// Close shuts down immediately without waiting for in-flight forwards.
func (co *Coordinator) Close() error {
	co.draining.Store(true)
	co.stopHeartbeat()
	if co.httpSrv != nil {
		co.httpSrv.Close()
		co.serveWG.Wait()
	}
	return nil
}

func (co *Coordinator) stopHeartbeat() {
	select {
	case <-co.hbStop:
	default:
		close(co.hbStop)
	}
	if co.started.Load() {
		<-co.hbDone
	}
}

// ---- heartbeat ----

func (co *Coordinator) heartbeatLoop() {
	defer close(co.hbDone)
	t := time.NewTicker(co.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-co.hbStop:
			return
		case <-t.C:
			co.probeAll()
		}
	}
}

// probeAll sweeps every node in parallel; one beat costs at most one
// interval regardless of how many nodes hang.
func (co *Coordinator) probeAll() {
	var wg sync.WaitGroup
	for _, n := range co.order {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			co.probeNode(n)
		}(n)
	}
	wg.Wait()
	co.obs.observe(co.order)
}

func (co *Coordinator) probeNode(n *node) {
	co.obs.probes.Inc()
	ctx, cancel := context.WithTimeout(context.Background(), co.cfg.HeartbeatInterval)
	defer cancel()
	h, err := n.probe.ClusterHealth(ctx)
	if err == nil {
		n.setLastHealth(h.Health)
		co.markHealthy(n)
		return
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) && apiErr.Status == http.StatusServiceUnavailable {
		// The node answered: it is alive but leaving (graceful drain).
		co.markDraining(n)
		return
	}
	co.obs.probeFails.Inc()
	co.markMissed(n)
}

// markHealthy records a successful probe: missed beats reset, and a
// draining or dead node re-enters the ring (rejoin).
func (co *Coordinator) markHealthy(n *node) {
	co.stateMu.Lock()
	defer co.stateMu.Unlock()
	n.missed.Store(0)
	was := n.getState()
	if was == nodeHealthy {
		return
	}
	n.state.Store(int32(nodeHealthy))
	co.ring.Add(n.id)
	if was == nodeDead {
		co.obs.rejoins.Inc()
	}
}

// markDraining steers traffic away and reassigns the node's hash arcs to
// its ring successors — the node-leave protocol, triggered by the worker's
// own SIGTERM drain while its listener still answers.
func (co *Coordinator) markDraining(n *node) {
	co.stateMu.Lock()
	defer co.stateMu.Unlock()
	n.missed.Store(0)
	if n.getState() == nodeDraining {
		return
	}
	n.state.Store(int32(nodeDraining))
	co.ring.Remove(n.id)
}

// markMissed counts a failed probe; FailAfter consecutive misses evict.
func (co *Coordinator) markMissed(n *node) {
	co.stateMu.Lock()
	defer co.stateMu.Unlock()
	missed := n.missed.Add(1)
	if int(missed) < co.cfg.FailAfter || n.getState() == nodeDead {
		return
	}
	n.state.Store(int32(nodeDead))
	co.ring.Remove(n.id)
	co.obs.evictions.Inc()
}

// ---- routing ----

// candidates returns the failover-ordered eligible nodes for one request:
// ring-successor order for keyed requests (cache locality first),
// least-in-flight with rotating ties for unkeyed ones.
func (co *Coordinator) candidates(key uint64, keyed bool) []*node {
	now := time.Now()
	if keyed {
		var out []*node
		for _, id := range co.ring.Successors(key, len(co.nodes)) {
			if n := co.nodes[id]; n != nil && n.eligible(now) {
				out = append(out, n)
			}
		}
		if len(out) > 0 {
			return out
		}
		// Every ring member is demoted or the ring is empty: fall through
		// to the unkeyed walk so a fully-backpressured ring still reports
		// the aggregate 429 instead of an empty candidate list.
	}
	var out []*node
	rot := int(co.rr.Add(1))
	for i := range co.order {
		n := co.order[(i+rot)%len(co.order)]
		if n.eligible(now) {
			out = append(out, n)
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		return out[a].inFlight.Load() < out[b].inFlight.Load()
	})
	return out
}

// refusal builds the response for a request no node can take: 429 with the
// smallest remaining demotion window when backpressure is the only reason,
// 503 otherwise.
func (co *Coordinator) refusal() (int, server.ErrorResponse) {
	co.obs.noNode.Inc()
	now := time.Now()
	minUntil := int64(0)
	for _, n := range co.order {
		if n.getState() != nodeHealthy {
			continue
		}
		if until := n.demotedUntil.Load(); until > now.UnixNano() && (minUntil == 0 || until < minUntil) {
			minUntil = until
		}
	}
	if minUntil > 0 {
		ms := (minUntil - now.UnixNano()) / int64(time.Millisecond)
		if ms < 1 {
			ms = 1
		}
		return http.StatusTooManyRequests, server.ErrorResponse{
			Error:        "every node is backpressured; retry after the hinted window",
			RetryAfterMs: ms,
		}
	}
	return http.StatusServiceUnavailable, server.ErrorResponse{
		Error: "no healthy worker node",
	}
}

// demoteDefault is the demotion window for a 429 without a Retry-After
// hint; demoteMax caps a hinted one.
const (
	demoteDefault = time.Second
	demoteMax     = 30 * time.Second
)

// send posts body to path on n and classifies the answer. A transport
// error fails over, leaving node state to the heartbeat; so do 429, which
// opens a demotion window sized by the worker's hint, 503, which marks the
// node draining, and 500/502, transient faults (execution is deterministic,
// so re-running elsewhere is safe). send returns nil for these, having
// closed the response, and otherwise the worker's authoritative answer. A
// non-empty id travels in the X-Request-ID header, which a worker uses when
// the body names none.
func (co *Coordinator) send(ctx context.Context, n *node, path string, body []byte, id string) *http.Response {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.url+path, bytes.NewReader(body))
	if err != nil {
		return nil
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := n.http.Do(req)
	if err != nil {
		return nil
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		var hint server.ErrorResponse
		json.NewDecoder(io.LimitReader(resp.Body, 64<<10)).Decode(&hint)
		d := demoteDefault
		if ms := hint.RetryAfterMs; ms > 0 {
			d = min(time.Duration(ms)*time.Millisecond, demoteMax)
		}
		n.demote(time.Now(), d)
		co.obs.demotions.Inc()
	case http.StatusServiceUnavailable:
		co.markDraining(n)
	case http.StatusInternalServerError, http.StatusBadGateway:
	default:
		return resp
	}
	// Drain (bounded) before Close so the connection stays in the pool.
	io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	resp.Body.Close()
	return nil
}

// ---- handlers ----

func (co *Coordinator) methodOnly(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			co.writeError(w, http.StatusMethodNotAllowed, server.ErrorResponse{
				Error: fmt.Sprintf("%s requires %s", r.URL.Path, method)})
			return
		}
		if co.draining.Load() {
			co.writeError(w, http.StatusServiceUnavailable, server.ErrorResponse{
				Error: "coordinator is draining", RetryAfterMs: 1000})
			return
		}
		co.inFlight.Add(1)
		defer co.inFlight.Add(-1)
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, server.MaxBodyBytes)
		}
		h(w, r)
	}
}

// decode reads r's body into v by the worker's rule (server.DecodeBody:
// 413 past the size limit, 400 on malformed or trailing data), writing the
// refusal on failure. It returns the bytes read, so a forward sends the
// worker exactly what the client sent.
func (co *Coordinator) decode(w http.ResponseWriter, r *http.Request, v interface{}) ([]byte, bool) {
	var buf bytes.Buffer
	if code, resp := server.DecodeBody(io.TeeReader(r.Body, &buf), v); resp != nil {
		co.writeError(w, code, *resp)
		return nil, false
	}
	return buf.Bytes(), true
}

func (co *Coordinator) handleRun(w http.ResponseWriter, r *http.Request) {
	var req server.RunRequest
	body, ok := co.decode(w, r, &req)
	if !ok {
		return
	}
	// Mint the request ID here, before the first forward, so a failover
	// carries the same ID. A node whose memo holds the program answers it
	// with cached:true; otherwise the retry re-executes deterministically.
	id := req.ID
	if id == "" {
		id = client.NewRequestID()
	}
	key, keyed := RouteKey(&req)
	if keyed {
		co.obs.keyed.Inc()
	} else {
		co.obs.unkeyed.Inc()
	}
	co.forward(w, r, "/v1/run", body, id, key, keyed)
}

func (co *Coordinator) handleAssemble(w http.ResponseWriter, r *http.Request) {
	if body, ok := co.decode(w, r, &server.AssembleRequest{}); ok {
		co.forward(w, r, "/v1/assemble", body, "", 0, false)
	}
}

// forward sends body, as the client sent it, to path on the best untried
// candidate (see candidates) until a worker answers authoritatively, and
// relays that answer whole. A non-empty id is set on the reply before the
// first forward, so the coordinator's own refusals carry it too.
func (co *Coordinator) forward(w http.ResponseWriter, r *http.Request, path string, body []byte, id string, key uint64, keyed bool) {
	if id != "" {
		w.Header().Set("X-Request-ID", id)
	}
	tried := make(map[*node]bool)
	for {
		n := co.nextCandidate(key, keyed, tried)
		if n == nil {
			status, resp := co.refusal()
			co.writeError(w, status, resp)
			return
		}
		tried[n] = true
		n.inFlight.Add(1)
		resp := co.send(r.Context(), n, path, body, id)
		n.inFlight.Add(-1)
		if resp != nil {
			// Relay the worker's answer as it sent it: status, Content-Type
			// and body. (Its X-Request-ID echoes the one set above.)
			defer resp.Body.Close()
			w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
			w.Header().Set("X-Cluster-Node", n.id)
			if resp.StatusCode < 300 {
				n.routed.Add(1)
				co.obs.routed.Inc()
				co.obs.nodeRouted.With(n.id).Inc()
			}
			w.WriteHeader(resp.StatusCode)
			io.Copy(w, resp.Body)
			return
		}
		if r.Context().Err() != nil {
			co.writeError(w, server.StatusClientClosedRequest, server.ErrorResponse{Error: "client disconnected"})
			return
		}
		co.obs.nodeRetry.With(n.id).Inc()
	}
}

// nextCandidate returns the best untried eligible node, nil when none.
func (co *Coordinator) nextCandidate(key uint64, keyed bool, tried map[*node]bool) *node {
	for _, n := range co.candidates(key, keyed) {
		if !tried[n] {
			return n
		}
	}
	return nil
}

func (co *Coordinator) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (co *Coordinator) writeError(w http.ResponseWriter, status int, resp server.ErrorResponse) {
	if resp.RetryAfterMs > 0 {
		secs := (resp.RetryAfterMs + 999) / 1000
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	co.writeJSON(w, status, resp)
}

// ---- aggregation ----

func (co *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	agg := co.clusterHealth()
	status := http.StatusOK
	if agg.Draining || agg.NodesHealthy == 0 {
		status = http.StatusServiceUnavailable
	}
	co.writeJSON(w, status, agg)
}

func (co *Coordinator) clusterHealth() server.ClusterHealth {
	now := time.Now()
	agg := server.ClusterHealth{}
	agg.Status = "ok"
	agg.Draining = co.draining.Load()
	if agg.Draining {
		agg.Status = "draining"
	}
	agg.InFlight = co.inFlight.Load()
	for _, n := range co.order {
		row := n.row(now)
		agg.Nodes = append(agg.Nodes, row)
		if n.getState() == nodeHealthy {
			if n.eligible(now) {
				agg.NodesHealthy++
			}
			h := n.health()
			agg.QueueDepth += h.QueueDepth
			agg.QueueLimit += h.QueueLimit
			agg.Workers += h.Workers
			agg.JobsDone += h.JobsDone
			agg.JobsQueued += h.JobsQueued
			agg.JobsRunning += h.JobsRunning
		}
	}
	if !agg.Draining && agg.NodesHealthy == 0 {
		agg.Status = "degraded"
	}
	return agg
}

func (co *Coordinator) handleBuildinfo(w http.ResponseWriter, r *http.Request) {
	type probeResult struct {
		n    *node
		info server.BuildInfo
		err  error
	}
	results := make([]probeResult, len(co.order))
	var wg sync.WaitGroup
	for i, n := range co.order {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			info, err := n.probe.ClusterBuildInfo(r.Context())
			results[i] = probeResult{n, info.BuildInfo, err}
		}(i, n)
	}
	wg.Wait()

	agg := server.ClusterBuildInfo{}
	agg.GoVersion = runtime.Version()
	agg.NumCPU = runtime.NumCPU()
	agg.ResultsSchema = server.ResultsSchema
	agg.ResultsVer = server.ResultsSchemaVersion
	var caps map[string]int
	reachable := 0
	for _, pr := range results {
		row := server.NodeBuildInfo{ID: pr.n.id, URL: pr.n.url}
		if pr.err != nil {
			row.Err = pr.err.Error()
			agg.Nodes = append(agg.Nodes, row)
			continue
		}
		row.Info = pr.info
		agg.Nodes = append(agg.Nodes, row)
		reachable++
		agg.Workers += pr.info.Workers
		// Conservative fleet ceilings: the minimum across reachable nodes
		// is what every routed request can rely on.
		if reachable == 1 || pr.info.MaxWays < agg.MaxWays {
			agg.MaxWays = pr.info.MaxWays
		}
		if reachable == 1 || pr.info.MaxREWays < agg.MaxREWays {
			agg.MaxREWays = pr.info.MaxREWays
		}
		if reachable == 1 || pr.info.MaxSteps < agg.MaxSteps {
			agg.MaxSteps = pr.info.MaxSteps
		}
		if caps == nil {
			caps = make(map[string]int)
		}
		for _, c := range pr.info.Capabilities {
			caps[c]++
		}
		if agg.Backends == nil {
			agg.Backends = pr.info.Backends
		} else {
			agg.Backends = intersect(agg.Backends, pr.info.Backends)
		}
	}
	for c, cnt := range caps {
		if cnt == reachable {
			agg.Capabilities = append(agg.Capabilities, c)
		}
	}
	agg.Capabilities = append(agg.Capabilities, "cluster")
	sort.Strings(agg.Capabilities)
	status := http.StatusOK
	if reachable == 0 {
		status = http.StatusServiceUnavailable
	}
	co.writeJSON(w, status, agg)
}

func intersect(a, b []string) []string {
	in := make(map[string]bool, len(b))
	for _, s := range b {
		in[s] = true
	}
	var out []string
	for _, s := range a {
		if in[s] {
			out = append(out, s)
		}
	}
	return out
}
