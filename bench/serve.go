package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"tangled/internal/asm"
	"tangled/internal/backend"
	"tangled/internal/client"
	"tangled/internal/cluster"
	"tangled/internal/farm"
	"tangled/internal/farm/farmtest"
	"tangled/internal/obs"
	"tangled/internal/qasm"
	"tangled/internal/qat"
	"tangled/internal/server"
)

const (
	// hotPrograms is serve-repeat's hot-set size; hotShare of its
	// programs come from the hot set, the rest are fresh.
	hotPrograms = 20
	hotShare    = 0.9
	// hotStrata is how many candidates serve-repeat generates per hot-set
	// program (see hotSet).
	hotStrata = 8
	// replayChecks is how many programs the replay check resubmits.
	replayChecks = 8
)

// serveWorkload drives the HTTP API with farmtest programs: serve-unique
// sends distinct programs (explicit dense) to one server; serve-repeat
// sends the hot/fresh mix (backend auto) to a coordinator over 2 workers.
type serveWorkload struct {
	seed   int64
	repeat bool
	hot    []string
}

func newServe(seed int64, repeat bool) (*serveWorkload, error) {
	w := &serveWorkload{seed: seed, repeat: repeat}
	if repeat {
		hot, err := hotSet(seed)
		if err != nil {
			return nil, err
		}
		w.hot = hot
	}
	return w, nil
}

// hotSet draws serve-repeat's hot set, stratified by program length: it
// generates hotPrograms*hotStrata candidates, sorts them by assembled word
// count and takes one seeded candidate from each run of hotStrata. A hit
// costs the server about in proportion to the program's length (assembly
// and the planner's passes run on every request), so with a plain draw of
// 20 programs the hot set's mean cost, and with it the latencies, moved
// with the seed (405 to 449 us over ten seeds). The candidates have IDs of
// their own, so no fresh program repeats one.
func hotSet(seed int64) ([]string, error) {
	type candidate struct {
		src   string
		words int
	}
	cs := make([]candidate, hotPrograms*hotStrata)
	for i := range cs {
		src := farmtest.Generate(int64(mix(seed, uint64(i)|1<<61)))
		p, err := asm.Assemble(src)
		if err != nil {
			return nil, fmt.Errorf("hot-set candidate %d: %w", i, err)
		}
		cs[i] = candidate{src, len(p.Words)}
	}
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].words < cs[j].words })
	hot := make([]string, hotPrograms)
	for s := range hot {
		hot[s] = cs[s*hotStrata+int(mix(seed, uint64(s)|1<<60)%hotStrata)].src
	}
	return hot, nil
}

// progID returns the program ID of slot j of operation k. serve-unique
// gives every slot its own program; serve-repeat draws from the hot set
// with probability hotShare and otherwise gives the slot a fresh program.
func (w *serveWorkload) progID(k, j int) int {
	slot := k*batchSize + j
	if !w.repeat {
		return slot
	}
	if h := mix(w.seed, uint64(slot)|1<<62); float64(h>>11)/(1<<53) < hotShare {
		return int(h % hotPrograms)
	}
	return hotPrograms + slot
}

// genSrc generates program id.
func (w *serveWorkload) genSrc(id int) string {
	return farmtest.Generate(int64(mix(w.seed, uint64(id))))
}

func (w *serveWorkload) backendName() string {
	if w.repeat {
		return backend.Auto
	}
	return qat.BackendDense
}

// layers times the hot set (serve-repeat) or the first 20 programs
// (serve-unique), run as the dense functional jobs the server makes of them.
func (w *serveWorkload) layers() layerInputs {
	srcs := w.hot
	if !w.repeat {
		for id := 0; id < hotPrograms; id++ {
			srcs = append(srcs, w.genSrc(id))
		}
	}
	cfg := qat.Config{Ways: farmtest.Ways}
	return layerInputs{srcs: srcs, cfg: cfg,
		job: func(p *asm.Program) farm.Job {
			return farm.Job{Prog: p, Ways: farmtest.Ways, Backend: qat.BackendDense, MaxSteps: qasm.MaxSteps}
		},
		machine: func() (func(*asm.Program) outcome, error) { return functionalMachine(cfg) }}
}

// serveSystem is one server, or a coordinator over two, on loopback.
type serveSystem struct {
	w       *serveWorkload
	servers []*server.Server
	nodeIDs []string         // node IDs as the coordinator names them
	direct  []*client.Client // one per server
	coord   *cluster.Coordinator
	entry   *client.Client // the users' entry point
	url     string         // its base URL
	ring    *cluster.Ring
	regs    []*obs.Registry

	// pool holds the fresh programs of operations [poolFirst,
	// poolFirst+poolOps), generated before a window; poolLocs has their
	// places, indexed by programIndex from poolFirst. Other programs are
	// generated on demand.
	pool               arena
	poolFirst, poolOps int
	poolLocs           []arenaLoc
}

// setup starts the servers (and coordinator) and returns once the entry
// point reports every node healthy.
func (w *serveWorkload) setup(traced bool) (system, error) {
	s := &serveSystem{w: w, ring: cluster.NewRing(0)}
	nodes := 1
	if w.repeat {
		nodes = 2
	}
	var urls []string
	for i := 0; i < nodes; i++ {
		var reg *obs.Registry
		if traced {
			reg = obs.NewRegistry()
			s.regs = append(s.regs, reg)
		}
		srv, err := server.New(server.Config{Registry: reg})
		if err != nil {
			s.close()
			return nil, err
		}
		s.servers = append(s.servers, srv)
		url, err := srv.StartLocal()
		if err != nil {
			s.close()
			return nil, err
		}
		urls = append(urls, url)
		id := url[len("http://"):]
		s.nodeIDs = append(s.nodeIDs, id)
		s.ring.Add(id)
		s.direct = append(s.direct, client.NewWith(client.Config{BaseURL: url, MaxRetries: -1}))
	}
	s.url = urls[0]
	if w.repeat {
		var reg *obs.Registry
		if traced {
			reg = obs.NewRegistry()
			s.regs = append(s.regs, reg)
		}
		co, err := cluster.New(cluster.Config{Nodes: urls, Registry: reg})
		if err != nil {
			s.close()
			return nil, err
		}
		s.coord = co
		if s.url, err = co.StartLocal(); err != nil {
			s.close()
			return nil, err
		}
	}
	s.entry = client.NewWith(client.Config{BaseURL: s.url, MaxRetries: -1})
	if err := s.waitReady(nodes); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// waitReady polls the entry point's healthz until it reports nodes healthy
// nodes (a plain server counts as one).
func (s *serveSystem) waitReady(nodes int) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		h, err := s.entry.ClusterHealth(ctx)
		if err == nil && h.Status == "ok" && (len(h.Nodes) == 0 && nodes == 1 || h.NodesHealthy == nodes) {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("system not ready: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
}

func (s *serveSystem) close() error {
	var errs []error
	if s.coord != nil {
		errs = append(errs, s.coord.Close())
	}
	for _, srv := range s.servers {
		errs = append(errs, srv.Close())
	}
	errs = append(errs, s.pool.free())
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	return errors.Join(errs...)
}

func (s *serveSystem) registries() []*obs.Registry { return s.regs }

// prepare generates the fresh programs of operations [first, first+n) into
// the arena.
func (s *serveSystem) prepare(first, n int) error {
	if err := s.pool.free(); err != nil {
		return err
	}
	base := programIndex(first, 0)
	s.poolFirst, s.poolOps = first, n
	s.poolLocs = make([]arenaLoc, programIndex(first+n, 0)-base)
	for k := first; k < first+n; k++ {
		for j := 0; j < programs(k); j++ {
			if id := s.w.progID(k, j); id >= len(s.w.hot) {
				loc, err := s.pool.add(s.w.genSrc(id))
				if err != nil {
					return err
				}
				s.poolLocs[programIndex(k, j)-base] = loc
			}
		}
	}
	return nil
}

// src returns program id's source.
func (s *serveSystem) src(id int) string {
	if id < len(s.w.hot) {
		return s.w.hot[id]
	}
	slot := id - len(s.w.hot)
	if k, j := slot/batchSize, slot%batchSize; k >= s.poolFirst && k < s.poolFirst+s.poolOps {
		if src := s.pool.get(s.poolLocs[programIndex(k, j)-programIndex(s.poolFirst, 0)]); src != "" {
			return src
		}
	}
	return s.w.genSrc(id)
}

// warm sends every hot program once, so the hot set is cached before the
// warm-up window.
func (s *serveSystem) warm(ctx context.Context) error {
	for id := range s.w.hot {
		req := server.RunRequest{ID: fmt.Sprintf("h%d", id), Src: s.w.hot[id], Ways: farmtest.Ways, Backend: s.w.backendName()}
		if _, err := s.entry.Run(ctx, req); err != nil {
			return fmt.Errorf("warm hot program %d: %w", id, err)
		}
	}
	return nil
}

// requests builds operation k's program requests and their program IDs.
func (s *serveSystem) requests(k int) ([]server.RunRequest, []int) {
	n := programs(k)
	reqs := make([]server.RunRequest, n)
	ids := make([]int, n)
	for j := range reqs {
		ids[j] = s.w.progID(k, j)
		reqs[j] = server.RunRequest{Src: s.src(ids[j]), Ways: farmtest.Ways, Backend: s.w.backendName()}
		if isBatch(k) {
			reqs[j].ID = fmt.Sprintf("b%d/%d", k, j)
		} else {
			reqs[j].ID = fmt.Sprintf("r%d", k)
		}
	}
	return reqs, ids
}

// entryName names the users' entry point.
func (s *serveSystem) entryName() string {
	if s.w.repeat {
		return "cluster.request"
	}
	return "client.request"
}

func (s *serveSystem) entries() []entryPoint {
	first := entryPoint{s.entryName(), s.viaEntry}
	if s.w.repeat {
		return []entryPoint{first, {"client.request", s.viaOwners}, {"server.handler", s.viaHandler}, {"stages", s.viaStages}}
	}
	return []entryPoint{first, {"server.handler", s.viaHandler}, {"stages", s.viaStages}}
}

// viaEntry is the users' path: the client library against the entry URL.
func (s *serveSystem) viaEntry(ctx context.Context, k int, tr *tracer) ([]outcome, error) {
	reqs, ids := s.requests(k)
	sp := tr.root(k, s.entryName())
	defer sp.end()
	res, err := send(ctx, s.entry, k, reqs)
	if err != nil {
		return nil, err
	}
	return outcomes(res, ids), nil
}

// send issues operation k's requests through c: one /v1/run, or one
// /v1/batch of all of them.
func send(ctx context.Context, c *client.Client, k int, reqs []server.RunRequest) ([]server.RunResult, error) {
	if !isBatch(k) {
		r, err := c.Run(ctx, reqs[0])
		return []server.RunResult{r}, err
	}
	return c.Batch(ctx, server.BatchRequest{ID: fmt.Sprintf("b%d", k), Programs: reqs})
}

// owner returns the index of the server owning req, as the coordinator
// routes it.
func (s *serveSystem) owner(req *server.RunRequest) int {
	if len(s.servers) == 1 {
		return 0
	}
	key, ok := cluster.RouteKey(req)
	if !ok {
		return 0
	}
	id, _ := s.ring.Lookup(key)
	for i, n := range s.nodeIDs {
		if n == id {
			return i
		}
	}
	return 0
}

// group is one owning server's share of an operation's requests.
type group struct {
	owner int
	idx   []int // indexes into the operation's requests
}

// groups splits reqs by owning server, the way the coordinator splits a
// batch. Finding the owner assembles each program, so entry points call it
// before opening their root span.
func (s *serveSystem) groups(reqs []server.RunRequest) []group {
	var gs []group
	for i := range reqs {
		o := s.owner(&reqs[i])
		gi := 0
		for gi < len(gs) && gs[gi].owner != o {
			gi++
		}
		if gi == len(gs) {
			gs = append(gs, group{owner: o})
		}
		gs[gi].idx = append(gs[gi].idx, i)
	}
	return gs
}

// forEach calls f for every group concurrently and waits for all of them.
// f fills only its own group's slots of any shared result.
func forEach(gs []group, f func(gi int, g group) error) error {
	errs := make([]error, len(gs))
	var wg sync.WaitGroup
	for gi, g := range gs {
		wg.Add(1)
		go func(gi int, g group) {
			defer wg.Done()
			errs[gi] = f(gi, g)
		}(gi, g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// pick returns the requests at idx.
func pick(reqs []server.RunRequest, idx []int) []server.RunRequest {
	out := make([]server.RunRequest, len(idx))
	for i, j := range idx {
		out[i] = reqs[j]
	}
	return out
}

// viaOwners sends the requests with the client library straight to their
// owning workers, skipping the coordinator.
func (s *serveSystem) viaOwners(ctx context.Context, k int, tr *tracer) ([]outcome, error) {
	reqs, ids := s.requests(k)
	gs := s.groups(reqs)
	sp := tr.root(k, "client.request")
	defer sp.end()
	res := make([]server.RunResult, len(reqs))
	err := forEach(gs, func(_ int, g group) error {
		rs, err := send(ctx, s.direct[g.owner], k, pick(reqs, g.idx))
		if err != nil {
			return err
		}
		for i, j := range g.idx {
			res[j] = rs[i]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outcomes(res, ids), nil
}

// viaHandler calls each owning worker's HTTP handler in process, skipping
// the network and the client library.
func (s *serveSystem) viaHandler(ctx context.Context, k int, tr *tracer) ([]outcome, error) {
	reqs, ids := s.requests(k)
	gs := s.groups(reqs)
	bodies := make([][]byte, len(gs))
	for gi, g := range gs {
		b, err := requestBody(k, pick(reqs, g.idx))
		if err != nil {
			return nil, err
		}
		bodies[gi] = b
	}
	path := "/v1/run"
	if isBatch(k) {
		path = "/v1/batch"
	}
	sp := tr.root(k, "server.handler")
	defer sp.end()
	res := make([]server.RunResult, len(reqs))
	err := forEach(gs, func(gi int, g group) error {
		hr := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(bodies[gi])).WithContext(ctx)
		hr.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		s.servers[g.owner].Handler().ServeHTTP(rec, hr)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s: HTTP %d: %s", path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		rs, err := decodeResults(k, rec.Body)
		if err != nil {
			return err
		}
		if len(rs) != len(g.idx) {
			return fmt.Errorf("%s: %d results for %d programs", path, len(rs), len(g.idx))
		}
		for i, j := range g.idx {
			res[j] = rs[i]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outcomes(res, ids), nil
}

// requestBody encodes the HTTP body of operation k for reqs.
func requestBody(k int, reqs []server.RunRequest) ([]byte, error) {
	if isBatch(k) {
		return json.Marshal(server.BatchRequest{ID: fmt.Sprintf("b%d", k), Programs: reqs})
	}
	return json.Marshal(reqs[0])
}

// decodeResults decodes a /v1/run body, or a /v1/batch NDJSON stream after
// its header line.
func decodeResults(k int, body io.Reader) ([]server.RunResult, error) {
	if !isBatch(k) {
		var r server.RunResult
		err := json.NewDecoder(body).Decode(&r)
		return []server.RunResult{r}, err
	}
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64*1024), 8<<20)
	var out []server.RunResult
	for first := true; sc.Scan(); first = false {
		if first {
			continue // the results header
		}
		var r server.RunResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("bad result line: %w", err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// viaStages calls the public function behind each serving stage directly
// on the owning worker's engine: decode, assemble, plan (auto only), memo
// probe, farm run of the misses, encode. It skips HTTP, admission and the
// coalescer.
func (s *serveSystem) viaStages(ctx context.Context, k int, tr *tracer) ([]outcome, error) {
	reqs, ids := s.requests(k)
	bodies := make([][]byte, len(reqs))
	for i := range reqs {
		b, err := json.Marshal(reqs[i])
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	gs := s.groups(reqs)
	sp := tr.root(k, "stages")
	defer sp.end()
	res := make([]server.RunResult, len(reqs))
	err := forEach(gs, func(_ int, g group) error {
		eng := s.servers[g.owner].Engine()
		var jobs []farm.Job
		var jobIdx []int
		for _, j := range g.idx {
			c := sp.child("decode")
			var req server.RunRequest
			err := json.Unmarshal(bodies[j], &req)
			c.end()
			if err != nil {
				return err
			}
			c = sp.child("asm.assemble")
			prog, err := asm.Assemble(req.Src)
			c.end()
			if err != nil {
				return fmt.Errorf("program %d: %w", ids[j], err)
			}
			job := farm.Job{Name: req.ID, Prog: prog, MaxSteps: qasm.MaxSteps, Ctx: ctx,
				Ways: req.Ways, Backend: req.Backend}
			if job.Backend == backend.Auto {
				c = sp.child("backend.plan")
				plan, err := planAuto(c, prog, job.Ways, func(cfg qat.Config) bool {
					t := job
					t.Ways, t.Backend, t.REChunkWays, t.RESpillRuns = cfg.Ways, cfg.Backend, cfg.ChunkWays, cfg.SpillRuns
					_, hit := eng.MemoProbe(&t)
					return hit
				})
				c.end()
				if err != nil {
					return fmt.Errorf("program %d: %w", ids[j], err)
				}
				job.Backend, job.REChunkWays, job.RESpillRuns = plan.Config.Backend, plan.Config.ChunkWays, plan.Config.SpillRuns
			}
			c = sp.child("memo.probe")
			fr, hit := eng.MemoProbe(&job)
			c.end()
			if hit {
				res[j] = wireResult(&fr, req.ID)
				continue
			}
			jobs = append(jobs, job)
			jobIdx = append(jobIdx, j)
		}
		if len(jobs) > 0 {
			c := sp.child("farm.run")
			rs, _ := eng.Run(ctx, jobs)
			c.end()
			for i, j := range jobIdx {
				res[j] = wireResult(&rs[i], jobs[i].Name)
			}
		}
		c := sp.child("encode")
		defer c.end()
		for _, j := range g.idx {
			if _, err := json.Marshal(&res[j]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outcomes(res, ids), nil
}

// wireResult converts a farm result to its wire form the way the server
// does for a functional run.
func wireResult(fr *farm.Result, id string) server.RunResult {
	r := server.RunResult{ID: id, Regs: fr.Regs, Output: fr.Output, Insts: fr.Insts, Cached: fr.Cached, Backend: fr.Backend}
	if fr.Err != nil {
		r.Error, r.Code = fr.Err.Error(), http.StatusInternalServerError
	}
	return r
}

// outcomes converts wire results of the programs ids.
func outcomes(res []server.RunResult, ids []int) []outcome {
	outs := make([]outcome, len(res))
	for i, r := range res {
		outs[i] = outcome{prog: ids[i], regs: r.Regs, output: r.Output, insts: r.Insts, backend: r.Backend, err: r.Error}
	}
	return outs
}

// check compares every outcome with a farm-direct functional run of the
// same program, then resubmits a few programs twice under one new ID: the
// first answer must come from the memo and match the reference, and the
// second, an idempotent replay, must be byte-identical to the first.
func (w *serveWorkload) check(sys system, recs []*opRecord) ([]string, map[string]float64) {
	s := sys.(*serveSystem)
	var ids []int
	seen := make(map[int]bool)
	for _, r := range recs {
		for _, o := range r.outs {
			if !seen[o.prog] {
				seen[o.prog] = true
				ids = append(ids, o.prog)
			}
		}
	}
	refs, err := s.references(ids)
	if err != nil {
		return []string{err.Error()}, nil
	}
	checkEach(recs, func(o outcome) string { return sameResult(o, refs[o.prog]) })

	var problems []string
	checked := 0
	for i := len(recs) - 1; i >= 0 && checked < replayChecks; i-- {
		r := recs[i]
		if isBatch(r.k) || r.failed() {
			continue
		}
		checked++
		if msg := s.replay(r.outs[0].prog, refs, fmt.Sprintf("x%d", r.k)); msg != "" {
			problems = append(problems, msg)
		}
	}
	if checked == 0 {
		problems = append(problems, "no successful run to replay")
	}
	return problems, nil
}

// references runs every program in ids on a fresh engine, functional and
// dense, outside the system under test.
func (s *serveSystem) references(ids []int) (map[int]outcome, error) {
	jobs := make([]farm.Job, len(ids))
	for i, id := range ids {
		jobs[i] = farm.Job{Src: s.src(id), Ways: farmtest.Ways, Backend: qat.BackendDense, MaxSteps: qasm.MaxSteps}
	}
	rs, _ := farm.New(0).Run(context.Background(), jobs)
	refs := make(map[int]outcome, len(ids))
	for i, id := range ids {
		if rs[i].Err != nil {
			return nil, fmt.Errorf("reference run of program %d: %w", id, rs[i].Err)
		}
		refs[id] = outcome{prog: id, regs: rs[i].Regs, output: rs[i].Output, insts: rs[i].Insts}
	}
	return refs, nil
}

// replay submits program id twice under reqID through the entry point and
// reports what went wrong, or "".
func (s *serveSystem) replay(id int, refs map[int]outcome, reqID string) string {
	body, err := json.Marshal(server.RunRequest{ID: reqID, Src: s.src(id), Ways: farmtest.Ways, Backend: s.w.backendName()})
	if err != nil {
		return err.Error()
	}
	var got [2][]byte
	for i := range got {
		resp, err := http.Post(s.url+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Sprintf("replay of program %d: %v", id, err)
		}
		got[i], err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Sprintf("replay of program %d: HTTP %d %v", id, resp.StatusCode, err)
		}
	}
	if !bytes.Equal(got[0], got[1]) {
		return fmt.Sprintf("replay of program %d is not byte-identical:\n%s\n%s", id, got[0], got[1])
	}
	var r server.RunResult
	if err := json.Unmarshal(got[0], &r); err != nil {
		return fmt.Sprintf("replay of program %d: %v", id, err)
	}
	if !r.Cached {
		return fmt.Sprintf("resubmitted program %d was not answered from the memo", id)
	}
	return sameResult(outcomes([]server.RunResult{r}, []int{id})[0], refs[id])
}
