package cluster

// Batch routing: a batch is split per owning node (each program keyed like
// a single run), the sub-batches execute in parallel, and the merged
// stream comes back in input order under the same versioned results
// header a single server writes — so a client cannot tell a routed batch
// from a direct one. A sub-batch whose node fails mid-flight fails over as
// a unit to the next candidate; only when a program exhausts every node
// does the merged stream carry a synthesized per-program failure record.
// A worker's authoritative refusal of its sub-batch (a program that does
// not assemble, a strict-lint 422) refuses the whole batch, as a single
// server would: the client gets that status and body, re-indexed to its
// own batch, instead of a stream.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"tangled/internal/client"
	"tangled/internal/server"
)

// batchItem is one program with its original position.
type batchItem struct {
	idx int
	req server.RunRequest
	key uint64
	ok  bool // keyed
}

func (co *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	var breq server.BatchRequest
	if err := co.decodeBody(w, r, &breq); err != nil {
		co.writeError(w, http.StatusBadRequest, server.ErrorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if len(breq.Programs) == 0 {
		co.writeError(w, http.StatusBadRequest, server.ErrorResponse{Error: "batch has no programs"})
		return
	}
	if breq.ID == "" {
		breq.ID = client.NewRequestID()
	}
	items := make([]*batchItem, len(breq.Programs))
	for i := range breq.Programs {
		it := &batchItem{idx: i, req: breq.Programs[i]}
		// Derive per-program IDs the way a worker would, but here at the
		// router — so a failed-over sub-batch replays identical IDs.
		if it.req.ID == "" {
			it.req.ID = server.DeriveBatchProgramID(breq.ID, it.idx)
		}
		it.key, it.ok = RouteKey(&it.req)
		if it.ok {
			co.obs.keyed.Inc()
		} else {
			co.obs.unkeyed.Inc()
		}
		items[i] = it
	}

	results := make([]server.RunResult, len(items))
	var ref refusal
	var wg sync.WaitGroup
	for _, group := range co.groupByNode(items, nil) {
		wg.Add(1)
		go func(n *node, group []*batchItem) {
			defer wg.Done()
			co.forwardGroup(r, breq.ID, n, group, results, &ref, map[*node]bool{})
		}(group.n, group.items)
	}
	wg.Wait()

	w.Header().Set("X-Request-ID", breq.ID)
	if ref.status != 0 {
		co.writeError(w, ref.status, ref.resp)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	enc.Encode(server.ResultsHeader{Schema: server.ResultsSchema, Version: server.ResultsSchemaVersion, Count: len(results)})
	for i := range results {
		results[i].Index = i
		enc.Encode(&results[i])
	}
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// nodeGroup is one node's share of a batch.
type nodeGroup struct {
	n     *node
	items []*batchItem
}

// groupByNode assigns each program to its best candidate not in excluded:
// ring owner for keyed programs, least-in-flight rotation for the rest.
// Programs with no available node get a synthesized refusal later.
func (co *Coordinator) groupByNode(items []*batchItem, excluded map[*node]bool) []nodeGroup {
	byNode := make(map[*node][]*batchItem)
	var order []*node
	for _, it := range items {
		var target *node
		for _, n := range co.candidates(it.key, it.ok) {
			if !excluded[n] {
				target = n
				break
			}
		}
		if target == nil {
			continue
		}
		if _, seen := byNode[target]; !seen {
			order = append(order, target)
		}
		byNode[target] = append(byNode[target], it)
	}
	out := make([]nodeGroup, 0, len(order))
	for _, n := range order {
		out = append(out, nodeGroup{n, byNode[n]})
	}
	return out
}

// forwardGroup sends one node's sub-batch and scatters its results back to
// the original indices. On a node-level failure it reassigns the whole
// group (minus that node) and recurses; programs that run out of nodes get
// per-program failure records so the merged stream still carries one line
// per program.
func (co *Coordinator) forwardGroup(r *http.Request, batchID string, n *node, group []*batchItem, results []server.RunResult, ref *refusal, tried map[*node]bool) {
	tried[n] = true
	sub := server.BatchRequest{ID: batchID, Programs: make([]server.RunRequest, len(group))}
	for i, it := range group {
		sub.Programs[i] = it.req
	}
	n.inFlight.Add(int64(len(group)))
	subResults, err := n.fwd.Batch(r.Context(), sub)
	n.inFlight.Add(-int64(len(group)))
	if err == nil && len(subResults) == len(group) {
		n.routed.Add(uint64(len(group)))
		co.obs.routed.Add(uint64(len(group)))
		co.obs.nodeRouted.With(n.id).Add(uint64(len(group)))
		for i, it := range group {
			results[it.idx] = subResults[i]
		}
		return
	}
	if r.Context().Err() != nil {
		co.failGroup(group, results, server.StatusClientClosedRequest, "client disconnected")
		return
	}
	if err == nil {
		// A worker answering with the wrong result count is a protocol
		// fault; don't re-execute (some programs may have run) — report.
		co.failGroup(group, results, http.StatusBadGateway, "worker returned mismatched batch result count")
		return
	}
	failover, relay := co.noteForwardFailure(n, err)
	if !failover {
		ref.note(relay, group)
		return
	}
	co.obs.failovers.Inc()
	regrouped := co.groupByNode(group, tried)
	assigned := make(map[*batchItem]bool)
	var wg sync.WaitGroup
	for _, g := range regrouped {
		for _, it := range g.items {
			assigned[it] = true
		}
		wg.Add(1)
		go func(g nodeGroup) {
			defer wg.Done()
			co.forwardGroup(r, batchID, g.n, g.items, results, ref, tried)
		}(g)
	}
	wg.Wait()
	var exhausted []*batchItem
	for _, it := range group {
		if !assigned[it] {
			exhausted = append(exhausted, it)
		}
	}
	if len(exhausted) > 0 {
		status, resp := co.refusal()
		co.failGroup(exhausted, results, status, resp.Error)
	}
}

// failGroup synthesizes failure records for programs that could not be
// served, in the worker's own per-record error form.
func (co *Coordinator) failGroup(group []*batchItem, results []server.RunResult, code int, msg string) {
	for _, it := range group {
		results[it.idx] = server.RunResult{ID: it.req.ID, Error: msg, Code: code}
	}
}

// refusal keeps the authoritative sub-batch refusal that names the
// earliest program of the client's batch: the one a single server, which
// checks programs in order, would have answered with.
type refusal struct {
	mu     sync.Mutex
	idx    int // the refused program's index in the client's batch
	status int // 0 while no sub-batch was refused
	resp   server.ErrorResponse
}

// note records a worker's refusal of group. The worker names the failing
// program by its sub-batch index ("program <i>: ...", see
// server.handleBatch); note maps it back to the client's index.
func (ref *refusal) note(apiErr *client.APIError, group []*batchItem) {
	resp, idx := apiErr.Resp, group[0].idx
	if n, msg, ok := strings.Cut(strings.TrimPrefix(resp.Error, "program "), ":"); ok {
		if i, err := strconv.Atoi(n); err == nil && i >= 0 && i < len(group) {
			idx = group[i].idx
			resp.Error = fmt.Sprintf("program %d:%s", idx, msg)
		}
	}
	ref.mu.Lock()
	defer ref.mu.Unlock()
	if ref.status == 0 || idx < ref.idx {
		ref.idx, ref.status, ref.resp = idx, apiErr.Status, resp
	}
}
