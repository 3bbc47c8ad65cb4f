package cluster

// Node registry and lifecycle. Each worker is probed over its own
// /v1/healthz; the answer (or its absence) drives a small state machine:
//
//	healthy  — answering 200; in the ring, eligible for routing
//	draining — answering 503 (graceful SIGTERM drain in progress); removed
//	           from the ring so its hash arcs reassign to the successors
//	           before its listener closes, never routed new work
//	dead     — FailAfter consecutive probes failed outright; evicted from
//	           the ring until it answers again (rejoin restores its arcs)
//
// Demotion is orthogonal to the state: a healthy node that answered 429
// keeps its ring membership (the backpressure is transient, the cache
// locality is not) but is skipped by the candidate walk until the
// Retry-After window passes.

import (
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tangled/internal/client"
	"tangled/internal/server"
)

type nodeState int32

const (
	nodeHealthy nodeState = iota
	nodeDraining
	nodeDead
)

func (s nodeState) String() string {
	switch s {
	case nodeHealthy:
		return "healthy"
	case nodeDraining:
		return "draining"
	case nodeDead:
		return "dead"
	}
	return "unknown"
}

// node is one registered worker.
type node struct {
	id  string // URL sans scheme: the metrics label and health-row key
	url string

	// http forwards run/batch/assemble bodies with no retry of its own:
	// the router owns failure policy (failover to another node), and a
	// per-node retry against a saturated worker is exactly the hot-loop
	// the demotion window exists to prevent.
	http *http.Client
	// probe carries heartbeat and aggregation GETs with one client-level
	// retry, so a single transport flake doesn't consume a whole beat. It
	// shares http's transport, hence one keep-alive pool.
	probe *client.Client

	inFlight     atomic.Int64  // requests this coordinator has on the node
	routed       atomic.Uint64 // requests answered by the node
	state        atomic.Int32  // nodeState
	missed       atomic.Int32  // consecutive failed probes
	demotedUntil atomic.Int64  // unixnano; 0 = not demoted

	mu         sync.Mutex
	lastHealth server.Health // most recent successful probe body
}

func newNode(rawURL string) *node {
	u := strings.TrimRight(rawURL, "/")
	id := strings.TrimPrefix(strings.TrimPrefix(u, "http://"), "https://")
	h := &http.Client{}
	return &node{
		id:    id,
		url:   u,
		http:  h,
		probe: client.NewWith(client.Config{BaseURL: u, HTTPClient: h, MaxRetries: 1, BaseBackoff: 10 * time.Millisecond}),
	}
}

func (n *node) getState() nodeState { return nodeState(n.state.Load()) }

// demoted reports whether the node is inside a backpressure window.
func (n *node) demoted(now time.Time) bool {
	return n.demotedUntil.Load() > now.UnixNano()
}

// demote opens (or extends) the backpressure window.
func (n *node) demote(now time.Time, d time.Duration) {
	until := now.Add(d).UnixNano()
	for {
		cur := n.demotedUntil.Load()
		if cur >= until || n.demotedUntil.CompareAndSwap(cur, until) {
			return
		}
	}
}

// eligible reports whether the candidate walk may route to the node.
func (n *node) eligible(now time.Time) bool {
	return n.getState() == nodeHealthy && !n.demoted(now)
}

func (n *node) setLastHealth(h server.Health) {
	n.mu.Lock()
	n.lastHealth = h
	n.mu.Unlock()
}

func (n *node) health() server.Health {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lastHealth
}

// row renders the node's health aggregate entry.
func (n *node) row(now time.Time) server.NodeHealth {
	h := n.health()
	state := n.getState().String()
	var demotedMs int64
	if until := n.demotedUntil.Load(); until > now.UnixNano() {
		demotedMs = (until - now.UnixNano()) / int64(time.Millisecond)
		if state == "healthy" {
			state = "demoted"
		}
	}
	return server.NodeHealth{
		ID:          n.id,
		URL:         n.url,
		State:       state,
		MissedBeats: int(n.missed.Load()),
		DemotedMs:   demotedMs,
		InFlight:    n.inFlight.Load(),
		Routed:      n.routed.Load(),
		QueueDepth:  h.QueueDepth,
		Workers:     h.Workers,
		JobsDone:    h.JobsDone,
	}
}
