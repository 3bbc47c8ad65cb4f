package cluster

// The cluster_* metric family. Per-node series carry the node ID as a
// dynamic label (obs.CounterSet / obs.GaugeVec — node sets are a serving-
// time population); fleet-wide totals are plain counters. All handles are
// nil-safe, so a coordinator without a registry pays nothing.

import "tangled/internal/obs"

type clusterObs struct {
	routed     *obs.Counter    // requests answered by some node
	keyed      *obs.Counter    // routed by memo-key ring lookup
	unkeyed    *obs.Counter    // routed by least-in-flight fallback
	noNode     *obs.Counter    // requests refused: no eligible node
	demotions  *obs.Counter    // 429/Retry-After backpressure windows opened
	evictions  *obs.Counter    // nodes marked dead after missed beats
	rejoins    *obs.Counter    // dead nodes re-admitted
	probes     *obs.Counter    // heartbeat probes sent
	probeFails *obs.Counter    // heartbeat probes that failed outright
	nodeRouted *obs.CounterSet // per-node requests answered
	nodeRetry  *obs.CounterSet // per-node forward failures (failed over)
	nodeInFly  *obs.GaugeVec   // per-node in-flight (coordinator view)
	nodeUp     *obs.GaugeVec   // per-node health: 2 healthy, 1 draining, 0 dead
	healthyN   *obs.Gauge      // nodes currently eligible for routing
}

func newClusterObs(r *obs.Registry) *clusterObs {
	return &clusterObs{
		routed:     r.Counter("cluster_routed_total", "requests answered by a worker node"),
		keyed:      r.Counter("cluster_keyed_routes_total", "requests routed by memo-key ring lookup"),
		unkeyed:    r.Counter("cluster_unkeyed_routes_total", "requests routed by least-in-flight fallback"),
		noNode:     r.Counter("cluster_no_node_total", "requests refused with no eligible node"),
		demotions:  r.Counter("cluster_demotions_total", "backpressure demotion windows opened"),
		evictions:  r.Counter("cluster_evictions_total", "nodes evicted after missed heartbeats"),
		rejoins:    r.Counter("cluster_rejoins_total", "evicted nodes re-admitted"),
		probes:     r.Counter("cluster_heartbeat_probes_total", "heartbeat probes sent"),
		probeFails: r.Counter("cluster_heartbeat_failures_total", "heartbeat probes failed"),
		nodeRouted: r.CounterSet("cluster_node_routed_total", "requests answered, per node", "node"),
		nodeRetry:  r.CounterSet("cluster_node_retried_total", "forward failures failed over, per node", "node"),
		nodeInFly:  r.GaugeVec("cluster_node_in_flight", "coordinator-side in-flight requests, per node", "node"),
		nodeUp:     r.GaugeVec("cluster_node_health", "node health: 2 healthy, 1 draining, 0 dead", "node"),
		healthyN:   r.Gauge("cluster_nodes_healthy", "nodes currently eligible for routing"),
	}
}

// observe refreshes the per-node gauges from the registry's state.
func (o *clusterObs) observe(nodes []*node) {
	healthy := 0
	for _, n := range nodes {
		st := n.getState()
		var v int64
		switch st {
		case nodeHealthy:
			v = 2
			healthy++
		case nodeDraining:
			v = 1
		}
		o.nodeUp.With(n.id).Set(v)
		o.nodeInFly.With(n.id).Set(n.inFlight.Load())
	}
	o.healthyN.Set(int64(healthy))
}
