package cluster

// Routing-key derivation: the coordinator keys each run on a hash of the
// canonical request — the program as submitted (source text or word image)
// plus everything else the worker's execution identity depends on: mode,
// canonical Qat or pipeline config, and clamped step budget. The request ID
// is excluded, so a retry or a repeat lands on the node whose memo already
// holds the entry. The router never assembles: assembly is the worker's
// job, and it is also where diagnostics come from. The one cost is
// locality, never correctness: two sources that differ in text but
// assemble to the same words may land on different nodes. A
// backend:"auto" request is keyed under its own marker instead of being
// planned here. Planning reads the width and the owning node's memo (and
// profiles only to fill a 422); the router only needs *stability* (same
// request → same node), and the chosen node's own planner then resolves
// and memoizes it.

import (
	"crypto/sha256"
	"encoding/binary"

	"tangled/internal/aob"
	"tangled/internal/backend"
	"tangled/internal/pipeline"
	"tangled/internal/qat"
	"tangled/internal/server"
)

// routeSchema versions the routing-key encoding.
const routeSchema = "tangled-route-v1"

// Kind bytes of the route-key header: how the program was submitted and
// on what it runs.
const (
	routeSrc   = 1 << 0 // program is source text (else a word image)
	routePiped = 1 << 1 // pipelined run (else functional)
	routeAuto  = 1 << 2 // backend:"auto", planned by the owning node
	routeRE    = 1 << 3 // run-encoded backend (else dense)
	routeConst = 1 << 4 // constant-register Qat variant
)

// routeHdrLen is the fixed-width header that precedes the program bytes.
const routeHdrLen = len(routeSchema) + 1 + 3*4 + 8

// RouteKey derives the consistent-hash coordinate for one run request.
// ok=false means the request has no stable execution identity — it fails
// validation, or its backend config does not canonicalize — and should
// fall back to least-in-flight routing (the worker then owns the error
// report). A source that does not assemble is keyed like any other.
func RouteKey(req *server.RunRequest) (uint64, bool) {
	if err := req.Validate(); err != nil {
		return 0, false
	}
	var kind byte
	var ways, a, b int // width, then stages or the RE geometry
	switch {
	case req.Mode == "pipelined":
		kind |= routePiped
		cfg := pipeline.DefaultConfig()
		if req.Stages != 0 {
			cfg.Stages = req.Stages
		}
		if req.Ways != 0 {
			cfg.Ways = req.Ways
		}
		cfg.ConstantRegs = req.ConstRegs
		ways, a = cfg.Ways, cfg.Stages
		if cfg.ConstantRegs {
			kind |= routeConst
		}
	case req.Backend == backend.Auto:
		kind |= routeAuto
		ways = req.Ways
		if req.ConstRegs {
			kind |= routeConst
		}
	default:
		cfg, err := qat.Config{Ways: req.Ways, ConstantRegs: req.ConstRegs,
			Backend: req.Backend}.Canonical()
		if err != nil {
			return 0, false
		}
		ways = cfg.Ways
		if cfg.Backend == qat.BackendRE {
			kind |= routeRE
			// RE runs on its default geometry, a function of the width;
			// the header spells it out as it always has, so keys stay put.
			a, b = min(ways, aob.MaxWays), qat.DefaultSpillRuns
			if ways > aob.MaxWays {
				b = -1
			}
		}
		if cfg.ConstantRegs {
			kind |= routeConst
		}
	}
	if req.Src != "" {
		kind |= routeSrc
	}
	buf := make([]byte, 0, routeHdrLen+len(req.Src)+2*len(req.Words))
	buf = append(buf, routeSchema...)
	buf = append(buf, kind)
	for _, v := range [...]int{ways, a, b} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	// The budget a worker keys under, so over-budget and default budgets
	// route together.
	buf = binary.LittleEndian.AppendUint64(buf, req.StepBudget())
	buf = append(buf, req.Src...)
	for _, w := range req.Words {
		buf = binary.LittleEndian.AppendUint16(buf, w)
	}
	sum := sha256.Sum256(buf)
	return binary.LittleEndian.Uint64(sum[:8]), true
}
