// Package backend is the static auto-planner: it resolves the Auto
// pseudo-backend into one of the two Qat register files (qat.BackendDense,
// qat.BackendRE) before any machine is built or pool touched. The register
// files' geometry rule (defaults made explicit, invalid geometry refused)
// is qat.Config.Canonical; every plan is a canonical Config, so an
// auto-planned run shares pool and memo identity with its explicit
// spelling.
//
// Decision order, first match wins:
//
//  1. requested width > every backend's ceiling      -> UnservableError
//     (the caller attaches the profile to its error surface: the HTTP
//     layer returns it as a 422 with the profile in the body)
//  2. a memoized result exists (dense, then planned RE) -> that backend
//     (replaying bytes from the memo beats any static prediction)
//  3. width > dense hardware (aob.MaxWays)           -> RE, forced
//  4. otherwise                                      -> dense
//
// Only rule 1 reads the program's static profile (internal/profile), so
// PlanAuto lints and profiles only to fill an UnservableError: every
// servable plan costs two canonicalizations and at most one probe per
// backend. RE serves only past the dense wall: at 16 ways or fewer its
// default geometry is one chunk per register, so it does dense's work
// plus run interning.
//
// The planner never changes the requested width — it only picks the file
// the width runs on. The RE plan uses the default geometry (ChunkWays 0,
// SpillRuns 0 canonicalize to min(ways, 16) and qat.DefaultSpillRuns), so
// an auto-planned RE run shares pool and memo identity with an explicitly
// requested default RE run.
package backend

import (
	"fmt"

	"tangled/internal/aob"
	"tangled/internal/asm"
	"tangled/internal/lint"
	"tangled/internal/profile"
	"tangled/internal/qat"
)

// Auto is the pseudo-backend name the planner resolves into a concrete
// register file from the program's width and the memo. It is accepted by
// the layers above (farm jobs, HTTP requests, CLI flags), never by
// qat.Config.Canonical.
const Auto = "auto"

// UnservableError reports a width no backend can execute. The
// profile documents why, for error surfaces that attach it (HTTP 422).
type UnservableError struct {
	Ways    int
	Profile *lint.Profile
}

func (e *UnservableError) Error() string {
	return fmt.Sprintf("backend: ways %d exceeds every backend (max %d)", e.Ways, qat.MaxREWays)
}

// Plan is a resolved auto decision: the chosen canonical config.
type Plan struct {
	Config qat.Config
}

// Decide resolves Auto for a program already profiled at the requested
// width; p reaches only an UnservableError. probe, when non-nil, reports
// whether a memoized result exists for a canonical config; it is consulted
// before the width rules. cfg.Backend must be Auto (or empty/dense/re,
// which pass through qat.Config.Canonical — callers can funnel every job
// through Decide).
func Decide(p *lint.Profile, cfg qat.Config, probe func(qat.Config) bool) (Plan, error) {
	return decide(func() *lint.Profile { return p }, cfg, probe)
}

// PlanAuto resolves Auto for prog at cfg's width. It profiles prog only for
// an unservable width (rule 1), whose error carries the profile; every
// other plan does no analysis. The lint analysis runs in facts-only mode:
// diagnostics are not gated here — admission checks belong to the caller's
// lint policy, the planner only reads the profile.
func PlanAuto(prog *asm.Program, cfg qat.Config, probe func(qat.Config) bool) (Plan, error) {
	return decide(func() *lint.Profile {
		if prog == nil {
			return nil
		}
		// An unservable width is never 0. lint's cost model is
		// dense-clamped; the profile is not.
		_, f := lint.AnalyzeWithFacts(prog, lint.Options{Ways: min(cfg.Ways, aob.MaxWays)})
		return profile.Compute(f, profile.Options{Ways: cfg.Ways, ConstantRegs: cfg.ConstantRegs})
	}, cfg, probe)
}

// decide is the one rule table behind Decide and PlanAuto (see the order
// at the top of this file). prof yields the program's profile and is
// called only for an unservable width; each probe runs at most once.
func decide(prof func() *lint.Profile, cfg qat.Config, probe func(qat.Config) bool) (Plan, error) {
	if cfg.Backend != Auto {
		c, err := cfg.Canonical()
		return Plan{Config: c}, err
	}
	ways := cfg.Ways
	if ways == 0 {
		ways = aob.MaxWays
	}
	if ways < 0 || ways > qat.MaxREWays {
		return Plan{}, &UnservableError{Ways: ways, Profile: prof()}
	}

	var denseC qat.Config
	var denseErr error
	if ways <= aob.MaxWays {
		denseC, denseErr = defaultGeometry(cfg, qat.BackendDense).Canonical()
		if probe != nil && denseErr == nil && probe(denseC) {
			return Plan{Config: denseC}, nil
		}
	}
	reC, reErr := defaultGeometry(cfg, qat.BackendRE).Canonical()
	if probe != nil && reErr == nil && probe(reC) {
		return Plan{Config: reC}, nil
	}
	if ways > aob.MaxWays {
		return Plan{Config: reC}, reErr // dense hardware cannot hold the width
	}
	return Plan{Config: denseC}, denseErr
}

// defaultGeometry is cfg on the named backend with its default geometry,
// the only geometry the planner plans.
func defaultGeometry(cfg qat.Config, name string) qat.Config {
	cfg.Backend = name
	cfg.ChunkWays, cfg.SpillRuns = 0, 0
	return cfg
}
