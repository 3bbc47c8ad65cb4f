package backend

// The auto-planner: resolves the Auto pseudo-backend into a registered
// driver, before any machine is built or pool touched.
//
// Decision order, first match wins:
//
//  1. requested width > every backend's ceiling      -> UnservableError
//     (the caller attaches the profile to its error surface: the HTTP
//     layer returns it as a 422 with the profile in the body)
//  2. a memoized result exists (dense, then planned RE) -> that backend
//     (replaying bytes from the memo beats any static prediction)
//  3. width > dense hardware (aob.MaxWays)           -> RE, forced
//  4. highly compressible (>= 0.9) AND enough writes
//     to matter (>= 16)                              -> RE
//  5. otherwise                                      -> dense
//
// Only rules 1, 4 and 5 read the program's static profile
// (internal/profile), so PlanAuto lints and profiles only when the cheap
// rules 2 and 3 did not decide: a memoized or width-forced plan costs two
// config canonicalizations and at most one probe per backend.
//
// The planner never changes the requested width — it only picks the file
// the width runs on. The RE plan uses the driver's default geometry
// (ChunkWays 0, SpillRuns 0 canonicalize to min(ways, 16) and
// qat.DefaultSpillRuns), so an auto-planned RE run shares pool and memo
// identity with an explicitly requested default RE run.

import (
	"fmt"

	"tangled/internal/aob"
	"tangled/internal/asm"
	"tangled/internal/lint"
	"tangled/internal/profile"
	"tangled/internal/qat"
)

// CompressibilityFloor is the static compressibility at or above which the
// planner prefers the RE backend even when dense could serve the width.
const CompressibilityFloor = 0.9

// MinWritesForRE is the Qat write count below which a program is too small
// for the compressibility signal to outweigh dense's lower fixed cost.
const MinWritesForRE = 16

// UnservableError reports a width no registered backend can execute. The
// profile documents why, for error surfaces that attach it (HTTP 422).
type UnservableError struct {
	Ways    int
	Profile *lint.Profile
}

func (e *UnservableError) Error() string {
	return fmt.Sprintf("backend: ways %d exceeds every backend (max %d)", e.Ways, qat.MaxREWays)
}

// Plan is a resolved auto decision: the chosen canonical config and the
// profile that drove it.
type Plan struct {
	Config  qat.Config
	Profile *lint.Profile
}

// Decide resolves Auto for a program already profiled at the requested
// width. probe, when non-nil, reports whether a memoized result exists for
// a canonical config; it is consulted before the static rules. cfg.Backend
// must be Auto (or empty/dense/re, which pass through canonicalization
// untouched — callers can funnel every job through Decide).
func Decide(p *lint.Profile, cfg qat.Config, probe func(qat.Config) bool) (Plan, error) {
	plan, err := decide(func() *lint.Profile { return p }, cfg, probe)
	if err == nil {
		plan.Profile = p
	}
	return plan, err
}

// PlanAuto resolves Auto for prog at cfg's width. It profiles prog only for
// the rules that read the profile — the unservable-width error (1) and the
// compressibility route (4) — so a width-forced or memoized plan does no
// analysis and returns a nil Plan.Profile. The lint analysis runs in
// facts-only mode: diagnostics are not gated here — admission checks
// belong to the caller's lint policy, the planner only reads the profile.
func PlanAuto(prog *asm.Program, cfg qat.Config, probe func(qat.Config) bool) (Plan, error) {
	var p *lint.Profile
	prof := func() *lint.Profile {
		if p == nil && prog != nil {
			ways := cfg.Ways
			if ways == 0 {
				ways = aob.MaxWays
			}
			// lint's cost model is dense-clamped; the profile is not.
			_, f := lint.AnalyzeWithFacts(prog, lint.Options{Ways: min(ways, aob.MaxWays)})
			p = profile.Compute(f, profile.Options{Ways: ways, ConstantRegs: cfg.ConstantRegs})
		}
		return p
	}
	return decide(prof, cfg, probe)
}

// decide is the one rule table behind Decide and PlanAuto (see the order
// at the top of this file). prof yields the program's profile and is
// called only by the rules that read it; each probe runs at most once. The
// returned Plan carries the profile when a rule read it.
func decide(prof func() *lint.Profile, cfg qat.Config, probe func(qat.Config) bool) (Plan, error) {
	if cfg.Backend != Auto {
		c, err := Canonicalize(cfg)
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
		denseC, denseErr = Canonicalize(defaultGeometry(cfg, qat.BackendDense))
		if probe != nil && denseErr == nil && probe(denseC) {
			return Plan{Config: denseC}, nil
		}
	}
	reC, reErr := Canonicalize(defaultGeometry(cfg, qat.BackendRE))
	if probe != nil && reErr == nil && probe(reC) {
		return Plan{Config: reC}, nil
	}
	if ways > aob.MaxWays {
		return Plan{Config: reC}, reErr // dense hardware cannot hold the width
	}
	p := prof()
	if p != nil && p.Compressibility >= CompressibilityFloor && p.QatWrites >= MinWritesForRE {
		return Plan{Config: reC, Profile: p}, reErr // structured enough for run-length compression to win
	}
	return Plan{Config: denseC, Profile: p}, denseErr
}

// defaultGeometry is cfg on the named backend with the driver's default
// geometry, the only geometry the planner plans.
func defaultGeometry(cfg qat.Config, name string) qat.Config {
	cfg.Backend = name
	cfg.ChunkWays, cfg.SpillRuns = 0, 0
	return cfg
}
