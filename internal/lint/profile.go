package lint

// The static profile fact: the entanglement/cost summary the profiler
// (internal/profile) derives from a Facts projection and attaches back as
// Facts.Profile. The data types live here, next to the facts they annotate,
// so consumers (qatlint -profile, the backend auto-planner's unservable
// error and the server's 422 response built from it) need only the lint
// surface; the abstract interpretation that fills them lives in
// internal/profile, which builds on these facts without creating an import
// cycle.
//
// docs/LINT.md ("Profile facts") documents the JSON schema and the planner
// decision table.

// RegEntanglement is the per-register entanglement summary: the largest
// channel-dependence set register Reg is proven to carry at any reachable
// program point.
type RegEntanglement struct {
	// Reg is the Qat register number.
	Reg int `json:"reg"`
	// Degree is |Channels|: a sound upper bound on the register's dynamic
	// entanglement degree (the number of channel bits its value depends on).
	Degree int `json:"degree"`
	// Channels lists the channel bits in the dependence set, ascending.
	Channels []int `json:"channels"`
}

// BlockProfile is the per-basic-block slice of the profile: degree and cost
// bounds for one pass through the block, aligned with Facts.Blocks by ID.
type BlockProfile struct {
	// ID indexes Facts.Blocks; Start/End delimit word addresses (End
	// exclusive).
	ID    int    `json:"id"`
	Start uint16 `json:"start"`
	End   uint16 `json:"end"`
	// MaxDegree is the largest per-register degree bound reached inside the
	// block.
	MaxDegree int `json:"max_degree"`
	// QatWrites counts Qat-register-writing instructions.
	QatWrites int `json:"qat_writes"`
	// SwitchedBits/ErasedBits bound the energy proxies of one pass through
	// the block (energy.StaticCost); loop blocks repeat them per iteration.
	SwitchedBits uint64 `json:"switched_bits"`
	ErasedBits   uint64 `json:"erased_bits"`
	// InLoop mirrors BlockFact.InLoop.
	InLoop bool `json:"in_loop,omitempty"`
}

// Profile is the whole-program static profile: a sound entanglement-degree
// bound, the entangled channel groups, and energy bounds — the explanation
// qatlint -profile prints and an unservable "auto" request returns.
type Profile struct {
	// Ways is the channel width the analysis assumed. It is the requested
	// execution width, which may exceed the dense-hardware clamp Facts.Ways
	// carries (the RE backend runs up to qat.MaxREWays).
	Ways int `json:"ways"`
	// DegreeBound is a sound upper bound on the entanglement degree any Qat
	// register reaches on any execution: max over registers and reachable
	// program points of the dependence-set size. Never below the dynamically
	// observed degree (the differential soundness suite pins this).
	DegreeBound int `json:"degree_bound"`
	// RequiredWays is 1 + the highest had channel bit on a reachable path
	// (0 when no reachable had): the minimum width the program can run at.
	RequiredWays int `json:"required_ways"`
	// Groups partitions the channel bits into entangled groups: channels in
	// the same group flow into a common register value somewhere in the
	// program (union-find over dependence sets). Only groups of size > 1 are
	// listed, each sorted ascending, ordered by first channel.
	Groups [][]int `json:"groups,omitempty"`
	// Regs lists per-register bounds for registers whose dependence set is
	// ever non-empty, ascending by register.
	Regs []RegEntanglement `json:"regs,omitempty"`
	// Insts counts reachable instructions; QatOps the reachable Qat subset;
	// QatWrites the Qat-register-writing subset of those.
	Insts     int `json:"insts"`
	QatOps    int `json:"qat_ops"`
	QatWrites int `json:"qat_writes"`
	// SwitchedBound/ErasedBound sum the per-block energy bounds over every
	// reachable block, one pass each; LoopBlocks counts blocks whose cost
	// repeats per iteration (the bounds are per-visit, not per-execution).
	SwitchedBound uint64 `json:"switched_bits_bound"`
	ErasedBound   uint64 `json:"erased_bits_bound"`
	LoopBlocks    int    `json:"loop_blocks"`
	// Imprecise mirrors Facts.Imprecise: an unresolved indirect jump widened
	// every dependence set to the full width, so DegreeBound == Ways.
	Imprecise bool `json:"imprecise,omitempty"`
	// Blocks carries the per-block slices, ascending by start address.
	Blocks []BlockProfile `json:"blocks,omitempty"`
}

// MaxReg returns the per-register degree bound for Qat register q (0 when q
// never carries a channel-dependent value).
func (p *Profile) MaxReg(q int) int {
	for _, r := range p.Regs {
		if r.Reg == q {
			return r.Degree
		}
	}
	return 0
}
