// Package opt is the optimizing recompiler over the lint CFG: it rewrites
// assembled Tangled/Qat programs — dead-store elimination driven by lint's
// backward liveness, constant folding through lex/lhi chains, a peephole
// pass over Qat op sequences, and an energy-aware pass that eliminates and
// reversibilizes Qat operations to cut energy.StaticCost switched/erased
// bits — while provably preserving observable semantics (the final Tangled
// register file and the sys output stream).
//
// Safety is the headline, so the transformer is deliberately conservative:
// it refuses (returning the input unchanged, with a reported reason) any
// program whose behavior it cannot fully account for:
//
//   - lint-errors: the analyzer found an error-level defect; broken
//     programs are rejected, not rewritten.
//   - imprecise-cfg: an unresolved jumpr widened the CFG, so reachability
//     and liveness are conservative rather than exact.
//   - jumpr: even a resolved computed jump encodes its target as a register
//     constant the relayout would have to relocate; v1 does not.
//   - data-words: the image mixes code and data (or holds undecodable
//     words); shrinking code would move data that loads may address.
//   - memory-unproven: Tangled memory is unified, so a load whose address
//     cannot be proven to lie at or beyond the image's end could read the
//     program itself — any rewrite would be observable. Likewise stores.
//   - had-range: a reachable had pattern at or beyond the assumed
//     entanglement degree faults at run time, exposing mid-program state.
//   - no-fixpoint / internal-error: defensive bounds; never expected.
//
// On accepted programs every pass is a removal or a strictly cost-reducing
// 1:1 rewrite, so the output is never larger than the input, branch offsets
// can only shrink, and iteration reaches a fixpoint — which also makes the
// transform idempotent: opt(opt(p)) == opt(p). The differential harness in
// this package proves semantic preservation by running the shared
// 200-program corpus optimized-vs-unoptimized through the functional
// machine, both pipelines, and the RE backend; FuzzOptimize extends the
// proof to random programs. docs/OPT.md has the full safety argument.
package opt

import (
	"tangled/internal/aob"
	"tangled/internal/asm"
	"tangled/internal/energy"
	"tangled/internal/isa"
	"tangled/internal/lint"
)

// Refusal reasons, reported verbatim in Report.Reason and the JSON schema.
const (
	ReasonLintErrors = "lint-errors"     // error-level lint findings
	ReasonImprecise  = "imprecise-cfg"   // unresolved jumpr widened the CFG
	ReasonJumpr      = "jumpr"           // computed jumps need target relocation
	ReasonData       = "data-words"      // image mixes code and data
	ReasonMemory     = "memory-unproven" // a load/store may address the image
	ReasonHadRange   = "had-range"       // had pattern faults at the assumed ways
	ReasonNoFixpoint = "no-fixpoint"     // round budget exhausted (defensive)
	ReasonInternal   = "internal-error"  // invariant violated mid-rewrite (defensive)
)

// Pass names, as they appear in Report.Passes.
const (
	PassUnreachable = "unreachable"
	PassConstFold   = "constfold"
	PassPeephole    = "peephole"
	PassEnergy      = "energy"
	PassDeadStore   = "deadstore"
)

// passOrder is the sweep order of one round.
var passOrder = []string{PassUnreachable, PassConstFold, PassPeephole, PassEnergy, PassDeadStore}

// Options parameterizes an optimization.
type Options struct {
	// Enc is the binary instruction codec; nil means isa.Primary.
	Enc isa.Encoding
	// Ways is the entanglement degree the optimized program will run at;
	// 0 means the full hardware. It gates the had-range refusal and scales
	// the static energy accounting — optimizing for one degree and running
	// at a smaller one voids the safety argument.
	Ways int
}

// maxRounds bounds the rewrite/re-analyze iterations. Exhausting it
// refuses the program (never expected: every pass strictly shrinks a
// finite measure).
const maxRounds = 256

func (o Options) withDefaults() Options {
	if o.Enc == nil {
		o.Enc = isa.Primary
	}
	if o.Ways <= 0 || o.Ways > aob.MaxWays {
		o.Ways = aob.MaxWays
	}
	return o
}

// PassStat counts one pass's effect across all rounds.
type PassStat struct {
	Pass string `json:"pass"`
	// Removed counts deleted instructions; Rewritten counts 1:1 (or
	// shrinking) replacements.
	Removed   int `json:"removed"`
	Rewritten int `json:"rewritten"`
}

// Report is the delta report of one optimization: what was (or was not)
// done, and the static instruction/energy savings.
type Report struct {
	// Applied reports the optimizer accepted the program and its output is
	// safe to run in the input's place (possibly unchanged). When false,
	// Reason says why the program was refused and the input was returned
	// verbatim.
	Applied bool   `json:"applied"`
	Reason  string `json:"reason,omitempty"`
	// Ways is the resolved entanglement degree the rewrite assumed.
	Ways int `json:"ways"`
	// Rounds counts rewrite/re-analyze iterations until the fixpoint.
	Rounds int `json:"rounds"`
	// Image and instruction sizes, before and after.
	WordsBefore int `json:"words_before"`
	WordsAfter  int `json:"words_after"`
	InstsBefore int `json:"insts_before"`
	InstsAfter  int `json:"insts_after"`
	// Static energy bounds summed over reachable instructions
	// (energy.StaticCost at the resolved ways).
	SwitchedBefore uint64 `json:"switched_bits_before"`
	SwitchedAfter  uint64 `json:"switched_bits_after"`
	ErasedBefore   uint64 `json:"erased_bits_before"`
	ErasedAfter    uint64 `json:"erased_bits_after"`
	// Passes breaks the work down by pass, in sweep order, zero-effect
	// passes included.
	Passes []PassStat `json:"passes,omitempty"`
}

// refused builds the identity report for a refusal.
func refused(reason string, opts Options, f *lint.Facts) *Report {
	r := &Report{Reason: reason, Ways: opts.Ways}
	if f != nil {
		r.WordsBefore, r.InstsBefore = f.Len, len(f.Insts)
		r.WordsAfter, r.InstsAfter = f.Len, len(f.Insts)
		r.SwitchedBefore, r.ErasedBefore = staticEnergy(f, opts.Ways)
		r.SwitchedAfter, r.ErasedAfter = r.SwitchedBefore, r.ErasedBefore
	}
	return r
}

// staticEnergy sums energy.StaticCost over the reachable instructions.
func staticEnergy(f *lint.Facts, ways int) (switched, erased uint64) {
	for i := range f.Insts {
		if !f.Insts[i].Reachable {
			continue
		}
		sw, er := energy.StaticCost(f.Insts[i].Inst.Op, ways)
		switched += sw
		erased += er
	}
	return switched, erased
}

// refusalReason checks the acceptance conditions against a fresh analysis
// and returns the first violated one ("" when the program is optimizable).
func refusalReason(rep *lint.Report, f *lint.Facts, ways int) string {
	switch {
	case rep.Errors > 0:
		return ReasonLintErrors
	case f.DataWords > 0:
		return ReasonData
	case f.Imprecise:
		return ReasonImprecise
	}
	for i := range f.Insts {
		fi := &f.Insts[i]
		if !fi.Reachable {
			continue
		}
		if fi.Inst.Op == isa.OpJumpr {
			return ReasonJumpr
		}
		if fi.Inst.Op == isa.OpQHad && int(fi.Inst.K) >= ways {
			return ReasonHadRange
		}
	}
	if !memorySafe(f) {
		return ReasonMemory
	}
	return ""
}

// Optimize rewrites p under opts. It never fails: a program the transformer
// cannot prove safe to rewrite is returned unchanged with Report.Applied
// false and the refusal reason set. When Report.Applied is true the returned
// program preserves p's observable semantics — final Tangled registers and
// sys output — on every backend, and is never longer than p.
func Optimize(p *asm.Program, opts Options) (*asm.Program, *Report) {
	opts = opts.withDefaults()
	lopts := lint.Options{Enc: opts.Enc, Ways: opts.Ways}

	rep, facts := lint.AnalyzeWithFacts(p, lopts)
	if reason := refusalReason(rep, facts, opts.Ways); reason != "" {
		return p, refused(reason, opts, facts)
	}

	out := &Report{Applied: true, Ways: opts.Ways,
		WordsBefore: facts.Len, InstsBefore: len(facts.Insts)}
	out.SwitchedBefore, out.ErasedBefore = staticEnergy(facts, opts.Ways)
	totals := make(map[string]*PassStat, len(passOrder))
	for _, name := range passOrder {
		ps := &PassStat{Pass: name}
		totals[name] = ps
		out.Passes = append(out.Passes, PassStat{}) // placeholder, filled below
	}

	cur := facts.Prog
	for {
		if out.Rounds >= maxRounds {
			return p, refused(ReasonNoFixpoint, opts, facts)
		}
		ir := buildIR(facts, opts)
		name, removed, rewritten := ir.sweep()
		if name == "" {
			break // fixpoint: no pass changed anything
		}
		totals[name].Removed += removed
		totals[name].Rewritten += rewritten
		out.Rounds++
		next, err := ir.emit()
		if err != nil {
			return p, refused(ReasonInternal, opts, facts)
		}
		// Re-analyze the rewritten program so the next round's facts (and
		// every pass's safety precondition) are exact, never stale.
		rep, facts = lint.AnalyzeWithFacts(next, lopts)
		if reason := refusalReason(rep, facts, opts.Ways); reason != "" {
			// A valid rewrite can never introduce a refusal condition; if
			// one appears the transformer is wrong, so hand back the input.
			return p, refused(ReasonInternal, opts, facts)
		}
		cur = next
	}

	out.WordsAfter, out.InstsAfter = facts.Len, len(facts.Insts)
	out.SwitchedAfter, out.ErasedAfter = staticEnergy(facts, opts.Ways)
	for i, name := range passOrder {
		out.Passes[i] = *totals[name]
	}
	if out.WordsAfter > out.WordsBefore {
		return p, refused(ReasonInternal, opts, facts)
	}
	return cur, out
}

// OptimizeSource assembles src and optimizes the result; assembly failures
// are returned as the assembler's ErrorList.
func OptimizeSource(src string, opts Options) (*asm.Program, *Report, error) {
	p, err := asm.Assemble(src)
	if err != nil {
		return nil, nil, err
	}
	out, rep := Optimize(p, opts)
	return out, rep, nil
}

// memorySafe proves every reachable load and store addresses memory at or
// beyond the image's end, so no rewrite of the image is observable through
// the unified memory. The proof is a per-block forward sweep of register
// lower bounds: lex yields an exact value, lhi a high-byte bound (the result
// is at least imm<<8 whatever the low byte holds), copy propagates, every
// other write resets to the trivial bound 0; block entries are conservative.
// The canonical pinned-store idiom `lhi $s,0x7F; store $d,$s` proves this
// way; random addresses do not, and refuse the program.
func memorySafe(f *lint.Facts) bool {
	if f.Len >= 1<<16 {
		return false // a full-memory image leaves no provably-safe addresses
	}
	limit := uint16(f.Len)
	for bi := range f.Blocks {
		var bound [isa.NumRegs]uint16
		for _, ii := range f.Blocks[bi].Insts {
			in := f.Insts[ii].Inst
			switch in.Op {
			case isa.OpLoad, isa.OpStore:
				if bound[in.RS] < limit {
					return false
				}
				if in.Op == isa.OpLoad {
					bound[in.RD] = 0
				}
			case isa.OpLex:
				bound[in.RD] = uint16(int16(in.Imm))
			case isa.OpLhi:
				bound[in.RD] = uint16(uint8(in.Imm)) << 8
			case isa.OpCopy:
				bound[in.RD] = bound[in.RS]
			default:
				for r := 0; r < isa.NumRegs; r++ {
					if f.Insts[ii].Eff.WriteRegs&(1<<r) != 0 {
						bound[r] = 0
					}
				}
			}
		}
	}
	return true
}

// Disassemble renders a program's words under the options' encoding, for
// the CLI's rewritten-assembly listing.
func Disassemble(p *asm.Program, opts Options) []string {
	return asm.DisassembleWith(p.Words, opts.withDefaults().Enc)
}
