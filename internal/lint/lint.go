// Package lint is a dataflow-based static analyzer for assembled Tangled/Qat
// programs: the front door of the serving stack, catching malformed guest
// programs before the simulator, farm, or HTTP server burns cycles on them.
//
// The analyzer reconstructs a basic-block control-flow graph from the word
// image (branch/jump/halt aware, with constant propagation to resolve the
// jumpr targets the assembler's jump pseudo-instruction produces), then runs
// classical compiler analyses over it:
//
//   - reachability: code no execution can reach ("unreachable"), reachable
//     words that do not decode ("illegal-inst"), paths that run past the end
//     of the program or into data ("no-halt"), and unconditional self-jumps
//     ("self-loop");
//   - definite assignment (a forward must-analysis): reads of Tangled
//     registers and of Qat coprocessor registers that no path has written —
//     measuring a never-prepared pbit — surface as "use-before-def";
//   - liveness (a backward may-analysis): register writes that are
//     overwritten before any read surface as "dead-store";
//   - a per-basic-block gate-cost/energy estimate via energy.StaticCost:
//     loop blocks that erase many bits per iteration surface as "hot-block",
//     the static analogue of the paper's adiabatic-power argument.
//
// An image longer than the machine's memory is not analyzed: it gets one
// "image-size" error.
//
// Diagnostics are deterministic (sorted by address, then check, then
// message) and carry the 1-based source line when the program was assembled
// in-process. Severity error means the program is certainly broken — the
// server's strict mode refuses such programs before admission; warnings are
// suspicious-but-runnable; info is advisory.
//
// docs/LINT.md documents every check and the JSON schema.
package lint

import (
	"fmt"
	"sort"

	"tangled/internal/aob"
	"tangled/internal/asm"
	"tangled/internal/cpu"
	"tangled/internal/isa"
)

// Severity ranks a diagnostic. The zero value is Info.
type Severity uint8

const (
	// Info findings are advisory (cost estimates, style).
	Info Severity = iota
	// Warning findings are suspicious but executable (reads of
	// never-written registers, dead stores, unreachable code).
	Warning
	// Error findings mean the program is certainly broken (cannot halt,
	// runs off the end, decodes illegally on a reachable path).
	Error
)

// String returns the lower-case severity name.
func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	default:
		return "info"
	}
}

// MarshalJSON encodes the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON decodes a severity name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	v, err := ParseSeverity(string(b))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// ParseSeverity maps a name (quoted or bare) to its Severity.
func ParseSeverity(name string) (Severity, error) {
	if len(name) == 0 {
		return Info, fmt.Errorf("lint: empty severity")
	}
	if len(name) >= 2 && name[0] == '"' && name[len(name)-1] == '"' {
		name = name[1 : len(name)-1]
	}
	switch name {
	case "info":
		return Info, nil
	case "warning":
		return Warning, nil
	case "error":
		return Error, nil
	}
	return Info, fmt.Errorf("lint: unknown severity %q", name)
}

// Check identifiers, one per analysis class.
const (
	CheckIllegalInst  = "illegal-inst"   // reachable word does not decode
	CheckUnreachable  = "unreachable"    // code no execution reaches
	CheckNoHalt       = "no-halt"        // falls off the end / no reachable sys
	CheckSelfLoop     = "self-loop"      // unconditional self-jump
	CheckUseBeforeDef = "use-before-def" // read of a never-written register
	CheckDeadStore    = "dead-store"     // write overwritten before any read
	CheckHotBlock     = "hot-block"      // loop block with high erasure cost
	CheckHadRange     = "had-range"      // had pattern >= assumed entanglement degree
	CheckImageSize    = "image-size"     // image longer than the machine's memory
)

// Diagnostic is one finding, tied to a word address (and source line when
// the program carries a source map).
type Diagnostic struct {
	Check    string   `json:"check"`
	Severity Severity `json:"severity"`
	// Addr is the word address of the offending instruction.
	Addr uint16 `json:"addr"`
	// Line is the 1-based source line, 0 when unknown (word-image input).
	Line int    `json:"line,omitempty"`
	Msg  string `json:"msg"`
}

func (d Diagnostic) String() string {
	if d.Line > 0 {
		return fmt.Sprintf("line %d (%#04x): %s: [%s] %s", d.Line, d.Addr, d.Severity, d.Check, d.Msg)
	}
	return fmt.Sprintf("%#04x: %s: [%s] %s", d.Addr, d.Severity, d.Check, d.Msg)
}

// BlockCost is the static energy estimate of one reachable basic block,
// computed with energy.StaticCost upper bounds.
type BlockCost struct {
	// Start and End delimit the block's word addresses (End exclusive).
	Start uint16 `json:"start"`
	End   uint16 `json:"end"`
	// Line is the source line of the block's first instruction, when known.
	Line int `json:"line,omitempty"`
	// Qat instruction counts by thermodynamic class.
	QatOps          int `json:"qat_ops"`
	ReversibleOps   int `json:"reversible_ops"`
	IrreversibleOps int `json:"irreversible_ops"`
	// SwitchedBitsMax and ErasedBitsMax bound the energy proxies of one
	// pass through the block.
	SwitchedBitsMax uint64 `json:"switched_bits_max"`
	ErasedBitsMax   uint64 `json:"erased_bits_max"`
	// InLoop reports the block lies on a CFG cycle, so its cost repeats.
	InLoop bool `json:"in_loop"`
}

// Report is the analyzer's output for one program.
type Report struct {
	// Diags are the findings, sorted by (Addr, Check, Msg).
	Diags []Diagnostic `json:"diagnostics"`
	// Blocks are the per-basic-block cost estimates for reachable blocks
	// containing Qat instructions.
	Blocks []BlockCost `json:"blocks,omitempty"`
	// Errors, Warnings and Infos count findings by severity.
	Errors   int `json:"errors"`
	Warnings int `json:"warnings"`
	Infos    int `json:"infos"`
}

// Max returns the highest severity present, or (Info, false) when the
// report is empty.
func (r *Report) Max() (Severity, bool) {
	if r.Errors > 0 {
		return Error, true
	}
	if r.Warnings > 0 {
		return Warning, true
	}
	return Info, len(r.Diags) > 0
}

// CountAtLeast returns how many findings are at or above min.
func (r *Report) CountAtLeast(min Severity) int {
	switch min {
	case Error:
		return r.Errors
	case Warning:
		return r.Errors + r.Warnings
	default:
		return len(r.Diags)
	}
}

// Options parameterizes an analysis; the zero value uses the Primary
// encoding and the paper's 16-way hardware.
type Options struct {
	// Enc is the binary instruction codec; nil means isa.Primary.
	Enc isa.Encoding
	// Ways is the Qat entanglement degree assumed by the cost estimates;
	// 0 means the full 16-way hardware.
	Ways int
	// HotErasedBits is the per-iteration erased-bit bound above which a
	// loop block is flagged "hot-block"; 0 means two full registers'
	// worth (2 << ways bits).
	HotErasedBits uint64
}

func (o Options) withDefaults() Options {
	if o.Enc == nil {
		o.Enc = isa.Primary
	}
	if o.Ways <= 0 || o.Ways > aob.MaxWays {
		o.Ways = aob.MaxWays
	}
	if o.HotErasedBits == 0 {
		o.HotErasedBits = 2 << uint(o.Ways)
	}
	return o
}

// Analyze lints an assembled program. It never fails: an unanalyzable image
// is itself a (maximal-severity) finding. The returned report is
// deterministic for identical input.
func Analyze(p *asm.Program, opts Options) *Report {
	opts = opts.withDefaults()
	r := &Report{}
	if refuse(p, r) {
		return r
	}
	g := buildCFG(p, opts)
	runChecks(g, r, opts)
	r.finish()
	return r
}

// refuse reports, as one error finding in a finished r, an image the
// analyzer does not take apart: an empty one, or one longer than the
// machine's memory (which cpu.Load refuses).
func refuse(p *asm.Program, r *Report) bool {
	switch {
	case len(p.Words) == 0:
		r.add(Diagnostic{Check: CheckNoHalt, Severity: Error, Addr: 0,
			Msg: "empty program: execution begins in zeroed memory and never halts"})
	case len(p.Words) > cpu.MemWords:
		r.add(Diagnostic{Check: CheckImageSize, Severity: Error, Addr: 0,
			Msg: fmt.Sprintf("image of %d words exceeds the %d-word memory: the loader refuses it", len(p.Words), cpu.MemWords)})
	default:
		return false
	}
	r.finish()
	return true
}

// AnalyzeSource assembles src and lints the result; assembly failures are
// returned as the assembler's ErrorList.
func AnalyzeSource(src string, opts Options) (*Report, error) {
	p, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	return Analyze(p, opts), nil
}

// add records one finding.
func (r *Report) add(d Diagnostic) {
	r.Diags = append(r.Diags, d)
}

// finish sorts diagnostics into the canonical deterministic order and
// computes the severity tallies.
func (r *Report) finish() {
	sort.Slice(r.Diags, func(i, j int) bool {
		a, b := r.Diags[i], r.Diags[j]
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Msg < b.Msg
	})
	sort.Slice(r.Blocks, func(i, j int) bool { return r.Blocks[i].Start < r.Blocks[j].Start })
	r.Errors, r.Warnings, r.Infos = 0, 0, 0
	for _, d := range r.Diags {
		switch d.Severity {
		case Error:
			r.Errors++
		case Warning:
			r.Warnings++
		default:
			r.Infos++
		}
	}
}
