// qatlint is the static analyzer for Tangled/Qat assembly programs: it
// assembles each input, reconstructs the control-flow graph, and reports
// unreachable code, dead stores, reads of never-written registers
// (including measurements of never-prepared pbits), programs that cannot
// halt, inescapable loops, illegal instructions on reachable paths, and
// per-basic-block static energy estimates.
//
// With -optimize it is also the front end of the optimizing recompiler
// (internal/opt): lint-clean programs are rewritten — dead stores deleted,
// constants folded, Qat sequences peepholed, energy-redundant operations
// removed — and the rewritten assembly plus a per-pass delta report are
// emitted. Programs the optimizer cannot prove safe to rewrite come back
// unchanged with the refusal reason; programs with error-level findings are
// never rewritten and fail the run with exit status 2.
//
// With -profile it additionally runs the static entanglement/cost profiler
// (internal/profile) over each assemblable input: per-register degree
// bounds, entangled channel groups, Qat write counts, energy bounds, and
// the backend auto-planner's decision for the requested width
// are reported per file (and embedded in the -json output as "profile" and
// "plan").
//
// Usage:
//
//	qatlint [-json] [-severity error|warning|info] [-ways N] [-hot N] [-optimize] [-profile] prog.s ...
//	qatlint -farmtest N          also lint the generated test corpus
//
// Input "-" (or no arguments) reads from stdin. The exit status is the CI
// contract: 0 when every input is below the -severity gate, 1 when any
// finding (or assembly failure) meets it, 2 on usage or I/O errors — and,
// under -optimize, on error-level findings, which make rewriting unsafe.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"tangled/internal/asm"
	"tangled/internal/backend"
	"tangled/internal/farm/farmtest"
	"tangled/internal/lint"
	"tangled/internal/opt"
	"tangled/internal/profile"
	"tangled/internal/qat"
)

// fileReport is one input's result in the JSON output.
type fileReport struct {
	File string `json:"file"`
	// AsmErrors carries assembler diagnostics when the input does not
	// assemble; Report is null in that case.
	AsmErrors []string     `json:"asm_errors,omitempty"`
	Report    *lint.Report `json:"report,omitempty"`
	// Opt is the optimizer's delta report (-optimize only); when it
	// applied, OptimizedWords and OptimizedAsm carry the rewritten program.
	Opt            *opt.Report `json:"opt,omitempty"`
	OptimizedWords []uint16    `json:"optimized_words,omitempty"`
	OptimizedAsm   []string    `json:"optimized_asm,omitempty"`
	// Profile is the static entanglement/cost profile (-profile only); Plan
	// is the backend the auto-planner resolves for the requested width, or
	// "unservable" when no backend can hold it.
	Profile *lint.Profile `json:"profile,omitempty"`
	Plan    string        `json:"plan,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qatlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the full JSON report to stdout")
	sevFlag := fs.String("severity", "error", "minimum severity that fails the run (info|warning|error)")
	ways := fs.Int("ways", 0, "assumed entanglement degree for energy estimates (0 = full hardware)")
	hot := fs.Uint64("hot", 0, "erased-bits-per-iteration budget for hot-block findings (0 = default)")
	nCorpus := fs.Int("farmtest", 0, "also lint the first N generated farmtest corpus programs")
	optimize := fs.Bool("optimize", false, "rewrite lint-clean programs through the optimizing recompiler")
	profileMode := fs.Bool("profile", false, "run the static entanglement/cost profiler and report the planner decision")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	gate, err := lint.ParseSeverity(*sevFlag)
	if err != nil {
		fmt.Fprintln(stderr, "qatlint:", err)
		return 2
	}
	opts := lint.Options{Ways: *ways, HotErasedBits: *hot}

	type input struct{ name, src string }
	var inputs []input
	if *nCorpus > 0 {
		if *nCorpus > farmtest.Programs {
			*nCorpus = farmtest.Programs
		}
		for i := 0; i < *nCorpus; i++ {
			inputs = append(inputs, input{
				name: fmt.Sprintf("farmtest/%03d", i),
				src:  farmtest.Generate(farmtest.Seed(i)),
			})
		}
		if opts.Ways == 0 {
			opts.Ways = farmtest.Ways
		}
	}
	if *nCorpus == 0 && fs.NArg() == 0 {
		src, err := io.ReadAll(stdin)
		if err != nil {
			fmt.Fprintln(stderr, "qatlint: stdin:", err)
			return 2
		}
		inputs = append(inputs, input{name: "<stdin>", src: string(src)})
	}
	for _, path := range fs.Args() {
		var src []byte
		var err error
		if path == "-" {
			src, err = io.ReadAll(stdin)
			path = "<stdin>"
		} else {
			src, err = os.ReadFile(path)
		}
		if err != nil {
			fmt.Fprintln(stderr, "qatlint:", err)
			return 2
		}
		inputs = append(inputs, input{name: path, src: string(src)})
	}

	failed, unsafe := false, false
	var results []fileReport
	for _, in := range inputs {
		fr := fileReport{File: in.name}
		prog, err := asm.Assemble(in.src)
		if err != nil {
			// Assembly failures always meet the gate: an unassemblable
			// program is at least as broken as an error finding.
			failed = true
			var list asm.ErrorList
			if errors.As(err, &list) {
				for _, e := range list {
					fr.AsmErrors = append(fr.AsmErrors, e.Error())
					if !*jsonOut {
						fmt.Fprintf(stdout, "%s: %s\n", in.name, e.Error())
					}
				}
			} else {
				fr.AsmErrors = append(fr.AsmErrors, err.Error())
				if !*jsonOut {
					fmt.Fprintf(stdout, "%s: %v\n", in.name, err)
				}
			}
			results = append(results, fr)
			continue
		}
		var r *lint.Report
		if *profileMode {
			var f *lint.Facts
			r, f = lint.AnalyzeWithFacts(prog, opts)
			// Profile at the requested width (which may exceed the dense
			// clamp lint applies), then ask the planner what backend an
			// "auto" request at that width would resolve to.
			planWays := *ways
			if planWays == 0 {
				planWays = opts.Ways
			}
			p := profile.Compute(f, profile.Options{Ways: planWays})
			fr.Profile = p
			if plan, perr := backend.Decide(p, qat.Config{Ways: planWays, Backend: backend.Auto}, nil); perr != nil {
				fr.Plan = "unservable"
			} else {
				fr.Plan = plan.Config.Backend
			}
			if !*jsonOut {
				printProfile(stdout, in.name, fr.Profile, fr.Plan)
			}
		} else {
			r = lint.Analyze(prog, opts)
		}
		fr.Report = r
		if r.CountAtLeast(gate) > 0 {
			failed = true
		}
		if !*jsonOut {
			for _, d := range r.Diags {
				fmt.Fprintf(stdout, "%s: %s\n", in.name, d)
			}
		}
		if *optimize {
			if r.Errors > 0 {
				// Error-level findings mean the program is broken; rewriting
				// a broken program is never safe, and silently skipping the
				// rewrite would hand the caller the wrong artifact. Usage
				// contract violation: exit 2.
				unsafe = true
				if !*jsonOut {
					fmt.Fprintf(stdout, "%s: optimize: refused (%s): error-level findings suppress rewriting\n",
						in.name, opt.ReasonLintErrors)
				}
			} else {
				optProg, orep := opt.Optimize(prog, opt.Options{Ways: opts.Ways})
				fr.Opt = orep
				if orep.Applied {
					fr.OptimizedWords = optProg.Words
					fr.OptimizedAsm = opt.Disassemble(optProg, opt.Options{})
				}
				if !*jsonOut {
					printOptSummary(stdout, in.name, orep, fr.OptimizedAsm)
				}
			}
		}
		results = append(results, fr)
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Severity string       `json:"severity_gate"`
			Files    []fileReport `json:"files"`
		}{gate.String(), results}); err != nil {
			fmt.Fprintln(stderr, "qatlint:", err)
			return 2
		}
	}
	if unsafe {
		return 2
	}
	if failed {
		return 1
	}
	return 0
}

// printProfile renders the text-mode profile summary and planner decision.
func printProfile(w io.Writer, name string, p *lint.Profile, plan string) {
	mode := "precise"
	if p.Imprecise {
		mode = "imprecise"
	}
	fmt.Fprintf(w, "%s: profile: ways %d, degree bound %d, required ways %d (%s)\n",
		name, p.Ways, p.DegreeBound, p.RequiredWays, mode)
	fmt.Fprintf(w, "%s: profile: insts %d, qat ops %d, writes %d\n",
		name, p.Insts, p.QatOps, p.QatWrites)
	fmt.Fprintf(w, "%s: profile: energy bound: switched %d, erased %d, loop blocks %d\n",
		name, p.SwitchedBound, p.ErasedBound, p.LoopBlocks)
	for _, g := range p.Groups {
		fmt.Fprintf(w, "%s: profile:   entangled channels %v\n", name, g)
	}
	for _, b := range p.Blocks {
		fmt.Fprintf(w, "%s: profile:   block %d [%#04x,%#04x): degree %d, writes %d, switched %d, erased %d\n",
			name, b.ID, b.Start, b.End, b.MaxDegree, b.QatWrites, b.SwitchedBits, b.ErasedBits)
	}
	fmt.Fprintf(w, "%s: profile: plan: %s\n", name, plan)
}

// printOptSummary renders the text-mode delta report and rewritten listing.
func printOptSummary(w io.Writer, name string, rep *opt.Report, asmLines []string) {
	if !rep.Applied {
		fmt.Fprintf(w, "%s: optimize: refused (%s): program returned unchanged\n", name, rep.Reason)
		return
	}
	fmt.Fprintf(w, "%s: optimize: applied in %d round(s): words %d -> %d, insts %d -> %d, switched bits %d -> %d, erased bits %d -> %d\n",
		name, rep.Rounds, rep.WordsBefore, rep.WordsAfter, rep.InstsBefore, rep.InstsAfter,
		rep.SwitchedBefore, rep.SwitchedAfter, rep.ErasedBefore, rep.ErasedAfter)
	for _, ps := range rep.Passes {
		if ps.Removed+ps.Rewritten > 0 {
			fmt.Fprintf(w, "%s: optimize:   %s: removed %d, rewrote %d\n", name, ps.Pass, ps.Removed, ps.Rewritten)
		}
	}
	for _, line := range asmLines {
		fmt.Fprintf(w, "%s: | %s\n", name, line)
	}
}
