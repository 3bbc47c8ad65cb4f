// Command bench is the repository benchmark. It measures the Tangled/Qat
// stack end to end on four workloads, each in fresh child processes over
// several rounds, checks every result, and prints every metric by name with
// its unit; the last line of its output is one JSON object with the gated
// metrics (or, with -trace 1, the per-layer ones). See README.md.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-rounds R] [-out FILE]
//	bash bench/run.sh -trace 1 [-spans FILE]
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

// options are the command-line settings a parent passes on to its children.
type options struct {
	workload string
	seed     int64
	seconds  float64 // timed seconds per workload, split evenly over the rounds
	rounds   int
	trace    bool
	spans    string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload to run: all, or one of "+fmt.Sprint(workloadNames))
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 24, "timed seconds per workload, split evenly over the rounds")
	fs.IntVar(&o.rounds, "rounds", 5, "rounds per workload, each in a fresh child process")
	trace := fs.Int("trace", 0, "1 runs one traced round per workload and reports the per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "with -trace 1, write the spans to this JSONL file")
	out := fs.String("out", "", "write every round's values and the host header to this JSON file")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments, with the bounds of ./BENCHMARK.json")
	child := fs.Int("child", -1, "internal: run this round of one workload and print its result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *trace == 1
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return runCompare("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if o.rounds < 1 || o.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: need -rounds >= 1, -seconds > 0 and -trace 0 or 1")
		return 2
	}
	if *child >= 0 {
		return runChild(o, *child, stdout, stderr)
	}
	return runParent(o, *out, stdout, stderr)
}

// runChild runs one round in this process and prints its result as JSON.
func runChild(o options, round int, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(childProcs)
	res, err := runRound(context.Background(), o, round)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s round %d: %v\n", o.workload, round, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// host is the header of a result file.
type host struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"vcs_revision,omitempty"`
	Seed       int64   `json:"seed"`
	Rounds     int     `json:"rounds"`
	Seconds    float64 `json:"seconds"`
	WindowS    float64 `json:"window_s"`
	WarmupS    float64 `json:"warmup_s"`
	Trace      bool    `json:"trace"`
}

// workloadReport is one workload's rounds and their medians.
type workloadReport struct {
	Name      string             `json:"name"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Medians   map[string]float64 `json:"medians"`
	Rounds    []roundResult      `json:"rounds"`
}

// report is the -out file.
type report struct {
	Host      host             `json:"host"`
	Workloads []workloadReport `json:"workloads"`
}

// runParent runs every round of every selected workload in a child
// process, rotating the workload order each round, then prints the medians
// and the closing JSON line.
func runParent(o options, out string, stdout, stderr io.Writer) int {
	names := workloadNames
	if o.workload != "all" {
		if _, err := newWorkload(o.workload, o.seed); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		names = []string{o.workload}
	}
	rounds := o.rounds
	if o.trace {
		rounds = 1
	}
	if o.spans != "" {
		if err := os.WriteFile(o.spans, nil, 0o644); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	byName := make(map[string][]roundResult)
	for r := 0; r < rounds; r++ {
		for i := range names {
			name := names[(i+r)%len(names)]
			co := o
			co.workload = name
			res, err := spawnChild(co, r, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s round %d: %v\n", name, r, err)
				return 1
			}
			byName[name] = append(byName[name], res)
		}
	}

	timed, warm := windowTimes(o)
	if o.trace {
		timed = tracedWindow(o)
	}
	rep := report{Host: host{NumCPU: runtime.NumCPU(), GOMAXPROCS: childProcs, GoVersion: runtime.Version(),
		Revision: revision(), Seed: o.seed, Rounds: rounds, Seconds: o.seconds, WindowS: timed.Seconds(),
		WarmupS: warm.Seconds(), Trace: o.trace}}
	for _, name := range names {
		rep.Workloads = append(rep.Workloads, summarize(name, byName[name]))
	}
	printReport(stdout, rep)
	if out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}

	line, ok := closingLine(rep, o.trace)
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	if !ok {
		return 1
	}
	return 0
}

// spawnChild runs round r of o.workload in a fresh process and decodes the
// result it prints.
func spawnChild(o options, r int, stderr io.Writer) (roundResult, error) {
	var res roundResult
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	timed, _ := windowTimes(o)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second+4*timed)
	defer cancel()
	args := []string{"-child", strconv.Itoa(r), "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-rounds", strconv.Itoa(o.rounds),
		"-trace", map[bool]string{false: "0", true: "1"}[o.trace], "-spans", o.spans}
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("child: %w", err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return res, fmt.Errorf("child result: %w", err)
	}
	return res, nil
}

// revision returns the VCS revision the binary was built from, if stamped.
func revision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	return ""
}

// summarize takes each metric's median over the rounds that report it.
func summarize(name string, rounds []roundResult) workloadReport {
	wr := workloadReport{Name: name, Medians: map[string]float64{}, Rounds: rounds}
	values := make(map[string][]float64)
	for _, r := range rounds {
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		wr.Problems = append(wr.Problems, r.Problems...)
		for k, v := range r.Metrics {
			values[k] = append(values[k], v)
		}
	}
	for k, vs := range values {
		wr.Medians[k] = median(vs)
	}
	return wr
}

// printReport prints every median with its unit, round values and sample
// counts.
func printReport(w io.Writer, rep report) {
	h := rep.Host
	fmt.Fprintf(w, "host: %d CPUs, GOMAXPROCS %d, %s, revision %q; seed %d, %d round(s) of %.3gs (+%.3gs warm-up), 1 client\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Revision, h.Seed, h.Rounds, h.WindowS, h.WarmupS)
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "== %s: %d ops attempted, %d failed\n", wr.Name, wr.Attempted, wr.Failed)
		for _, p := range wr.Problems {
			fmt.Fprintf(w, "   FAIL %s\n", p)
		}
		keys := make([]string, 0, len(wr.Medians))
		for k := range wr.Medians {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			var rounds []string
			for _, r := range wr.Rounds {
				if v, ok := r.Metrics[k]; ok {
					rounds = append(rounds, strconv.FormatFloat(v, 'g', 5, 64))
				}
			}
			fmt.Fprintf(w, "   %-34s %12.5g %-11s rounds %v\n", k, wr.Medians[k], unitOf(k), rounds)
		}
		for _, kind := range []string{"run", "batch"} {
			var n []int
			for _, r := range wr.Rounds {
				n = append(n, r.Samples[kind])
			}
			fmt.Fprintf(w, "   %-34s %v\n", kind+" samples", n)
		}
	}
}

// metricValue is one metric of the closing JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the closing JSON line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// closingLine builds the closing line: the end-to-end metrics, or with
// tracing the per-layer ones, named plainly for a single workload and
// prefixed by the workload's name otherwise. ok is false when a check
// failed or a metric is missing.
func closingLine(rep report, traced bool) (resultLine, bool) {
	names := endToEnd
	if traced {
		names = perLayer
	}
	line := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	ok := true
	for _, wr := range rep.Workloads {
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		if wr.Failed > 0 || len(wr.Problems) > 0 {
			line.Correct = false
		}
		for _, n := range names {
			v, have := wr.Medians[n]
			if !have {
				ok = false
				continue
			}
			key := n
			if len(rep.Workloads) > 1 {
				key = wr.Name + "/" + n
			}
			line.Metrics[key] = metricValue{Value: v, Unit: unitOf(n)}
		}
	}
	return line, ok && line.Correct
}
