package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// gatedMetric is one end-to-end metric of BENCHMARK.json.
type gatedMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// setupNoise is the absolute setup_s change -compare ignores.
const setupNoise = 0.005

// exactMetrics are gated by -compare beyond BENCHMARK.json, which holds
// only metrics every workload reports: sim_cpi must not change at all and
// fail_frac must not rise.
var exactMetrics = []gatedMetric{{Name: "sim_cpi", Better: "lower"}, {Name: "fail_frac", Better: "lower"}}

// readJSON decodes the JSON file at path into v.
func readJSON(path string, v interface{}) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runCompare prints, for every gated metric of every workload in both
// result files, both medians, each side's round spread, the bound and a
// verdict. It exits 1 when any verdict is "worse".
func runCompare(benchPath, aPath, bPath string, stdout, stderr io.Writer) int {
	var bench struct {
		EndToEnd []gatedMetric `json:"end_to_end"`
	}
	var a, b report
	for _, f := range []struct {
		path string
		v    interface{}
	}{{benchPath, &bench}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	worse := 0
	fmt.Fprintf(stdout, "%-13s %-20s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "a", "b", "change", "spr.a", "spr.b", "bound", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			continue
		}
		for _, g := range append(append([]gatedMetric(nil), bench.EndToEnd...), exactMetrics...) {
			av, bv := roundValues(wa, g.Name), roundValues(*wb, g.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v := verdict(g, av, bv)
			if v == "worse" {
				worse++
			}
			am, bm := median(av), median(bv)
			change := 0.0
			if bm != am {
				change = (bm - am) / math.Abs(am)
			}
			fmt.Fprintf(stdout, "%-13s %-20s %12.5g %12.5g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				wa.Name, g.Name, am, bm, 100*change, 100*spread(av), 100*spread(bv), 100*g.Bound, v)
		}
	}
	if worse > 0 {
		return 1
	}
	return 0
}

// roundValues returns a metric's per-round values.
func roundValues(w workloadReport, name string) []float64 {
	var vs []float64
	for _, r := range w.Rounds {
		if v, ok := r.Metrics[name]; ok {
			vs = append(vs, v)
		}
	}
	return vs
}

// verdict judges b against a. A zero bound demands no change in the worse
// direction. Otherwise b is "worse" when its median is worse than a's by
// more than the bound, and "unresolved" when either side's rounds spread
// wider than the bound, unless every round of b beats every round of a.
func verdict(g gatedMetric, av, bv []float64) string {
	sign := 1.0 // positive change = worse
	if g.Better == "higher" {
		sign = -1
	}
	am, bm := median(av), median(bv)
	change := sign * (bm - am)
	if g.Bound == 0 {
		if change > 0 {
			return "worse"
		}
		return "ok"
	}
	if g.Name == "setup_s" && math.Abs(bm-am) < setupNoise {
		return "ok"
	}
	beatsAll := true
	for _, x := range bv {
		for _, y := range av {
			if sign*(x-y) >= 0 {
				beatsAll = false
			}
		}
	}
	if math.Max(spread(av), spread(bv)) > g.Bound && !beatsAll {
		return "unresolved"
	}
	if change > g.Bound*math.Abs(am) {
		return "worse"
	}
	return "ok"
}
