package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 100, 5},
		{[]float64{1, 2, 3, 4, 5}, 25, 2},
		{[]float64{10, 20}, 90, 19},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	if median(xs); !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", xs)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, p, ok := tailPercentile(xs); !ok || p != 99 {
		t.Errorf("1000 samples: p%v ok=%v, want p99", p, ok)
	}
	if _, p, ok := tailPercentile(xs[:200]); !ok || p != 95 {
		t.Errorf("200 samples: p%v ok=%v, want p95", p, ok)
	}
	if _, _, ok := tailPercentile(xs[:50]); ok {
		t.Error("50 samples: a tail percentile with fewer than 10 samples beyond it")
	}
}

func TestSelfTimeAndSpread(t *testing.T) {
	if got := selfTime([]float64{10, 12, 14}, []float64{3, 4, 5}); got != 8 {
		t.Errorf("selfTime = %v, want 8", got)
	}
	if got := spread([]float64{9, 10, 11}); got != 0.2 {
		t.Errorf("spread = %v, want 0.2", got)
	}
}

func TestEntryIndexDealsEvenly(t *testing.T) {
	for n := 1; n <= 4; n++ {
		count := map[[2]int]int{}
		for k := 0; k < 4*12*n; k++ {
			count[[2]int{k % 4 / 3, entryIndex(k, n)}]++
		}
		for e := 0; e < n; e++ {
			if count[[2]int{0, e}] != 36 || count[[2]int{1, e}] != 12 {
				t.Errorf("n=%d: entry %d got %d runs and %d batches, want 36 and 12",
					n, e, count[[2]int{0, e}], count[[2]int{1, e}])
			}
		}
	}
}

// inputs lists the programs a workload would send for its first operations.
func inputs(t *testing.T, name string, seed int64) []string {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	switch w := w.(type) {
	case *farmWorkload:
		return w.srcs
	case *serveWorkload:
		var srcs []string
		for k := 0; k < 8; k++ {
			for j := 0; j < programs(k); j++ {
				id := w.progID(k, j)
				if id < len(w.hot) {
					srcs = append(srcs, w.hot[id])
				} else {
					srcs = append(srcs, w.genSrc(id))
				}
			}
		}
		return srcs
	}
	t.Fatalf("unknown workload type %T", w)
	return nil
}

func TestSeedDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		a, b, c := inputs(t, name, 1), inputs(t, name, 1), inputs(t, name, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave identical inputs", name)
		}
	}
}

func TestProgramIndexIsDense(t *testing.T) {
	next := programIndex(5, 0)
	for k := 5; k < 5+4*6; k++ {
		for j := 0; j < programs(k); j++ {
			if got := programIndex(k, j); got != next {
				t.Fatalf("programIndex(%d, %d) = %d, want %d", k, j, got, next)
			}
			next++
		}
	}
}

// TestPoolMatchesGenerator checks that the arena-backed pool hands out
// exactly the programs the generator makes, across several arena chunks.
// The checker cannot catch a wrong pool entry: it takes its reference
// program from the same pool.
func TestPoolMatchesGenerator(t *testing.T) {
	for _, name := range []string{"serve-unique", "serve-repeat"} {
		w, err := newWorkload(name, 5)
		if err != nil {
			t.Fatal(err)
		}
		sw := w.(*serveWorkload)
		s := &serveSystem{w: sw}
		const first, n = 2, 1000
		if err := s.prepare(first, n); err != nil {
			t.Fatal(err)
		}
		if len(s.pool.chunks) < 2 && name == "serve-unique" {
			t.Errorf("%s: %d arena chunk(s); the test should cross a chunk boundary", name, len(s.pool.chunks))
		}
		for k := first - 1; k <= first+n; k++ {
			for j := 0; j < programs(k); j++ {
				id := sw.progID(k, j)
				want := sw.genSrc(id)
				if id < len(sw.hot) {
					want = sw.hot[id]
				}
				if got := s.src(id); got != want {
					t.Fatalf("%s: operation %d program %d: pool and generator differ", name, k, j)
				}
			}
		}
		if err := s.close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestServeUniqueProgramsAreDistinct(t *testing.T) {
	srcs := inputs(t, "serve-unique", 1)
	seen := map[string]bool{}
	for _, s := range srcs {
		if seen[s] {
			t.Fatal("serve-unique repeated a program")
		}
		seen[s] = true
	}
}

// TestCheckerRejectsCorruption runs a run and a batch of each workload
// through its users' path, checks that the checker accepts them, then
// corrupts one result and checks that it is rejected.
func TestCheckerRejectsCorruption(t *testing.T) {
	corrupt := map[string]func(o *outcome){
		"sim-factor16": func(o *outcome) { o.regs[4]++ },
		"wide-auto20":  func(o *outcome) { o.backend = "dense" },
		"serve-unique": func(o *outcome) { o.output += "x" },
		"serve-repeat": func(o *outcome) { o.insts++ },
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := w.setup(false)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.close()
			ctx := context.Background()
			if wm, ok := sys.(interface{ warm(context.Context) error }); ok {
				if err := wm.warm(ctx); err != nil {
					t.Fatal(err)
				}
			}
			// Operation 0 runs one program and operation 3 a batch of all.
			var good []*opRecord
			for _, k := range []int{0, 3} {
				outs, err := sys.entries()[0].run(ctx, k, nil)
				if err != nil {
					t.Fatal(err)
				}
				good = append(good, &opRecord{k: k, outs: outs})
			}
			if problems, _ := w.check(sys, good); good[0].bad != "" || good[1].bad != "" || len(problems) > 0 {
				t.Fatalf("correct results rejected: %q %q %v", good[0].bad, good[1].bad, problems)
			}
			bad := &opRecord{k: 3, outs: append([]outcome(nil), good[1].outs...)}
			corrupt[name](&bad.outs[0])
			w.check(sys, []*opRecord{good[0], bad})
			if bad.bad == "" {
				t.Fatal("corrupted result accepted")
			}
		})
	}
}

// TestSmoke runs a short round of every workload, untraced and traced, and
// checks that every result is correct and every reported metric present.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := options{workload: name, seed: 3, seconds: 0.12, rounds: 1, trace: traced}
			res, err := runRound(context.Background(), o, 0)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if res.Failed > 0 || len(res.Problems) > 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", name, traced, res.Failed, res.Attempted, res.Problems)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			for _, m := range want {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m)
				}
			}
		}
	}
}

func TestClosingLine(t *testing.T) {
	rep := report{Workloads: []workloadReport{{Name: "w", Attempted: 4, Medians: map[string]float64{}}}}
	for _, m := range endToEnd {
		rep.Workloads[0].Medians[m] = 1.5
	}
	line, ok := closingLine(rep, false)
	if !ok || !line.Correct || line.Attempted != 4 || len(line.Metrics) != len(endToEnd) {
		t.Fatalf("closingLine = %+v, %v", line, ok)
	}
	if got := line.Metrics["run_p50_ms"]; got != (metricValue{1.5, "ms"}) {
		t.Errorf("run_p50_ms = %+v", got)
	}
	delete(rep.Workloads[0].Medians, "setup_s")
	if _, ok := closingLine(rep, false); ok {
		t.Error("a missing metric was not reported")
	}
	rep.Workloads[0].Medians["setup_s"] = 1
	rep.Workloads[0].Failed = 1
	if line, ok := closingLine(rep, false); ok || line.Correct {
		t.Error("a failed operation was not reported")
	}
}

func TestVerdict(t *testing.T) {
	lower := gatedMetric{Name: "run_p50_ms", Better: "lower", Bound: 0.1}
	higher := gatedMetric{Name: "programs_per_cpu_s", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		g      gatedMetric
		a, b   []float64
		expect string
	}{
		{lower, []float64{10, 10.1, 9.9}, []float64{10.5, 10.4, 10.6}, "ok"},
		{lower, []float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, "worse"},
		{lower, []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, "ok"},
		{lower, []float64{10, 14, 9}, []float64{10, 10.1, 9.9}, "unresolved"},
		{lower, []float64{10, 14, 9}, []float64{5, 6, 7}, "ok"},
		{higher, []float64{100, 101, 99}, []float64{85, 86, 84}, "worse"},
		{higher, []float64{100, 101, 99}, []float64{120, 121, 119}, "ok"},
		{gatedMetric{Name: "sim_cpi"}, []float64{1.01}, []float64{1.02}, "worse"},
		{gatedMetric{Name: "setup_s", Better: "lower", Bound: 0.1}, []float64{0.001}, []float64{0.002}, "ok"},
	} {
		if got := verdict(c.g, c.a, c.b); got != c.expect {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.g.Name, c.a, c.b, got, c.expect)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the workloads
// and metrics this command reports, with their units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	for _, c := range []struct {
		got  []metric
		want []string
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%d metrics, want %d", len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.Name != c.want[i] || m.Unit != unitOf(m.Name) {
				t.Errorf("metric %d: %s in %s, want %s in %s", i, m.Name, m.Unit, c.want[i], unitOf(c.want[i]))
			}
		}
	}
}
