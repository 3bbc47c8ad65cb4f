package backend

// The planner's cost budget. Only an unservable width pays for a lint
// analysis and a profile (the error carries it), so PlanAuto's allocation
// count on that path is gated here; every servable plan (a memo hit, a
// width-forced RE plan, the dense default) must not analyze at all.
// BenchmarkPlanAuto times each path for pprof work.

import (
	"errors"
	"fmt"
	"testing"

	"tangled/internal/asm"
	"tangled/internal/compile"
	"tangled/internal/qat"
)

// planAutoAllocBudget bounds PlanAuto's allocations on wideSubsetSum at
// the unservable width 25, which lints and profiles and takes about 120: a
// budget, not a pin, so unrelated small changes pass.
const planAutoAllocBudget = 400

// wideSubsetSum compiles a 16-item subset-sum program, the shape of a
// program that must run past the dense width.
func wideSubsetSum(tb testing.TB) *asm.Program {
	tb.Helper()
	weights := []uint64{17, 29, 21, 16, 30, 24, 19, 27, 22, 31, 18, 25, 20, 28, 23, 26}
	res, err := compile.SubsetSumProgram(weights, 200, 16, compile.Options{Reuse: true})
	if err != nil {
		tb.Fatal(err)
	}
	p, err := asm.Assemble(res.Asm)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func TestPlanAutoAllocs(t *testing.T) {
	prog := wideSubsetSum(t)
	cfg := qat.Config{Ways: qat.MaxREWays + 1, Backend: Auto}
	var ue *UnservableError
	if _, err := PlanAuto(prog, cfg, nil); !errors.As(err, &ue) || ue.Profile == nil {
		t.Fatalf("err %v: want an UnservableError with a profile", err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := PlanAuto(prog, cfg, nil); !errors.As(err, &ue) {
			t.Fatal(err)
		}
	})
	if allocs > planAutoAllocBudget {
		t.Fatalf("PlanAuto allocates %.0f times per call, budget %d", allocs, planAutoAllocBudget)
	}
}

// TestPlanAutoSkipsAnalysis: a servable plan, decided by the memo or the
// width, reads no profile, so it neither lints nor profiles.
func TestPlanAutoSkipsAnalysis(t *testing.T) {
	prog := wideSubsetSum(t)
	hit := func(c qat.Config) bool { return c.Backend == qat.BackendDense }
	for _, tc := range []struct {
		name  string
		cfg   qat.Config
		probe func(qat.Config) bool
		want  string
	}{
		{"width-forced", qat.Config{Ways: 20, Backend: Auto}, nil, qat.BackendRE},
		{"memo-hit", qat.Config{Ways: 16, Backend: Auto}, hit, qat.BackendDense},
		{"dense default", qat.Config{Ways: 16, Backend: Auto}, nil, qat.BackendDense},
	} {
		plan, err := PlanAuto(prog, tc.cfg, tc.probe)
		if err != nil || plan.Config.Backend != tc.want {
			t.Fatalf("%s: plan %+v, err %v: want %s", tc.name, plan, err, tc.want)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := PlanAuto(prog, tc.cfg, tc.probe); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Fatalf("%s: PlanAuto allocates %.0f times per call, budget 2", tc.name, allocs)
		}
	}
}

// BenchmarkPlanAuto times the dense default (16 ways), the width-forced
// path (20 ways) and the one analyzing path, an unservable width (25 ways).
func BenchmarkPlanAuto(b *testing.B) {
	prog := wideSubsetSum(b)
	for _, ways := range []int{16, 20, qat.MaxREWays + 1} {
		b.Run(fmt.Sprintf("ways=%d", ways), func(b *testing.B) {
			cfg := qat.Config{Ways: ways, Backend: Auto}
			var ue *UnservableError
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := PlanAuto(prog, cfg, nil); err != nil && !errors.As(err, &ue) {
					b.Fatal(err)
				}
			}
		})
	}
}
