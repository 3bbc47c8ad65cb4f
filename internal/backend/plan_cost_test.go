package backend

// The planner's cost budget. An auto job that reaches rule 4 pays for one
// lint analysis and one profile before it runs, so PlanAuto's allocation
// count on that path is gated here; the cheap rules (a memo hit, a
// width-forced RE plan) must not analyze at all. BenchmarkPlanAuto times
// both paths for pprof work.

import (
	"fmt"
	"testing"

	"tangled/internal/asm"
	"tangled/internal/compile"
	"tangled/internal/qat"
)

// planAutoAllocBudget bounds PlanAuto's allocations on wideSubsetSum at
// 16 ways with no probe, which lints and profiles and takes about 120: a
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
	cfg := qat.Config{Ways: 16, Backend: Auto}
	plan, err := PlanAuto(prog, cfg, nil)
	if err != nil || plan.Profile == nil {
		t.Fatalf("plan %+v, err %v: want a rule-4 plan with a profile", plan, err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := PlanAuto(prog, cfg, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > planAutoAllocBudget {
		t.Fatalf("PlanAuto allocates %.0f times per call, budget %d", allocs, planAutoAllocBudget)
	}
}

// TestPlanAutoSkipsAnalysis: a plan decided by the width or by the memo
// reads no profile, so it neither lints nor profiles.
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
	} {
		plan, err := PlanAuto(prog, tc.cfg, tc.probe)
		if err != nil || plan.Config.Backend != tc.want || plan.Profile != nil {
			t.Fatalf("%s: plan %+v, err %v: want %s with no profile", tc.name, plan, err, tc.want)
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

// BenchmarkPlanAuto times the analyzing path (16 ways, rule 4) and the
// width-forced path (20 ways).
func BenchmarkPlanAuto(b *testing.B) {
	prog := wideSubsetSum(b)
	for _, ways := range []int{16, 20} {
		b.Run(fmt.Sprintf("ways=%d", ways), func(b *testing.B) {
			cfg := qat.Config{Ways: ways, Backend: Auto}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := PlanAuto(prog, cfg, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
