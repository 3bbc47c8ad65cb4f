package backend

// The planner's cost budget. Every auto job pays for one lint analysis and
// one profile before it runs, so PlanAuto's allocation count is gated here;
// BenchmarkPlanAuto is the same call for timing and pprof work.

import (
	"testing"

	"tangled/internal/asm"
	"tangled/internal/compile"
	"tangled/internal/qat"
)

// planAutoAllocBudget bounds PlanAuto's allocations on wideSubsetSum, which
// takes about 120: a budget, not a pin, so unrelated small changes pass.
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
	cfg := qat.Config{Ways: 20, Backend: Auto}
	if plan, err := PlanAuto(prog, cfg, nil); err != nil || plan.Config.Backend != qat.BackendRE {
		t.Fatalf("plan %+v, err %v: want the RE backend", plan.Config, err)
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

func BenchmarkPlanAuto(b *testing.B) {
	prog := wideSubsetSum(b)
	cfg := qat.Config{Ways: 20, Backend: Auto}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := PlanAuto(prog, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}
