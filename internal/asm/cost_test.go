package asm

// The assembler's cost budget. Every served program is assembled at least
// once, so Assemble's allocation count is gated here; BenchmarkAssemble is
// the same work for timing and pprof.

import (
	"testing"

	"tangled/internal/farm/farmtest"
)

// assembleAllocBudget bounds the mean allocations per Assemble over the
// first costPrograms corpus programs, which take eight: a budget, not a
// pin, so unrelated small changes pass.
const assembleAllocBudget = 24

const costPrograms = 20

func costCorpus() []string {
	srcs := make([]string, costPrograms)
	for i := range srcs {
		srcs[i] = farmtest.Generate(farmtest.Seed(i))
	}
	return srcs
}

func TestAssembleAllocs(t *testing.T) {
	var total float64
	for _, src := range costCorpus() {
		total += testing.AllocsPerRun(10, func() {
			if _, err := Assemble(src); err != nil {
				t.Fatal(err)
			}
		})
	}
	if mean := total / costPrograms; mean > assembleAllocBudget {
		t.Fatalf("Assemble allocates %.1f times per program, budget %d", mean, assembleAllocBudget)
	}
}

// BenchmarkAssemble reports the cost of one Assemble, cycling through the
// corpus programs.
func BenchmarkAssemble(b *testing.B) {
	srcs := costCorpus()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Assemble(srcs[i%len(srcs)]); err != nil {
			b.Fatal(err)
		}
	}
}
