package qasm

import (
	"context"
	"strings"
	"testing"

	"tangled/internal/compile"
	"tangled/internal/farm"
	"tangled/internal/pipeline"
)

func TestFactorBatch(t *testing.T) {
	ns := []uint64{15, 21, 35}
	pcfg := pipeline.Config{Stages: 5, Ways: 12, Forwarding: true, MulLatency: 1, QatNextLatency: 1}
	reports, stats, err := FactorBatchOn(context.Background(), farm.New(2), ns, 6, 6, compile.Options{Reuse: true}, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range ns {
		rep := reports[i]
		if rep == nil {
			t.Fatalf("no report for %d", n)
		}
		if p, q := uint64(rep.Factors[0]), uint64(rep.Factors[1]); p*q != n || p == 1 || q == 1 {
			t.Fatalf("%d factored as %d x %d", n, p, q)
		}
		if rep.Result == nil || rep.Result.Pipe == nil || rep.Result.Pipe.Cycles == 0 {
			t.Fatalf("%d: missing pipeline accounting: %+v", n, rep.Result)
		}
	}
	if stats.Jobs != 3 || stats.Errors != 0 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestFactorBatchReportsGenerationErrors(t *testing.T) {
	// 255 does not fit the 6-bit first operand; 15 still succeeds.
	ns := []uint64{255, 15}
	pcfg := pipeline.Config{Stages: 4, Ways: 12, Forwarding: true, MulLatency: 1, QatNextLatency: 1}
	reports, _, err := FactorBatchOn(context.Background(), farm.New(1), ns, 6, 6, compile.Options{Reuse: true}, pcfg)
	if err == nil || !strings.Contains(err.Error(), "255") {
		t.Fatalf("expected a generation error naming 255, got %v", err)
	}
	if reports[0] != nil {
		t.Fatalf("failed slot should be nil, got %+v", reports[0])
	}
	if reports[1] == nil || uint64(reports[1].Factors[0])*uint64(reports[1].Factors[1]) != 15 {
		t.Fatalf("15 should still factor: %+v", reports[1])
	}
}
