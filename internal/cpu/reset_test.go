package cpu

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"tangled/internal/asm"
	"tangled/internal/isa"
)

// These tests pin the pooled-reuse contract: Load fully re-initializes
// architectural state (and nothing else).

const haltSrc = "lex $0,0\nsys\n"

func TestLoadPreservesHostHooks(t *testing.T) {
	// The benchmarks (and any configure-once caller) set Out a single time
	// and Load repeatedly; Load must not detach it.
	prog, err := asm.Assemble("lex $0,1\nlex $1,3\nsys\nlex $0,0\nsys\n")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	m := New(2)
	m.Out = &out
	for i := 0; i < 2; i++ {
		if err := m.Load(prog); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(100); err != nil {
			t.Fatal(err)
		}
	}
	if got := out.String(); got != "3\n3\n" {
		t.Fatalf("output across reloads = %q, want %q", got, "3\n3\n")
	}
}

func TestRunContextCancellation(t *testing.T) {
	prog, err := asm.Assemble("loop:\nadd $1,$2\nbr loop\n")
	if err != nil {
		t.Fatal(err)
	}
	m := New(2)
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err = m.RunContext(ctx, 1<<62)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// The machine must remain reusable after cancellation.
	halt, err := asm.Assemble(haltSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(halt); err != nil {
		t.Fatal(err)
	}
	if err := m.RunContext(context.Background(), 100); err != nil {
		t.Fatalf("machine unusable after cancelled run: %v", err)
	}
}

func TestRunContextBudget(t *testing.T) {
	prog, err := asm.Assemble("loop:\nadd $1,$2\nbr loop\n")
	if err != nil {
		t.Fatal(err)
	}
	m := New(2)
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	if err := m.RunContext(context.Background(), 10_000); !errors.Is(err, ErrNoHalt) {
		t.Fatalf("err = %v, want ErrNoHalt", err)
	}
}

// TestReloadMatchesFreshMachine: at the paper's 16 ways, loading program B
// over a machine that ran program A — cut short by its step budget after
// writing Qat registers B reads but never writes — must leave all 256 Qat
// registers equal to a fresh machine that loaded B, and B must then run
// to the same state on both.
func TestReloadMatchesFreshMachine(t *testing.T) {
	progA, err := asm.Assemble("one @10\nhad @11,15\nnot @12\nswap @12,@200\nloop:\nbr loop\n")
	if err != nil {
		t.Fatal(err)
	}
	progB, err := asm.Assemble("lex $1,0\npop $1,@200\nlex $2,0\nnext $2,@11\nhad @20,3\nlex $0,0\nsys\n")
	if err != nil {
		t.Fatal(err)
	}
	reused, fresh := New(16), New(16)
	if err := reused.Load(progA); err != nil {
		t.Fatal(err)
	}
	if err := reused.Run(100); !errors.Is(err, ErrNoHalt) {
		t.Fatalf("program A: err = %v, want ErrNoHalt", err)
	}
	if !reused.Qat.Reg(200).Any() {
		t.Fatal("program A left @200 clear; the fixture exercises nothing")
	}
	for _, m := range []*Machine{reused, fresh} {
		if err := m.Load(progB); err != nil {
			t.Fatal(err)
		}
	}
	for q := 0; q < isa.NumQRegs; q++ {
		if !reused.Qat.Reg(uint8(q)).Equal(fresh.Qat.Reg(uint8(q))) {
			t.Fatalf("after reload @%d differs from a fresh machine's", q)
		}
	}
	for _, m := range []*Machine{reused, fresh} {
		if err := m.Run(100); err != nil {
			t.Fatal(err)
		}
	}
	if reused.Regs != fresh.Regs {
		t.Fatalf("program B on a reused machine: regs %v, fresh %v", reused.Regs, fresh.Regs)
	}
}
