package pipeline_test

// FuzzRawModes runs raw word images — 1 to 64 words, most of them nothing
// the assembler would emit — on the four execution models at
// farmtest.Ways: the dense and RE functional machines and the 4- and
// 5-stage pipelines. They must agree on the final registers, the sys
// output, the retired instruction count and the error text, compared with
// its "cpu: "/"pipeline: " prefix stripped. These are the executor's
// failure paths (illegal words, faults, runaway loops) that the
// well-formed corpus never reaches. The package is external so it can
// import farmtest for its seeds.

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"tangled/internal/asm"
	"tangled/internal/cpu"
	"tangled/internal/farm/farmtest"
	"tangled/internal/isa"
	"tangled/internal/pipeline"
	"tangled/internal/qat"
)

// fuzzSteps bounds each functional run. A pipeline retires at most one
// instruction per cycle, so it gets fuzzCycles when the functional run
// finished inside its budget, and fuzzSteps cycles when it did not.
const (
	fuzzSteps  = 4096
	fuzzCycles = 8*fuzzSteps + 64
)

// outcome is what the four models must agree on.
type outcome struct {
	regs  [isa.NumRegs]uint16
	out   string
	insts uint64
	err   string
}

// errText drops the model's package prefix from an error's text.
func errText(err error) string {
	if err == nil {
		return ""
	}
	s := err.Error()
	for _, p := range []string{"cpu: ", "pipeline: "} {
		s = strings.TrimPrefix(s, p)
	}
	return s
}

func runFunctional(t *testing.T, prog *asm.Program, backend string) (outcome, error) {
	m, err := cpu.NewFromConfig(qat.Config{Ways: farmtest.Ways, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	m.Out = &out
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	runErr := m.Run(fuzzSteps)
	return outcome{m.Regs, out.String(), m.Stats.Insts, errText(runErr)}, runErr
}

func runPipelined(t *testing.T, prog *asm.Program, stages int, cycles uint64) (outcome, error) {
	p, err := pipeline.New(pipeline.Config{Stages: stages, Ways: farmtest.Ways,
		Forwarding: true, MulLatency: 1, QatNextLatency: 1})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	p.SetOutput(&out)
	if err := p.Load(prog); err != nil {
		t.Fatal(err)
	}
	runErr := p.Run(cycles)
	return outcome{p.Machine().Regs, out.String(), p.Stats.Insts, errText(runErr)}, runErr
}

func FuzzRawModes(f *testing.F) {
	for i := 0; i < 8; i++ {
		prog, err := asm.Assemble(farmtest.Generate(farmtest.Seed(i)))
		if err != nil {
			f.Fatal(err)
		}
		words := prog.Words[:min(len(prog.Words), 64)]
		raw := make([]byte, 0, 2*len(words))
		for _, w := range words {
			raw = binary.LittleEndian.AppendUint16(raw, w)
		}
		f.Add(raw)
	}
	f.Add([]byte{0xff, 0xff})
	f.Add([]byte{0x00, 0x00})
	// A fault behind an executed instruction: an illegal word (decode
	// fault), and `had` past the hardware's ways (execution fault).
	f.Add([]byte{0x30, 0x30, 0x30, 0x43})
	f.Add([]byte{0x30, 0x58, 0x30, 0x30})

	f.Fuzz(func(t *testing.T, raw []byte) {
		n := min(len(raw)/2, 64)
		if n == 0 {
			return
		}
		prog := &asm.Program{Words: make([]uint16, n)}
		for i := range prog.Words {
			prog.Words[i] = binary.LittleEndian.Uint16(raw[2*i:])
		}

		dense, denseErr := runFunctional(t, prog, qat.BackendDense)
		if re, _ := runFunctional(t, prog, qat.BackendRE); re != dense {
			t.Fatalf("%04x:\ndense %+v\nre    %+v", prog.Words, dense, re)
		}
		for _, stages := range []int{4, 5} {
			if errors.Is(denseErr, cpu.ErrNoHalt) {
				// Fewer instructions than the functional run retired: the
				// pipeline must not halt or fault either.
				if _, err := runPipelined(t, prog, stages, fuzzSteps); !errors.Is(err, pipeline.ErrNoHalt) {
					t.Fatalf("%04x: functional ran out of steps, pipe%d ended with %v", prog.Words, stages, err)
				}
				continue
			}
			if pipe, _ := runPipelined(t, prog, stages, fuzzCycles); pipe != dense {
				t.Fatalf("%04x:\nfunctional %+v\npipe%d      %+v", prog.Words, dense, stages, pipe)
			}
		}
	})
}
