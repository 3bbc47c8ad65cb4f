package oracle

// Dynamic entanglement-degree measurement: the ground truth the static
// profiler (internal/profile) is checked against. The degree of a register
// value is the number of channel index bits its dense vector actually
// varies over — exactly the quantity profile.Compute upper-bounds with its
// dependence sets. The differential suite runs the corpus on the dense
// backend with a trace hook and asserts static >= dynamic per register.

import (
	"tangled/internal/aob"
	"tangled/internal/asm"
	"tangled/internal/cpu"
	"tangled/internal/isa"
	"tangled/internal/qat"
)

// VectorDegree returns the dynamic entanglement degree of v at the given
// width: the count of channel index bits k for which some channel pair
// (ch, ch^2^k) disagrees. A constant vector has degree 0; a single had
// degree 1.
func VectorDegree(v *aob.Vector, ways int) int {
	n := uint64(1) << uint(ways)
	deg := 0
	for k := 0; k < ways; k++ {
		bit := uint64(1) << uint(k)
		for ch := uint64(0); ch < n; ch++ {
			if ch&bit != 0 {
				continue // each pair once, from its low side
			}
			if v.Get(ch) != v.Get(ch|bit) {
				deg++
				break
			}
		}
	}
	return deg
}

// MaxEntanglementDegree executes prog on the dense backend at the given
// width and returns, per Qat register, the maximum dynamic degree observed
// after any write to it. The run's own failure (budget exhaustion, a
// faulting had index) is returned alongside whatever was measured up to
// that point — a sound profiler must bound the partial observations too.
//
// The machine's trace hook fires before an instruction executes, so each
// write is measured at the next hook invocation (and once more after the
// run returns) — the pending-instruction pattern.
func MaxEntanglementDegree(prog *asm.Program, ways int, maxSteps uint64) ([isa.NumQRegs]int, error) {
	var max [isa.NumQRegs]int
	m, err := cpu.NewFromConfig(qat.Config{Ways: ways})
	if err != nil {
		return max, err
	}
	if err := m.Load(prog); err != nil {
		return max, err
	}
	var pending []uint8
	measure := func() {
		for _, q := range pending {
			if d := VectorDegree(m.Qat.Reg(q), ways); d > max[q] {
				max[q] = d
			}
		}
		pending = pending[:0]
	}
	m.Trace = func(pc uint16, inst isa.Inst) {
		measure()
		eff := isa.InstEffects(inst)
		pending = append(pending, eff.QWrites[:eff.NQWrites]...)
	}
	runErr := m.Run(maxSteps)
	measure()
	return max, runErr
}
