// Package gates is an analytic gate-level cost model for the Qat datapath
// structures discussed in Section 3 of the paper: the Figure 7 Hadamard
// initializer and the Figure 8 next-instruction circuit (barrel shifter +
// recursive count-trailing-zeros). The paper reasons about these costs to
// decide which operations deserve hardware ("this operation might be
// performed with O(WAYS) gate delays, but could approach O(WAYS^2) gate
// delays if the hardware implements the OR-reductions of step 2 using a
// tree of very narrow (e.g., 2-input) OR gates"); this package makes those
// estimates computable so the claims can be tabulated and benchmarked.
//
// Counting conventions: a 2:1 multiplexer bit counts as one "gate" and one
// level; an f-input OR counts as one gate and one level; an f-ary reduction
// of n inputs therefore costs ceil((n-1)/(f-1)) gates in ceil(log_f n)
// levels. These unit-delay conventions follow standard logical-effort-free
// textbook analysis — the shape of the scaling, not absolute FPGA timing,
// is what the paper's argument (and our reproduction) relies on.
package gates

import (
	"fmt"
	"math"
)

// Cost is a gate-count and levels-of-logic (critical path) estimate.
type Cost struct {
	Gates  uint64
	Levels int
}

// add composes sequential circuit sections.
func (c Cost) add(o Cost) Cost {
	return Cost{Gates: c.Gates + o.Gates, Levels: c.Levels + o.Levels}
}

// WideOR marks an OR-reduction fanin as "whatever the technology gives in
// one level" — the optimistic end of the paper's range.
const WideOR = 0

func checkWays(ways int) {
	if ways < 1 || ways > 30 {
		panic(fmt.Sprintf("gates: ways %d out of range", ways))
	}
}

// orReduce returns the cost of OR-reducing n bits with the given fanin
// (WideOR = single level, one gate).
func orReduce(n uint64, fanin int) Cost {
	if n <= 1 {
		return Cost{}
	}
	if fanin == WideOR {
		return Cost{Gates: 1, Levels: 1}
	}
	if fanin < 2 {
		panic("gates: fanin must be >= 2 or WideOR")
	}
	gates := (n - 1 + uint64(fanin) - 2) / uint64(fanin-1) // ceil((n-1)/(f-1))
	levels := int(math.Ceil(math.Log(float64(n)) / math.Log(float64(fanin))))
	return Cost{Gates: gates, Levels: levels}
}

// BarrelShiftCost models step 1 of Figure 8: masking away channels <= s
// needs a right-shift-then-left-shift over 2^WAYS bits, i.e. 2*WAYS mux
// stages of 2^WAYS bits each. "A barrel shifter generally requires
// O(log2 N) gate delays for N bits, or O(WAYS) gate delays for AoB".
func BarrelShiftCost(ways int) Cost {
	checkWays(ways)
	n := uint64(1) << uint(ways)
	return Cost{Gates: 2 * uint64(ways) * n, Levels: 2 * ways}
}

// CTZCost models step 2 of Figure 8: WAYS levels of halve-and-test. Level
// pow2 OR-reduces 2^pow2 bits to decide result bit pow2, then muxes the
// surviving half (2^pow2 2:1 muxes, one level).
func CTZCost(ways, orFanin int) Cost {
	checkWays(ways)
	var total Cost
	for pow2 := ways - 1; pow2 >= 0; pow2-- {
		half := uint64(1) << uint(pow2)
		total = total.add(orReduce(half, orFanin))
		total = total.add(Cost{Gates: half, Levels: 1})
	}
	return total
}

// NextCost is the full Figure 8 next circuit: barrel shifter then CTZ.
func NextCost(ways, orFanin int) Cost {
	return BarrelShiftCost(ways).add(CTZCost(ways, orFanin))
}

// PopCost models the proposed pop instruction sharing the next datapath:
// the same masking shifter followed by a carry-save population count tree
// (an adder tree of depth ~WAYS over 2^WAYS bits; roughly one full adder
// per input bit).
func PopCost(ways int) Cost {
	checkWays(ways)
	n := uint64(1) << uint(ways)
	counter := Cost{Gates: n, Levels: ways + 1}
	return BarrelShiftCost(ways).add(counter)
}

// HadMuxCost models the Figure 7 had instruction as the student teams built
// it: "a lookup table expressed as a Verilog combinatorial always selecting
// the appropriate constant pattern using a case statement (multiplexor)" —
// per output bit, a WAYS:1 constant mux (WAYS-1 2:1 muxes in ceil(log2
// WAYS) levels).
func HadMuxCost(ways int) Cost {
	checkWays(ways)
	n := uint64(1) << uint(ways)
	muxesPerBit := uint64(ways - 1)
	levels := 0
	for w := 1; w < ways; w *= 2 {
		levels++
	}
	if ways == 1 {
		levels = 0
	}
	return Cost{Gates: n * muxesPerBit, Levels: levels}
}

// HadConstRegBits is the Section 3.2/Section 5 alternative: replace the
// had/zero/one instructions with pre-initialized registers. The cost is
// pure storage — WAYS+2 extra registers of 2^WAYS bits — and zero gates of
// datapath logic.
func HadConstRegBits(ways int) uint64 {
	checkWays(ways)
	return uint64(ways+2) << uint(ways)
}

// LogicOpCost is any of the channel-wise and/or/xor/not datapaths: one gate
// per channel, one level — the trivially combinational operations.
func LogicOpCost(ways int) Cost {
	checkWays(ways)
	return Cost{Gates: uint64(1) << uint(ways), Levels: 1}
}

// PortCosts tabulates the register-file port requirements of each
// instruction class, the Section 5 hardware-justification argument.
type PortCosts struct {
	ReadPorts  int
	WritePorts int
}

// PortsFor returns the Qat register file ports an instruction class needs.
func PortsFor(class string) (PortCosts, error) {
	switch class {
	case "and", "or", "xor", "cnot":
		return PortCosts{ReadPorts: 2, WritePorts: 1}, nil
	case "not", "zero", "one", "had":
		return PortCosts{ReadPorts: 1, WritePorts: 1}, nil
	case "ccnot":
		return PortCosts{ReadPorts: 3, WritePorts: 1}, nil
	case "swap":
		return PortCosts{ReadPorts: 2, WritePorts: 2}, nil
	case "cswap":
		return PortCosts{ReadPorts: 3, WritePorts: 2}, nil
	case "meas", "next", "pop":
		return PortCosts{ReadPorts: 1, WritePorts: 0}, nil
	default:
		return PortCosts{}, fmt.Errorf("gates: unknown instruction class %q", class)
	}
}
