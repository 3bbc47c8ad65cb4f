// Package energy models the switching-energy and adiabatic-logic arguments
// the paper makes about Qat's datapath. The paper repeatedly connects
// reversible gates to power: "adiabatic logic reduces power consumption by
// balancing every logic 1 with a logic 0", the swap gates' "billiard-ball
// conservancy ... could simplify reducing Qat's power consumption by using
// a (conventional) adiabatic logic implementation", and the conclusions ask
// "how much power savings it will provide".
//
// Two standard first-order proxies are tracked per executed Qat
// instruction:
//
//   - SwitchedBits: register bits that actually toggled — the conventional
//     CMOS dynamic-power proxy (each toggle charges/discharges a node).
//   - ErasedBits: toggled bits written by logically irreversible operations
//     (and/or/xor/zero/one/had overwrite their destination so its prior
//     value is unrecoverable) — the Landauer-bound proxy. Reversible
//     operations (not, cnot, ccnot, swap, cswap) are self-inverse, so an
//     adiabatic implementation can in principle recover their switching
//     energy; their toggles never count as erased.
//
// The meter plugs into the Qat coprocessor (qat.Coprocessor.Meter) and the
// S5 energy experiment compares the irreversible and reversible-only
// compilations of the same program under both proxies.
package energy

import (
	"math/bits"

	"tangled/internal/aob"
	"tangled/internal/isa"
)

// Class partitions Qat operations by thermodynamic character.
type Class uint8

const (
	// Reversible ops are self-inverse bijections on the register file.
	Reversible Class = iota
	// Irreversible ops destroy their destination's prior value.
	Irreversible
	// ReadOnly ops (meas/next/pop) write no Qat register.
	ReadOnly
)

// Classify returns the thermodynamic class of a Qat operation. Non-Qat
// operations classify as ReadOnly (they never touch AoB state).
func Classify(op isa.Op) Class {
	switch op {
	case isa.OpQNot, isa.OpQCnot, isa.OpQCcnot, isa.OpQSwap, isa.OpQCswap:
		return Reversible
	case isa.OpQAnd, isa.OpQOr, isa.OpQXor, isa.OpQZero, isa.OpQOne, isa.OpQHad:
		return Irreversible
	default:
		return ReadOnly
	}
}

// String names the class for diagnostics and reports.
func (c Class) String() string {
	switch c {
	case Reversible:
		return "reversible"
	case Irreversible:
		return "irreversible"
	default:
		return "read-only"
	}
}

// StaticCost bounds the energy proxies of one executed operation without
// running it: the worst case is every bit of every written register
// toggling, so an op writing w registers on a 2^ways-channel machine
// switches at most w<<ways bits, all of them erased when the operation is
// irreversible. This is the static analogue of Meter.Record — package lint
// uses it to estimate per-basic-block energy before a program is admitted.
func StaticCost(op isa.Op, ways int) (switched, erased uint64) {
	if ways < 0 {
		ways = 0
	}
	if ways > aob.MaxWays {
		ways = aob.MaxWays
	}
	var writes uint64
	switch op {
	case isa.OpQSwap, isa.OpQCswap:
		writes = 2
	case isa.OpQZero, isa.OpQOne, isa.OpQHad, isa.OpQNot,
		isa.OpQAnd, isa.OpQOr, isa.OpQXor, isa.OpQCnot, isa.OpQCcnot:
		writes = 1
	default:
		return 0, 0
	}
	switched = writes << uint(ways)
	if Classify(op) == Irreversible {
		erased = switched
	}
	return switched, erased
}

// Toggles counts the bit positions where two equal-width vectors differ —
// the switching events of overwriting one with the other.
func Toggles(before, after *aob.Vector) uint64 {
	if before.Ways() != after.Ways() {
		panic("energy: mismatched vector widths")
	}
	var n uint64
	for i := 0; i < before.NumWords(); i++ {
		n += uint64(bits.OnesCount64(before.Word(i) ^ after.Word(i)))
	}
	return n
}

// Meter accumulates energy-proxy statistics for one execution.
type Meter struct {
	SwitchedBits    uint64
	ErasedBits      uint64
	ReversibleOps   uint64
	IrreversibleOps uint64
	ReadOps         uint64
}

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	return &Meter{}
}

// Record accounts one executed operation given before/after snapshots of
// every register the operation wrote (one pair for most ops, two for
// swap/cswap).
func (m *Meter) Record(op isa.Op, pairs ...[2]*aob.Vector) {
	var t uint64
	for _, p := range pairs {
		t += Toggles(p[0], p[1])
	}
	m.SwitchedBits += t
	switch Classify(op) {
	case Reversible:
		m.ReversibleOps++
	case Irreversible:
		m.IrreversibleOps++
		m.ErasedBits += t
	default:
		m.ReadOps++
	}
}

// AdiabaticRecoverable returns the switching energy an ideal adiabatic
// implementation could recover: the toggles of reversible operations.
func (m *Meter) AdiabaticRecoverable() uint64 {
	return m.SwitchedBits - m.ErasedBits
}

// Reset clears the meter.
func (m *Meter) Reset() {
	*m = Meter{}
}
