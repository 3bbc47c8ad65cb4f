package qat

import (
	"fmt"
	"math/rand"
	"testing"

	"tangled/internal/aob"
	"tangled/internal/energy"
	"tangled/internal/isa"
	"tangled/internal/obs"
	"tangled/internal/re"
)

// Differential coverage of the RE register file: the same instruction
// streams run on the dense backend, the RE backend, and the RE backend with
// an aggressive spill budget, and every observable — scalar write-backs and
// full register materializations — must agree channel-exactly.

// qatOps are the opcodes the random streams draw from.
var qatOps = []isa.Op{
	isa.OpQZero, isa.OpQOne, isa.OpQHad, isa.OpQNot,
	isa.OpQAnd, isa.OpQOr, isa.OpQXor, isa.OpQCnot, isa.OpQCcnot,
	isa.OpQSwap, isa.OpQCswap, isa.OpQMeas, isa.OpQNext, isa.OpQPop,
}

// randInst draws one valid Qat instruction over numRegs registers.
func randInst(r *rand.Rand, ways, numRegs int) isa.Inst {
	inst := isa.Inst{
		Op: qatOps[r.Intn(len(qatOps))],
		QA: uint8(r.Intn(numRegs)),
		QB: uint8(r.Intn(numRegs)),
		QC: uint8(r.Intn(numRegs)),
	}
	if ways > 0 {
		inst.K = uint8(r.Intn(ways))
	}
	return inst
}

// newBackends builds the three coprocessors under comparison.
func newBackends(t *testing.T, ways int, constRegs bool) (dense, reQ, reSpill *Coprocessor) {
	t.Helper()
	var err error
	dense, err = NewFromConfig(Config{Ways: ways, ConstantRegs: constRegs})
	if err != nil {
		t.Fatal(err)
	}
	reQ, err = NewFromConfig(Config{Ways: ways, ConstantRegs: constRegs, Backend: BackendRE, SpillRuns: -1})
	if err != nil {
		t.Fatal(err)
	}
	// SpillRuns 1 with sub-width chunks: anything beyond a single run
	// spills — the spill path runs constantly.
	reSpill, err = NewFromConfig(Config{Ways: ways, ConstantRegs: constRegs, Backend: BackendRE,
		ChunkWays: ways / 2, SpillRuns: 1})
	if err != nil {
		t.Fatal(err)
	}
	return dense, reQ, reSpill
}

func TestREBackendDifferential(t *testing.T) {
	for _, tc := range []struct {
		ways      int
		constRegs bool
	}{
		{ways: 3, constRegs: false},
		{ways: 6, constRegs: true},
		{ways: 8, constRegs: false},
		{ways: 10, constRegs: true},
	} {
		dense, reQ, reSpill := newBackends(t, tc.ways, tc.constRegs)
		r := rand.New(rand.NewSource(int64(tc.ways)*1007 + 1))
		const numRegs = 8
		firstReg := 0
		if tc.constRegs {
			firstReg = 2 + tc.ways // skip the reserved bank for writes
		}
		for step := 0; step < 600; step++ {
			inst := randInst(r, tc.ways, numRegs)
			if tc.constRegs {
				// Retarget writes at unreserved registers; reads may still
				// hit the constant bank.
				inst.QA = uint8(firstReg + int(inst.QA))
				inst.QB = uint8(firstReg + int(inst.QB))
			}
			rd := uint16(r.Uint32())
			o1, w1, e1 := dense.Exec(inst, rd)
			o2, w2, e2 := reQ.Exec(inst, rd)
			o3, w3, e3 := reSpill.Exec(inst, rd)
			if (e1 == nil) != (e2 == nil) || (e1 == nil) != (e3 == nil) {
				t.Fatalf("ways=%d step %d %s: error divergence: %v / %v / %v",
					tc.ways, step, inst.Op.Name(), e1, e2, e3)
			}
			if o1 != o2 || o1 != o3 || w1 != w2 || w1 != w3 {
				t.Fatalf("ways=%d step %d %s: scalar divergence: (%d,%v) / (%d,%v) / (%d,%v)",
					tc.ways, step, inst.Op.Name(), o1, w1, o2, w2, o3, w3)
			}
			if step%37 == 0 {
				for qa := 0; qa < numRegs+firstReg; qa++ {
					dv, rv, sv := dense.Reg(uint8(qa)), reQ.Reg(uint8(qa)), reSpill.Reg(uint8(qa))
					if !dv.Equal(rv) {
						t.Fatalf("ways=%d step %d: @%d dense %s vs re %s", tc.ways, step, qa, dv, rv)
					}
					if !dv.Equal(sv) {
						t.Fatalf("ways=%d step %d: @%d dense %s vs re-spill %s", tc.ways, step, qa, dv, sv)
					}
				}
			}
		}
		if reSpill.Spills() == 0 && tc.ways > 0 {
			t.Fatalf("ways=%d: spill-heavy backend never spilled", tc.ways)
		}
	}
}

// TestREBackendSmallChunks exercises chunkWays < ways, where patterns have
// real multi-run structure.
func TestREBackendSmallChunks(t *testing.T) {
	dense, err := NewFromConfig(Config{Ways: 9})
	if err != nil {
		t.Fatal(err)
	}
	reQ, err := NewFromConfig(Config{Ways: 9, Backend: BackendRE, ChunkWays: 4, SpillRuns: 8})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(99))
	for step := 0; step < 400; step++ {
		inst := randInst(r, 9, 6)
		rd := uint16(r.Uint32())
		o1, w1, e1 := dense.Exec(inst, rd)
		o2, w2, e2 := reQ.Exec(inst, rd)
		if (e1 == nil) != (e2 == nil) || o1 != o2 || w1 != w2 {
			t.Fatalf("step %d %s: divergence", step, inst.Op.Name())
		}
	}
	for qa := 0; qa < 6; qa++ {
		if !dense.Reg(uint8(qa)).Equal(reQ.Reg(uint8(qa))) {
			t.Fatalf("@%d diverged", qa)
		}
	}
}

// TestREBackendBeyondDense runs the backend past the dense wall (E > 16):
// no dense mirror exists, so results are pinned against analytic values.
func TestREBackendBeyondDense(t *testing.T) {
	const ways = 18
	q, err := NewFromConfig(Config{Ways: ways, Backend: BackendRE})
	if err != nil {
		t.Fatal(err)
	}
	if q.Backend() != BackendRE {
		t.Fatal("backend not re")
	}
	mustExec := func(inst isa.Inst, rd uint16) uint16 {
		t.Helper()
		out, _, err := q.Exec(inst, rd)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// @1 = H(17), @2 = H(16), @3 = @1 AND @2: population 2^18/4 = 65536.
	mustExec(isa.Inst{Op: isa.OpQHad, QA: 1, K: 17}, 0)
	mustExec(isa.Inst{Op: isa.OpQHad, QA: 2, K: 16}, 0)
	mustExec(isa.Inst{Op: isa.OpQAnd, QA: 3, QB: 1, QC: 2}, 0)
	if p := q.RegPattern(3); p.Pop() != 1<<16 {
		t.Fatalf("AND pop = %d, want %d", p.Pop(), 1<<16)
	}
	// pop through the ISA truncates to 16 bits: 65536 -> 0. The full count
	// is visible through RegPattern; the truncation is the documented ISA
	// limit, not state corruption.
	if got := mustExec(isa.Inst{Op: isa.OpQPop, QA: 3}, 0); got != 0 {
		t.Fatalf("truncated pop = %d, want 0", got)
	}
	// meas of channel 0 (both high bits clear there): 0.
	if got := mustExec(isa.Inst{Op: isa.OpQMeas, QA: 3}, 0); got != 0 {
		t.Fatalf("meas = %d, want 0", got)
	}
	// Spilling is impossible above the dense wall.
	if q.Spills() != 0 {
		t.Fatalf("spilled %d times with no dense form", q.Spills())
	}
	// Compression: every register so far is O(1) runs, far below 2^2 chunks.
	if p := q.RegPattern(3); p.NumRuns() > 4 {
		t.Fatalf("structured pattern has %d runs", p.NumRuns())
	}
}

func TestREBackendReset(t *testing.T) {
	q, err := NewFromConfig(Config{Ways: 6, ConstantRegs: true, Backend: BackendRE})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Exec(isa.Inst{Op: isa.OpQCnot, QA: 20, QB: ConstOneReg()}, 0); err != nil {
		t.Fatal(err)
	}
	if !q.Reg(20).All() {
		t.Fatal("cnot from constant one failed")
	}
	q.Reset()
	if q.Reg(20).Any() {
		t.Fatal("reset left state in @20")
	}
	if !q.Reg(ConstOneReg()).All() {
		t.Fatal("reset clobbered the constant bank")
	}
	if !q.Reg(ConstHadReg(3)).Equal(aob.HadVector(6, 3)) {
		t.Fatal("reset clobbered Hadamard constants")
	}
	// Writes to the reserved bank still refuse.
	if _, _, err := q.Exec(isa.Inst{Op: isa.OpQZero, QA: ConstOneReg()}, 0); err == nil {
		t.Fatal("write to reserved register succeeded")
	}
}

func TestNewFromConfigValidation(t *testing.T) {
	bad := []Config{
		{Ways: -1},
		{Ways: aob.MaxWays + 1},
		{Backend: "zstd"},
		{Backend: BackendRE, Ways: MaxREWays + 1},
		{Backend: BackendRE, Ways: 8, ChunkWays: 9},
		{Backend: BackendRE, Ways: 8, ChunkWays: -1},
	}
	for _, cfg := range bad {
		if _, err := NewFromConfig(cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
	// Zero config is the paper's dense hardware.
	q, err := NewFromConfig(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if q.Ways() != aob.MaxWays || q.Backend() != BackendDense {
		t.Fatalf("zero config: ways=%d backend=%s", q.Ways(), q.Backend())
	}
	// RE default ways is the dense maximum, default chunk the full width.
	q, err = NewFromConfig(Config{Backend: BackendRE})
	if err != nil {
		t.Fatal(err)
	}
	if q.Ways() != aob.MaxWays || q.Space().ChunkWays() != aob.MaxWays {
		t.Fatalf("re defaults: ways=%d chunkWays=%d", q.Ways(), q.Space().ChunkWays())
	}
}

// snapshotRegs records every register of q and returns a check that reports
// the first register changed since, or -1.
func snapshotRegs(q *Coprocessor) func() int {
	if q.Backend() == BackendRE {
		var pats [isa.NumQRegs]*re.Pattern
		for i := range pats {
			pats[i] = q.RegPattern(uint8(i))
		}
		return func() int {
			for i, p := range pats {
				if !q.RegPattern(uint8(i)).Equal(p) {
					return i
				}
			}
			return -1
		}
	}
	var vs [isa.NumQRegs]*aob.Vector
	for i := range vs {
		vs[i] = q.Reg(uint8(i)).Clone()
	}
	return func() int {
		for i, v := range vs {
			if !q.Reg(uint8(i)).Equal(v) {
				return i
			}
		}
		return -1
	}
}

// TestExecRefusalsAgree pins the checks Exec runs before either kernel:
// both register files refuse the same instructions with the same error,
// change no register, count the attempt in Metrics.Ops and charge neither
// word ops nor energy for it.
func TestExecRefusalsAgree(t *testing.T) {
	writers := []isa.Op{
		isa.OpQZero, isa.OpQOne, isa.OpQNot, isa.OpQHad,
		isa.OpQAnd, isa.OpQOr, isa.OpQXor, isa.OpQCnot, isa.OpQCcnot,
		isa.OpQSwap, isa.OpQCswap,
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"dense/4", Config{Ways: 4, ConstantRegs: true}},
		{"re/4", Config{Ways: 4, ConstantRegs: true, Backend: BackendRE}},
		{"re/20", Config{Ways: 20, ConstantRegs: true, Backend: BackendRE}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := NewFromConfig(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ways := q.Ways()
			free := ConstHadReg(ways) // first register past the constant bank
			// Distinct values in the operand registers, so a stray write shows.
			for i := uint8(0); i < 3; i++ {
				exec(t, q, isa.Inst{Op: isa.OpQHad, QA: free + i, K: i}, 0)
			}
			q.Metrics = NewMetrics(obs.NewRegistry())
			q.Meter = energy.NewMeter()
			unchanged := snapshotRegs(q)
			var attempts uint64
			refuse := func(inst isa.Inst, want string) {
				t.Helper()
				if _, _, err := q.Exec(inst, 0); err == nil || err.Error() != want {
					t.Fatalf("%s: err %v, want %q", inst, err, want)
				}
				if r := unchanged(); r >= 0 {
					t.Fatalf("refused %s changed @%d", inst, r)
				}
				if inst.Op.IsQat() {
					attempts++
				}
			}
			for r := uint8(0); r < free; r++ {
				want := fmt.Sprintf("qat: write to reserved constant register @%d", r)
				for _, op := range writers {
					refuse(isa.Inst{Op: op, QA: r, QB: free + 1, QC: free + 2}, want)
					if op == isa.OpQSwap || op == isa.OpQCswap {
						refuse(isa.Inst{Op: op, QA: free, QB: r, QC: free + 2}, want)
					}
				}
			}
			for _, k := range []uint8{uint8(ways), 255} {
				refuse(isa.Inst{Op: isa.OpQHad, QA: free, K: k},
					fmt.Sprintf("qat: had pattern %d exceeds %d-way hardware", k, ways))
			}
			refuse(isa.Inst{Op: isa.OpAdd, RD: 1, RS: 2}, "qat: not a Qat op: add")

			if got := q.Metrics.Ops.Total(); got != attempts {
				t.Errorf("Metrics.Ops counted %d refused attempts, want %d", got, attempts)
			}
			if got := q.Metrics.WordOps.Value(); got != 0 {
				t.Errorf("refusals charged %d word ops", got)
			}
			if *q.Meter != (energy.Meter{}) {
				t.Errorf("refusals charged energy: %+v", *q.Meter)
			}
		})
	}
}

// TestRegPatternIsSnapshot: RE gates overwrite a register's Pattern in
// place, so RegPattern must hand out a copy. A held result keeps its value
// after the register is written again.
func TestRegPatternIsSnapshot(t *testing.T) {
	q, err := NewFromConfig(Config{Ways: 20, Backend: BackendRE})
	if err != nil {
		t.Fatal(err)
	}
	exec(t, q, isa.Inst{Op: isa.OpQHad, QA: 5, K: 3}, 0)
	held := q.RegPattern(5)
	want := q.Space().Had(3)
	for _, inst := range []isa.Inst{
		{Op: isa.OpQNot, QA: 5},
		{Op: isa.OpQHad, QA: 5, K: 18},
		{Op: isa.OpQAnd, QA: 5, QB: 5, QC: 5},
		{Op: isa.OpQOne, QA: 5},
	} {
		exec(t, q, inst, 0)
		if !held.Equal(want) {
			t.Fatalf("after %s the held RegPattern(@5) reads %s, want %s", inst, held, want)
		}
	}
	q.Reset()
	if !held.Equal(want) {
		t.Fatalf("after Reset the held RegPattern(@5) reads %s, want %s", held, want)
	}
}

// TestRERegIsSnapshot: on the RE backend Reg materializes a copy, for a
// spilled register too, so changing the returned vector leaves the
// register alone.
func TestRERegIsSnapshot(t *testing.T) {
	q, err := NewFromConfig(Config{Ways: 8, Backend: BackendRE, ChunkWays: 4, SpillRuns: 1})
	if err != nil {
		t.Fatal(err)
	}
	exec(t, q, isa.Inst{Op: isa.OpQHad, QA: 5, K: 6}, 0) // 4 runs: spills
	if q.Spills() != 1 {
		t.Fatalf("fixture spilled %d times, want 1", q.Spills())
	}
	q.Reg(5).Not()
	if want := aob.HadVector(8, 6); !q.Reg(5).Equal(want) {
		t.Fatalf("changing Reg(@5)'s result changed the register: %s, want %s", q.Reg(5), want)
	}
}

// TestREGatesAllocateNothing: a warm 20-way RE coprocessor writes every
// result into the destination register's own Pattern, so a run of every
// Qat op, aliased operands and a Reset included, allocates nothing.
func TestREGatesAllocateNothing(t *testing.T) {
	q, err := NewFromConfig(Config{Ways: 20, Backend: BackendRE})
	if err != nil {
		t.Fatal(err)
	}
	prog := []isa.Inst{
		{Op: isa.OpQZero, QA: 0},
		{Op: isa.OpQOne, QA: 1},
		{Op: isa.OpQHad, QA: 2, K: 3},
		{Op: isa.OpQHad, QA: 3, K: 17}, // above the 16-way chunk: 8 runs
		{Op: isa.OpQNot, QA: 4},
		{Op: isa.OpQAnd, QA: 5, QB: 2, QC: 3},
		{Op: isa.OpQOr, QA: 6, QB: 2, QC: 3},
		{Op: isa.OpQXor, QA: 7, QB: 3, QC: 2},
		{Op: isa.OpQAnd, QA: 7, QB: 7, QC: 7},
		{Op: isa.OpQCnot, QA: 8, QB: 3},
		{Op: isa.OpQCcnot, QA: 8, QB: 2, QC: 3},
		{Op: isa.OpQCcnot, QA: 2, QB: 3, QC: 2},
		{Op: isa.OpQSwap, QA: 5, QB: 6},
		{Op: isa.OpQCswap, QA: 5, QB: 6, QC: 3},
		{Op: isa.OpQCswap, QA: 6, QB: 6, QC: 6},
		{Op: isa.OpQCswap, QA: 7, QB: 3, QC: 7},
		{Op: isa.OpQMeas, QA: 3},
		{Op: isa.OpQNext, QA: 6},
		{Op: isa.OpQPop, QA: 7},
	}
	run := func() {
		q.Reset()
		for _, inst := range prog {
			if _, _, err := q.Exec(inst, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // fills the symbol table and op memo
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("a warm run of %d RE ops allocates %.0f times, want 0", len(prog), allocs)
	}
}
