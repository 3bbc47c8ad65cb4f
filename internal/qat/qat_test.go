package qat

import (
	"strings"
	"testing"

	"tangled/internal/aob"
	"tangled/internal/isa"
	"tangled/internal/obs"
)

func exec(t *testing.T, q *Coprocessor, inst isa.Inst, rd uint16) uint16 {
	t.Helper()
	out, writes, err := q.Exec(inst, rd)
	if err != nil {
		t.Fatalf("%s: %v", inst, err)
	}
	if !writes {
		return 0
	}
	return out
}

// TestTable3QatISA exercises each Table 3 instruction directly against the
// coprocessor, mirroring the table's functionality column.
func TestTable3QatISA(t *testing.T) {
	q := New(8)

	// zero/one initializers.
	exec(t, q, isa.Inst{Op: isa.OpQOne, QA: 1}, 0)
	if q.Reg(1).Pop() != 256 {
		t.Error("one @1")
	}
	exec(t, q, isa.Inst{Op: isa.OpQZero, QA: 1}, 0)
	if q.Reg(1).Pop() != 0 {
		t.Error("zero @1")
	}

	// had @a,k.
	exec(t, q, isa.Inst{Op: isa.OpQHad, QA: 2, K: 3}, 0)
	if !q.Reg(2).Equal(aob.HadVector(8, 3)) {
		t.Error("had @2,3")
	}

	// and/or/xor: @a = op(@b,@c).
	exec(t, q, isa.Inst{Op: isa.OpQHad, QA: 3, K: 0}, 0)
	exec(t, q, isa.Inst{Op: isa.OpQHad, QA: 4, K: 1}, 0)
	exec(t, q, isa.Inst{Op: isa.OpQAnd, QA: 5, QB: 3, QC: 4}, 0)
	exec(t, q, isa.Inst{Op: isa.OpQOr, QA: 6, QB: 3, QC: 4}, 0)
	exec(t, q, isa.Inst{Op: isa.OpQXor, QA: 7, QB: 3, QC: 4}, 0)
	for ch := uint64(0); ch < 256; ch++ {
		b0, b1 := ch&1 == 1, (ch>>1)&1 == 1
		if q.Reg(5).Get(ch) != (b0 && b1) {
			t.Fatalf("and ch %d", ch)
		}
		if q.Reg(6).Get(ch) != (b0 || b1) {
			t.Fatalf("or ch %d", ch)
		}
		if q.Reg(7).Get(ch) != (b0 != b1) {
			t.Fatalf("xor ch %d", ch)
		}
	}

	// not (Pauli-X analog): @a = NOT(@a).
	exec(t, q, isa.Inst{Op: isa.OpQNot, QA: 5}, 0)
	for ch := uint64(0); ch < 256; ch++ {
		b0, b1 := ch&1 == 1, (ch>>1)&1 == 1
		if q.Reg(5).Get(ch) == (b0 && b1) {
			t.Fatalf("not ch %d", ch)
		}
	}

	// cnot: @a = XOR(@a,@b).
	exec(t, q, isa.Inst{Op: isa.OpQZero, QA: 8}, 0)
	exec(t, q, isa.Inst{Op: isa.OpQCnot, QA: 8, QB: 3}, 0)
	if !q.Reg(8).Equal(q.Reg(3)) {
		t.Error("cnot from zero must copy")
	}

	// ccnot: @a = XOR(@a, AND(@b,@c)).
	exec(t, q, isa.Inst{Op: isa.OpQZero, QA: 9}, 0)
	exec(t, q, isa.Inst{Op: isa.OpQCcnot, QA: 9, QB: 3, QC: 4}, 0)
	want := aob.New(8)
	want.And(aob.HadVector(8, 0), aob.HadVector(8, 1))
	if !q.Reg(9).Equal(want) {
		t.Error("ccnot")
	}

	// swap.
	before3, before4 := q.Reg(3).Clone(), q.Reg(4).Clone()
	exec(t, q, isa.Inst{Op: isa.OpQSwap, QA: 3, QB: 4}, 0)
	if !q.Reg(3).Equal(before4) || !q.Reg(4).Equal(before3) {
		t.Error("swap")
	}
	exec(t, q, isa.Inst{Op: isa.OpQSwap, QA: 3, QB: 4}, 0) // restore

	// cswap (Fredkin): exchange where control is 1.
	exec(t, q, isa.Inst{Op: isa.OpQHad, QA: 10, K: 7}, 0)
	a3, a4 := q.Reg(3).Clone(), q.Reg(4).Clone()
	exec(t, q, isa.Inst{Op: isa.OpQCswap, QA: 3, QB: 4, QC: 10}, 0)
	for ch := uint64(0); ch < 256; ch++ {
		if q.Reg(10).Get(ch) {
			if q.Reg(3).Get(ch) != a4.Get(ch) || q.Reg(4).Get(ch) != a3.Get(ch) {
				t.Fatalf("cswap controlled ch %d", ch)
			}
		} else if q.Reg(3).Get(ch) != a3.Get(ch) || q.Reg(4).Get(ch) != a4.Get(ch) {
			t.Fatalf("cswap uncontrolled ch %d", ch)
		}
	}

	// meas $d,@a returns @a[$d].
	if got := exec(t, q, isa.Inst{Op: isa.OpQMeas, RD: 1, QA: 2}, 8); got != 1 {
		t.Errorf("meas ch8 of had3 = %d", got)
	}
	if got := exec(t, q, isa.Inst{Op: isa.OpQMeas, RD: 1, QA: 2}, 7); got != 0 {
		t.Errorf("meas ch7 of had3 = %d", got)
	}

	// next $d,@a.
	if got := exec(t, q, isa.Inst{Op: isa.OpQNext, RD: 1, QA: 2}, 3); got != 8 {
		t.Errorf("next(3) over had3 = %d", got)
	}

	// pop $d,@a.
	if got := exec(t, q, isa.Inst{Op: isa.OpQPop, RD: 1, QA: 2}, 0); got != 128 {
		t.Errorf("pop(0) of had3 = %d", got)
	}
}

func TestExecRejectsTangledOps(t *testing.T) {
	q := New(4)
	if _, _, err := q.Exec(isa.Inst{Op: isa.OpAdd}, 0); err == nil {
		t.Fatal("tangled op accepted by coprocessor")
	}
}

func TestOpsCounting(t *testing.T) {
	q := New(4)
	q.Metrics = NewMetrics(obs.NewRegistry())
	for i := 0; i < 5; i++ {
		exec(t, q, isa.Inst{Op: isa.OpQZero, QA: 1}, 0)
	}
	exec(t, q, isa.Inst{Op: isa.OpQOne, QA: 2}, 0)
	count := func(op isa.Op) uint64 { return q.Metrics.Ops.At(int(op) - int(isa.OpQZero)).Value() }
	if count(isa.OpQZero) != 5 || count(isa.OpQOne) != 1 || q.Metrics.Ops.Total() != 6 {
		t.Errorf("op counts: zero %d, one %d, total %d",
			count(isa.OpQZero), count(isa.OpQOne), q.Metrics.Ops.Total())
	}
}

func TestConstantBank(t *testing.T) {
	q := NewWithConstants(8)
	if q.Reg(ConstZeroReg()).Pop() != 0 {
		t.Error("@0 not zero")
	}
	if q.Reg(ConstOneReg()).Pop() != 256 {
		t.Error("@1 not ones")
	}
	for k := 0; k < 8; k++ {
		if !q.Reg(ConstHadReg(k)).Equal(aob.HadVector(8, k)) {
			t.Errorf("@%d != H%d", ConstHadReg(k), k)
		}
	}
	// Writes to the bank fault; the classic reversible-Hadamard trick
	// (XOR with the constant) works on ordinary registers.
	if _, _, err := q.Exec(isa.Inst{Op: isa.OpQNot, QA: ConstHadReg(0)}, 0); err == nil {
		t.Error("write to constant accepted")
	}
	exec(t, q, isa.Inst{Op: isa.OpQXor, QA: 100, QB: ConstHadReg(2), QC: ConstZeroReg()}, 0)
	exec(t, q, isa.Inst{Op: isa.OpQXor, QA: 100, QB: 100, QC: ConstHadReg(2)}, 0)
	if q.Reg(100).Pop() != 0 {
		t.Error("XOR-with-Hadamard self-inverse failed")
	}
}

func TestConstantBankSwapRejected(t *testing.T) {
	q := NewWithConstants(8)
	if _, _, err := q.Exec(isa.Inst{Op: isa.OpQSwap, QA: 100, QB: ConstOneReg()}, 0); err == nil {
		t.Error("swap with constant register accepted")
	}
	if _, _, err := q.Exec(isa.Inst{Op: isa.OpQCswap, QA: 100, QB: ConstOneReg(), QC: 101}, 0); err == nil {
		t.Error("cswap with constant register accepted")
	}
}

func TestReset(t *testing.T) {
	q := NewWithConstants(8)
	exec(t, q, isa.Inst{Op: isa.OpQOne, QA: 50}, 0)
	q.Reset()
	if q.Reg(50).Pop() != 0 {
		t.Error("reset did not clear @50")
	}
	if q.Reg(ConstOneReg()).Pop() != 256 {
		t.Error("reset clobbered the constant bank")
	}
}

func TestHadBeyondWaysFaults(t *testing.T) {
	q := New(8)
	_, _, err := q.Exec(isa.Inst{Op: isa.OpQHad, QA: 1, K: 9}, 0)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("err = %v", err)
	}
}

func TestSetRegValidates(t *testing.T) {
	q := New(8)
	defer func() {
		if recover() == nil {
			t.Error("mismatched SetReg accepted")
		}
	}()
	q.SetReg(0, aob.New(4))
}

func TestAliasedOperands(t *testing.T) {
	// and @a,@a,@a == identity; xor @a,@a,@a == clear; swap @a,@a == noop.
	q := New(6)
	exec(t, q, isa.Inst{Op: isa.OpQHad, QA: 1, K: 2}, 0)
	exec(t, q, isa.Inst{Op: isa.OpQAnd, QA: 1, QB: 1, QC: 1}, 0)
	if !q.Reg(1).Equal(aob.HadVector(6, 2)) {
		t.Error("self-and changed value")
	}
	exec(t, q, isa.Inst{Op: isa.OpQSwap, QA: 1, QB: 1}, 0)
	if !q.Reg(1).Equal(aob.HadVector(6, 2)) {
		t.Error("self-swap changed value")
	}
	exec(t, q, isa.Inst{Op: isa.OpQXor, QA: 1, QB: 1, QC: 1}, 0)
	if q.Reg(1).Pop() != 0 {
		t.Error("self-xor must clear")
	}
}

func BenchmarkQatExecAnd16(b *testing.B) {
	q := New(16)
	inst := isa.Inst{Op: isa.OpQAnd, QA: 1, QB: 2, QC: 3}
	for i := 0; i < b.N; i++ {
		if _, _, err := q.Exec(inst, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWays(t *testing.T) {
	if New(8).Ways() != 8 || New(16).Ways() != 16 {
		t.Error("Ways wrong")
	}
}

// TestReservedWriteFaultsEveryOpClass drives checkWrite through each
// instruction shape against the constant bank.
func TestReservedWriteFaultsEveryOpClass(t *testing.T) {
	q := NewWithConstants(8)
	cases := []isa.Inst{
		{Op: isa.OpQZero, QA: 0},
		{Op: isa.OpQOne, QA: 1},
		{Op: isa.OpQNot, QA: ConstHadReg(0)},
		{Op: isa.OpQHad, QA: 0, K: 1},
		{Op: isa.OpQAnd, QA: 1, QB: 2, QC: 3},
		{Op: isa.OpQOr, QA: 0, QB: 2, QC: 3},
		{Op: isa.OpQXor, QA: ConstHadReg(2), QB: 2, QC: 3},
		{Op: isa.OpQCnot, QA: 0, QB: 100},
		{Op: isa.OpQCcnot, QA: 1, QB: 100, QC: 101},
		{Op: isa.OpQSwap, QA: 0, QB: 100},
		{Op: isa.OpQSwap, QA: 100, QB: 0},
		{Op: isa.OpQCswap, QA: 0, QB: 100, QC: 101},
		{Op: isa.OpQCswap, QA: 100, QB: 0, QC: 101},
	}
	for _, in := range cases {
		if _, _, err := q.Exec(in, 0); err == nil {
			t.Errorf("%s wrote a reserved register", in)
		}
	}
	// Reads of reserved registers stay legal.
	if _, _, err := q.Exec(isa.Inst{Op: isa.OpQMeas, RD: 1, QA: 0}, 5); err != nil {
		t.Errorf("meas of reserved: %v", err)
	}
}
