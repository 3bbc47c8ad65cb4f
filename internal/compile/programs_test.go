package compile

import (
	"testing"

	"tangled/internal/core"
	"tangled/internal/cpu"
)

// TestLtIntMatchesModel compiles a comparator over two Hadamard operands
// and diffs every channel against the core model.
func TestLtIntMatchesModel(t *testing.T) {
	for _, opts := range []Options{{}, {Reuse: true}, {Reversible: true, Reuse: true}} {
		c := New(8, opts)
		a := c.HInt(4, 0x0F)
		b := c.HInt(4, 0xF0)
		lt := c.LtInt(a, b)
		if c.Err() != nil {
			t.Fatal(c.Err())
		}
		reg := c.Reg(&lt)
		m := runAsm(t, c.Asm()+"lex $0,0\nsys\n", 8, opts.ConstantRegs)
		for ch := uint64(0); ch < 256; ch++ {
			want := ch&15 < ch>>4
			if m.Qat.Reg(reg).Get(ch) != want {
				t.Fatalf("opts %+v ch %d: lt(%d,%d) wrong", opts, ch, ch&15, ch>>4)
			}
		}
	}
}

// TestLtIntAgainstConstant covers the folded-constant comparator path.
func TestLtIntAgainstConstant(t *testing.T) {
	c := New(8, Options{Reuse: true})
	a := c.HInt(8, 0xFF)
	k := c.MkInt(8, 100)
	lt := c.LtInt(a, k)
	reg := c.Reg(&lt)
	m := runAsm(t, c.Asm()+"lex $0,0\nsys\n", 8, false)
	for ch := uint64(0); ch < 256; ch++ {
		if m.Qat.Reg(reg).Get(ch) != (ch < 100) {
			t.Fatalf("ch %d", ch)
		}
	}
}

// TestMuxIntMatchesModel checks the word-level multiplexer.
func TestMuxIntMatchesModel(t *testing.T) {
	c := New(8, Options{Reuse: true})
	a := c.MkInt(4, 3)
	b := c.MkInt(4, 12)
	sel := c.Had(2)
	mux := c.MuxInt(a, b, sel)
	regs := make([]uint8, mux.Width())
	for i := range mux.Bits {
		regs[i] = c.Reg(&mux.Bits[i])
	}
	m := runAsm(t, c.Asm()+"lex $0,0\nsys\n", 8, false)
	for ch := uint64(0); ch < 256; ch++ {
		want := uint64(3)
		if ch>>2&1 == 1 {
			want = 12
		}
		var got uint64
		for i, r := range regs {
			got |= m.Qat.Reg(r).Meas(ch) << uint(i)
		}
		if got != want {
			t.Fatalf("ch %d: %d want %d", ch, got, want)
		}
	}
}

// TestSubsetSumProgramMatchesModel runs the compiled subset-sum on the
// functional machine and cross-checks counts and first solution against
// the core software model.
func TestSubsetSumProgramMatchesModel(t *testing.T) {
	weights := []uint64{3, 5, 7, 11, 13, 2, 9, 6}
	const target = 20
	res, err := SubsetSumProgram(weights, target, 8, Options{Reuse: true})
	if err != nil {
		t.Fatal(err)
	}
	m := runAsm(t, res.Asm, 8, false)

	// Core-model reference.
	mm := core.NewAoB(8)
	acc := core.Mk(mm, 7, 0)
	zero := core.Mk(mm, 7, 0)
	for i, w := range weights {
		acc = zero.Mux(core.Mk(mm, 7, w), mm.Had(i)).Add(acc).Truncate(7)
	}
	ind := acc.Eq(core.Mk(mm, 7, target))
	wantCount := mm.Pop(ind)
	wantFirst := mm.Next(ind, 0)

	if uint64(m.Regs[2]) != wantCount {
		t.Errorf("count $2 = %d, want %d", m.Regs[2], wantCount)
	}
	if uint64(m.Regs[1]) != wantFirst {
		t.Errorf("first $1 = %d, want %d", m.Regs[1], wantFirst)
	}
	// Verify the first solution actually sums to target.
	var sum uint64
	for i, w := range weights {
		if m.Regs[1]>>uint(i)&1 == 1 {
			sum += w
		}
	}
	if sum != target {
		t.Errorf("reported subset sums to %d", sum)
	}
	t.Logf("subset-sum: %d qat insts, %d regs, %d solutions, first %#x",
		res.QatInsts, res.RegsUsed, m.Regs[2], m.Regs[1])
}

// TestSubsetSumNoSolution: an unreachable target yields zero count.
func TestSubsetSumNoSolution(t *testing.T) {
	res, err := SubsetSumProgram([]uint64{2, 4, 8, 16}, 5, 8, Options{Reuse: true})
	if err != nil {
		t.Fatal(err)
	}
	m := runAsm(t, res.Asm, 8, false)
	if m.Regs[2] != 0 || m.Regs[1] != 0 || m.Regs[4] != 0 {
		t.Errorf("phantom solutions: count=%d first=%d empty=%d",
			m.Regs[2], m.Regs[1], m.Regs[4])
	}
}

// TestSubsetSumEmptySubset: target 0 is solved by channel 0 (the empty
// subset), visible in $4 via meas.
func TestSubsetSumEmptySubset(t *testing.T) {
	res, err := SubsetSumProgram([]uint64{1, 2, 3}, 0, 8, Options{Reuse: true})
	if err != nil {
		t.Fatal(err)
	}
	m := runAsm(t, res.Asm, 8, false)
	if m.Regs[4] != 1 {
		t.Error("empty subset not detected at channel 0")
	}
}

// TestSubsetSumHardwareScale runs a full 16-item instance on the 16-way
// configuration — exactly one Qat register of 65,536 channels per pbit.
func TestSubsetSumHardwareScale(t *testing.T) {
	weights := []uint64{3, 34, 4, 12, 5, 2, 17, 29, 8, 21, 6, 11, 41, 9, 14, 7}
	res, err := SubsetSumProgram(weights, 100, 16, Options{Reuse: true})
	if err != nil {
		t.Fatal(err)
	}
	var m *cpu.Machine = runAsm(t, res.Asm, 16, false)
	if m.Regs[2] != 656 { // independently verified by examples/subsetsum
		t.Errorf("solution count = %d, want 656", m.Regs[2])
	}
}

func TestSubsetSumValidation(t *testing.T) {
	if _, err := SubsetSumProgram(make([]uint64, 9), 1, 8, Options{}); err == nil {
		t.Error("too many items accepted")
	}
	if _, err := SubsetSumProgram([]uint64{1, 2}, 99, 8, Options{}); err == nil {
		t.Error("unreachable target accepted")
	}
}

func BenchmarkSubsetSumGenerate(b *testing.B) {
	weights := []uint64{3, 34, 4, 12, 5, 2, 17, 29, 8, 21, 6, 11, 41, 9, 14, 7}
	for i := 0; i < b.N; i++ {
		if _, err := SubsetSumProgram(weights, 100, 16, Options{Reuse: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNQueensProgram runs the compiled 4-queens search on the simulated
// hardware: 2 solutions, first at the known channel.
func TestNQueensProgram(t *testing.T) {
	res, err := NQueensProgram(4, 8, Options{Reuse: true})
	if err != nil {
		t.Fatal(err)
	}
	m := runAsm(t, res.Asm, 8, false)
	if m.Regs[2] != 2 {
		t.Fatalf("4-queens solutions = %d, want 2", m.Regs[2])
	}
	// The lower solution (2,0,3,1) encodes as 2 + 0<<2 + 3<<4 + 1<<6 = 114.
	if m.Regs[1] != 114 {
		t.Errorf("first solution channel = %d, want 114", m.Regs[1])
	}
	t.Logf("4-queens: %d qat insts, %d regs", res.QatInsts, res.RegsUsed)
}

// TestNQueens5OnHardware: 5-queens needs 15 of the 16 hardware ways.
func TestNQueens5OnHardware(t *testing.T) {
	res, err := NQueensProgram(5, 16, Options{Reuse: true})
	if err != nil {
		t.Fatal(err)
	}
	m := runAsm(t, res.Asm, 16, false)
	if m.Regs[2] != 10 {
		t.Fatalf("5-queens solutions = %d, want 10", m.Regs[2])
	}
}

func TestNQueensValidation(t *testing.T) {
	if _, err := NQueensProgram(1, 8, Options{}); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := NQueensProgram(6, 16, Options{}); err == nil {
		t.Error("6-queens (18 ways) accepted on 16-way hardware")
	}
}

func TestNeInt(t *testing.T) {
	c := New(8, Options{Reuse: true})
	a := c.HInt(4, 0x0F)
	b := c.HInt(4, 0xF0)
	ne := c.NeInt(a, b)
	reg := c.Reg(&ne)
	m := runAsm(t, c.Asm()+"lex $0,0\nsys\n", 8, false)
	for ch := uint64(0); ch < 256; ch++ {
		if m.Qat.Reg(reg).Get(ch) != (ch&15 != ch>>4) {
			t.Fatalf("ne at ch %d", ch)
		}
	}
}

// TestSubsetSumExtraWays: solutions are counted once even when the machine
// has more entanglement than items.
func TestSubsetSumExtraWays(t *testing.T) {
	weights := []uint64{3, 5, 7, 11}
	a, err := SubsetSumProgram(weights, 15, 4, Options{Reuse: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SubsetSumProgram(weights, 15, 8, Options{Reuse: true})
	if err != nil {
		t.Fatal(err)
	}
	ma := runAsm(t, a.Asm, 4, false)
	mb := runAsm(t, b.Asm, 8, false)
	if ma.Regs[2] != mb.Regs[2] {
		t.Errorf("counts differ with idle ways: %d vs %d", ma.Regs[2], mb.Regs[2])
	}
	if ma.Regs[1] != mb.Regs[1] {
		t.Errorf("first solutions differ: %d vs %d", ma.Regs[1], mb.Regs[1])
	}
}

// TestFactorCompositeSweep: the generator handles arbitrary semiprimes at
// hardware scale.
func TestFactorCompositeSweep(t *testing.T) {
	cases := []struct {
		n        uint64
		aBits    int
		bBits    int
		ways     int
		expected [2]uint64
	}{
		{21, 5, 5, 10, [2]uint64{7, 3}},
		{35, 6, 6, 12, [2]uint64{7, 5}},
		{77, 7, 7, 14, [2]uint64{11, 7}},
		{143, 8, 8, 16, [2]uint64{13, 11}},
	}
	for _, c := range cases {
		res, err := FactorProgram(c.n, c.ways, c.aBits, c.bBits, Options{Reuse: true})
		if err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		m := runAsm(t, res.Asm, c.ways, false)
		got := [2]uint64{uint64(m.Regs[4]), uint64(m.Regs[1])}
		if got[0]*got[1] != c.n {
			t.Errorf("n=%d: measured %v", c.n, got)
		}
	}
}
