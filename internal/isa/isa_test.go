package isa

import (
	"testing"
	"testing/quick"
)

// allOps enumerates every defined operation.
func allOps() []Op {
	ops := make([]Op, 0, int(numOps))
	for op := Op(0); op < numOps; op++ {
		ops = append(ops, op)
	}
	return ops
}

// sampleInst builds a representative valid instruction for op.
func sampleInst(op Op) Inst {
	switch op.Fmt() {
	case FmtRR:
		return Inst{Op: op, RD: 3, RS: 9}
	case FmtR:
		return Inst{Op: op, RD: 7}
	case FmtRI, FmtBr:
		return Inst{Op: op, RD: 2, Imm: -42}
	case FmtNone:
		return Inst{Op: op}
	case FmtQ1:
		return Inst{Op: op, QA: 200}
	case FmtQHad:
		return Inst{Op: op, QA: 123, K: 4}
	case FmtQMeas:
		return Inst{Op: op, RD: 8, QA: 80}
	case FmtQ2:
		return Inst{Op: op, QA: 1, QB: 255}
	case FmtQ3:
		return Inst{Op: op, QA: 10, QB: 20, QC: 30}
	}
	return Inst{Op: op}
}

// TestTable1ISAEncodeDecodeRoundTrip: every op encodes and decodes back to
// itself with all fields preserved.
func TestTable1ISAEncodeDecodeRoundTrip(t *testing.T) {
	for _, op := range allOps() {
		in := sampleInst(op)
		words, err := Append(nil, in)
		if err != nil {
			t.Fatalf("%s: encode: %v", op.Name(), err)
		}
		if len(words) != in.Words() {
			t.Fatalf("%s: encoded %d words, Words()=%d", op.Name(), len(words), in.Words())
		}
		var w1 uint16
		if len(words) > 1 {
			w1 = words[1]
		}
		out, n, err := Decode(words[0], w1)
		if err != nil {
			t.Fatalf("%s: decode: %v", op.Name(), err)
		}
		if n != len(words) {
			t.Fatalf("%s: decode consumed %d words, want %d", op.Name(), n, len(words))
		}
		if out != in {
			t.Fatalf("%s: round trip %+v -> %+v", op.Name(), in, out)
		}
	}
}

// TestEncodingExhaustiveRegisters round-trips every register/immediate
// combination for representative formats.
func TestEncodingExhaustiveRegisters(t *testing.T) {
	for d := uint8(0); d < NumRegs; d++ {
		for s := uint8(0); s < NumRegs; s++ {
			in := Inst{Op: OpAdd, RD: d, RS: s}
			w, err := Append(nil, in)
			if err != nil {
				t.Fatal(err)
			}
			out, _, err := Decode(w[0], 0)
			if err != nil || out != in {
				t.Fatalf("add $%d,$%d: %+v %v", d, s, out, err)
			}
		}
		for imm := -128; imm <= 127; imm++ {
			in := Inst{Op: OpLex, RD: d, Imm: int8(imm)}
			w, _ := Append(nil, in)
			out, _, _ := Decode(w[0], 0)
			if out != in {
				t.Fatalf("lex $%d,%d round trip failed", d, imm)
			}
		}
	}
}

func TestQatRegisterFullRange(t *testing.T) {
	// All 256 Qat registers must be encodable — the reason some Qat
	// instructions are two words.
	for qa := 0; qa < NumQRegs; qa++ {
		in := Inst{Op: OpQCcnot, QA: uint8(qa), QB: uint8(255 - qa), QC: uint8(qa / 2)}
		w, err := Append(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		if len(w) != 2 {
			t.Fatal("ccnot must be two words")
		}
		out, n, err := Decode(w[0], w[1])
		if err != nil || n != 2 || out != in {
			t.Fatalf("ccnot @%d round trip failed: %+v", qa, out)
		}
	}
}

func TestDecodeRejectsIllegal(t *testing.T) {
	cases := []uint16{
		0xA000, 0xB123, 0xC001, 0xD999, // reserved majors
		0x4300, // qat1 minor 3 undefined
		0x8700, // qatm minor 7 undefined
		0xE00C, // alu2 minor 12 undefined
		0xF008, // alu1 minor 8 undefined
	}
	for _, w := range cases {
		if _, _, err := Decode(w, 0); err == nil {
			t.Errorf("word %#04x decoded without error", w)
		}
	}
}

func TestDecodeNeverPanicsProperty(t *testing.T) {
	f := func(w0, w1 uint16) bool {
		inst, n, err := Decode(w0, w1)
		if err != nil {
			return n == 1
		}
		// A successful decode must re-encode to the same bits (for the
		// fields the format defines).
		words, err := Append(nil, inst)
		if err != nil {
			return false
		}
		if words[0] != canonicalize(w0, inst) {
			return false
		}
		if len(words) == 2 && words[1] != w1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

// canonicalize masks the don't-care bits of w0 for formats that do not use
// every field, so decode(encode(decode(w))) comparisons are meaningful.
func canonicalize(w0 uint16, inst Inst) uint16 {
	switch inst.Op.Fmt() {
	case FmtR, FmtNone:
		// alu1 uses [11:8] and [7:0] fully; no don't-cares.
		return w0
	default:
		return w0
	}
}

func TestInstWords(t *testing.T) {
	oneWord := []Op{OpAdd, OpLex, OpBrf, OpQZero, OpQHad, OpQMeas, OpQNext, OpQPop, OpSys}
	twoWord := []Op{OpQAnd, OpQOr, OpQXor, OpQCnot, OpQCcnot, OpQSwap, OpQCswap}
	for _, op := range oneWord {
		if (Inst{Op: op}).Words() != 1 {
			t.Errorf("%s should be 1 word", op.Name())
		}
	}
	for _, op := range twoWord {
		if (Inst{Op: op}).Words() != 2 {
			t.Errorf("%s should be 2 words", op.Name())
		}
	}
}

func TestRegNames(t *testing.T) {
	cases := map[uint8]string{
		0: "$0", 10: "$10", RegAT: "$at", RegRV: "$rv",
		RegRA: "$ra", RegFP: "$fp", RegSP: "$sp",
	}
	for r, want := range cases {
		if got := RegName(r); got != want {
			t.Errorf("RegName(%d) = %s, want %s", r, got, want)
		}
	}
}

func TestWritesTangledReg(t *testing.T) {
	writes := []Op{OpAdd, OpLex, OpLhi, OpCopy, OpLoad, OpQMeas, OpQNext, OpQPop, OpSlt}
	noWrites := []Op{OpBrf, OpBrt, OpStore, OpSys, OpJumpr, OpQAnd, OpQHad, OpQZero}
	for _, op := range writes {
		if !op.WritesTangledReg() {
			t.Errorf("%s should write a Tangled register", op.Name())
		}
	}
	for _, op := range noWrites {
		if op.WritesTangledReg() {
			t.Errorf("%s should not write a Tangled register", op.Name())
		}
	}
}

func TestIsQat(t *testing.T) {
	if OpAdd.IsQat() || OpSys.IsQat() || OpXor.IsQat() {
		t.Error("Tangled op classified as Qat")
	}
	if !OpQZero.IsQat() || !OpQPop.IsQat() || !OpQMeas.IsQat() {
		t.Error("Qat op not classified as Qat")
	}
}

func TestValidateRejectsBadFields(t *testing.T) {
	bad := []Inst{
		{Op: numOps},
		{Op: OpAdd, RD: 16},
		{Op: OpAdd, RS: 200},
		{Op: OpQHad, K: 16},
	}
	for _, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("%+v validated", in)
		}
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpAdd, RD: 1, RS: 2}, "add $1,$2"},
		{Inst{Op: OpLex, RD: RegAT, Imm: -5}, "lex $at,-5"},
		{Inst{Op: OpQHad, QA: 123, K: 4}, "had @123,4"},
		{Inst{Op: OpQMeas, RD: 8, QA: 80}, "meas $8,@80"},
		{Inst{Op: OpQCcnot, QA: 1, QB: 2, QC: 3}, "ccnot @1,@2,@3"},
		{Inst{Op: OpSys}, "sys"},
		{Inst{Op: OpQSwap, QA: 9, QB: 8}, "swap @9,@8"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func BenchmarkTable1ISAEncode(b *testing.B) {
	in := Inst{Op: OpAdd, RD: 3, RS: 9}
	for i := 0; i < b.N; i++ {
		_, _ = Append(nil, in)
	}
}

func BenchmarkTable1ISADecode(b *testing.B) {
	w, _ := Append(nil, Inst{Op: OpQCcnot, QA: 1, QB: 2, QC: 3})
	for i := 0; i < b.N; i++ {
		_, _, _ = Decode(w[0], w[1])
	}
}
