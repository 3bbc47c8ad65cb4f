package asm

import (
	"runtime"
	"strings"
	"testing"

	"tangled/internal/isa"
)

func mustAssemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble failed:\n%v", err)
	}
	return p
}

// decodeAll decodes a word image back into instructions.
func decodeAll(t *testing.T, words []uint16) []isa.Inst {
	t.Helper()
	var out []isa.Inst
	for i := 0; i < len(words); {
		var w1 uint16
		if i+1 < len(words) {
			w1 = words[i+1]
		}
		inst, n, err := isa.Decode(words[i], w1)
		if err != nil {
			t.Fatalf("decode at %d: %v", i, err)
		}
		out = append(out, inst)
		i += n
	}
	return out
}

// TestTable1ISAAllMnemonics assembles one instance of every Table 1
// instruction and checks the decoded form.
func TestTable1ISAAllMnemonics(t *testing.T) {
	src := `
	add $1,$2
	addf $3,$4
	and $5,$6
	brf $7,2
	brt $8,-3
	copy $9,$10
	float $0
	int $1
	jumpr $ra
	lex $2,-100
	lhi $3,0x7F
	load $4,$5
	mul $6,$7
	mulf $8,$9
	neg $0
	negf $1
	not $2
	or $3,$4
	recip $5
	shift $6,$7
	slt $8,$9
	store $10,$0
	sys
	xor $1,$2
	`
	p := mustAssemble(t, src)
	insts := decodeAll(t, p.Words)
	wantOps := []isa.Op{
		isa.OpAdd, isa.OpAddf, isa.OpAnd, isa.OpBrf, isa.OpBrt, isa.OpCopy,
		isa.OpFloat, isa.OpInt, isa.OpJumpr, isa.OpLex, isa.OpLhi, isa.OpLoad,
		isa.OpMul, isa.OpMulf, isa.OpNeg, isa.OpNegf, isa.OpNot, isa.OpOr,
		isa.OpRecip, isa.OpShift, isa.OpSlt, isa.OpStore, isa.OpSys, isa.OpXor,
	}
	if len(insts) != len(wantOps) {
		t.Fatalf("assembled %d instructions, want %d", len(insts), len(wantOps))
	}
	for i, want := range wantOps {
		if insts[i].Op != want {
			t.Errorf("inst %d: op %s, want %s", i, insts[i].Op.Name(), want.Name())
		}
	}
	if insts[9].Imm != -100 {
		t.Errorf("lex imm = %d", insts[9].Imm)
	}
	if insts[8].RD != isa.RegRA {
		t.Errorf("jumpr reg = %d", insts[8].RD)
	}
}

// TestTable3QatMnemonics assembles every Qat instruction, including the
// sigil-disambiguated and/or/xor/not forms.
func TestTable3QatMnemonics(t *testing.T) {
	src := `
	and @1,@2,@3
	ccnot @4,@5,@6
	cnot @7,@8
	cswap @9,@10,@11
	had @12,13
	meas $1,@14
	next $2,@15
	not @16
	or @17,@18,@19
	one @20
	swap @21,@22
	xor @23,@24,@25
	zero @26
	pop $3,@27
	`
	p := mustAssemble(t, src)
	insts := decodeAll(t, p.Words)
	wantOps := []isa.Op{
		isa.OpQAnd, isa.OpQCcnot, isa.OpQCnot, isa.OpQCswap, isa.OpQHad,
		isa.OpQMeas, isa.OpQNext, isa.OpQNot, isa.OpQOr, isa.OpQOne,
		isa.OpQSwap, isa.OpQXor, isa.OpQZero, isa.OpQPop,
	}
	if len(insts) != len(wantOps) {
		t.Fatalf("assembled %d instructions, want %d", len(insts), len(wantOps))
	}
	for i, want := range wantOps {
		if insts[i].Op != want {
			t.Errorf("inst %d: op %s, want %s", i, insts[i].Op.Name(), want.Name())
		}
	}
	if insts[0].QA != 1 || insts[0].QB != 2 || insts[0].QC != 3 {
		t.Errorf("qand operands wrong: %+v", insts[0])
	}
	if insts[4].QA != 12 || insts[4].K != 13 {
		t.Errorf("had operands wrong: %+v", insts[4])
	}
}

func TestSigilDisambiguation(t *testing.T) {
	p := mustAssemble(t, "and $0,$1\nand @0,@1,@2\nnot $3\nnot @4\n")
	insts := decodeAll(t, p.Words)
	want := []isa.Op{isa.OpAnd, isa.OpQAnd, isa.OpNot, isa.OpQNot}
	for i, w := range want {
		if insts[i].Op != w {
			t.Errorf("inst %d = %s, want %s", i, insts[i].Op.Name(), w.Name())
		}
	}
}

func TestBranchOffsets(t *testing.T) {
	src := `
	top: lex $0,0
	brt $0,top
	brf $0,done
	lex $1,1
	done: sys
	`
	p := mustAssemble(t, src)
	insts := decodeAll(t, p.Words)
	// brt at address 1, target 0: offset = 0 - 2 = -2.
	if insts[1].Imm != -2 {
		t.Errorf("backward branch offset = %d, want -2", insts[1].Imm)
	}
	// brf at address 2, target 4: offset = 4 - 3 = 1.
	if insts[2].Imm != 1 {
		t.Errorf("forward branch offset = %d, want 1", insts[2].Imm)
	}
	if p.Symbols["top"] != 0 || p.Symbols["done"] != 4 {
		t.Errorf("symbols: %v", p.Symbols)
	}
}

func TestBranchOutOfRange(t *testing.T) {
	var b strings.Builder
	b.WriteString("brt $0,far\n")
	for i := 0; i < 200; i++ {
		b.WriteString("lex $0,0\n")
	}
	b.WriteString("far: sys\n")
	if _, err := Assemble(b.String()); err == nil {
		t.Fatal("out-of-range branch assembled")
	} else if !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("wrong error: %v", err)
	}
}

// TestTable2MacroBr: br expands to the brf/brt pair on $at.
func TestTable2MacroBr(t *testing.T) {
	p := mustAssemble(t, "br skip\nlex $0,1\nskip: sys\n")
	insts := decodeAll(t, p.Words)
	if insts[0].Op != isa.OpBrf || insts[0].RD != isa.RegAT {
		t.Errorf("br word 0: %+v", insts[0])
	}
	if insts[1].Op != isa.OpBrt || insts[1].RD != isa.RegAT {
		t.Errorf("br word 1: %+v", insts[1])
	}
	// Both target address 3: offsets 2 and 1.
	if insts[0].Imm != 2 || insts[1].Imm != 1 {
		t.Errorf("br offsets = %d,%d want 2,1", insts[0].Imm, insts[1].Imm)
	}
}

// TestTable2MacroJump: jump expands to lex/lhi/jumpr via $at.
func TestTable2MacroJump(t *testing.T) {
	src := ".space 300\ntarget: sys\nentry: jump target\n"
	p := mustAssemble(t, src)
	if p.Symbols["target"] != 300 {
		t.Fatalf("target at %d", p.Symbols["target"])
	}
	insts := decodeAll(t, p.Words[301:])
	if len(insts) != 3 {
		t.Fatalf("jump expanded to %d instructions", len(insts))
	}
	if insts[0].Op != isa.OpLex || insts[1].Op != isa.OpLhi || insts[2].Op != isa.OpJumpr {
		t.Fatalf("jump expansion: %v %v %v", insts[0].Op.Name(), insts[1].Op.Name(), insts[2].Op.Name())
	}
	// 300 = 0x012C: lex loads 0x2C, lhi loads 0x01.
	if uint8(insts[0].Imm) != 0x2C || uint8(insts[1].Imm) != 0x01 {
		t.Fatalf("jump immediate bytes %#x %#x", uint8(insts[0].Imm), uint8(insts[1].Imm))
	}
	if insts[2].RD != isa.RegAT {
		t.Error("jumpr must use $at")
	}
}

// TestTable2MacroJumpfJumpt: conditional jumps skip a fixed 3-word window.
func TestTable2MacroJumpfJumpt(t *testing.T) {
	p := mustAssemble(t, "jumpf $3,away\nsys\naway: sys\n")
	insts := decodeAll(t, p.Words)
	if insts[0].Op != isa.OpBrt || insts[0].RD != 3 || insts[0].Imm != 3 {
		t.Errorf("jumpf guard: %+v", insts[0])
	}
	p2 := mustAssemble(t, "jumpt $4,away\nsys\naway: sys\n")
	insts2 := decodeAll(t, p2.Words)
	if insts2[0].Op != isa.OpBrf || insts2[0].RD != 4 || insts2[0].Imm != 3 {
		t.Errorf("jumpt guard: %+v", insts2[0])
	}
}

// TestTable2MacroLoadi covers the short and long forms.
func TestTable2MacroLoadi(t *testing.T) {
	p := mustAssemble(t, "loadi $1,42\nloadi $2,-1\nloadi $3,1000\nloadi $4,0xABCD\n")
	insts := decodeAll(t, p.Words)
	if len(insts) != 6 {
		t.Fatalf("loadi expansion count = %d, want 6", len(insts))
	}
	if insts[0].Op != isa.OpLex || insts[0].Imm != 42 {
		t.Errorf("loadi 42: %+v", insts[0])
	}
	if insts[1].Op != isa.OpLex || insts[1].Imm != -1 {
		t.Errorf("loadi -1: %+v", insts[1])
	}
	// 1000 = 0x03E8.
	if insts[2].Op != isa.OpLex || uint8(insts[2].Imm) != 0xE8 {
		t.Errorf("loadi 1000 low: %+v", insts[2])
	}
	if insts[3].Op != isa.OpLhi || uint8(insts[3].Imm) != 0x03 {
		t.Errorf("loadi 1000 high: %+v", insts[3])
	}
	if uint8(insts[4].Imm) != 0xCD || uint8(insts[5].Imm) != 0xAB {
		t.Errorf("loadi 0xABCD: %+v %+v", insts[4], insts[5])
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := "  lex $0,31 ; initial channel\n\t\n; whole-line comment\nnext $0,@80 ; find factor\n"
	p := mustAssemble(t, src)
	insts := decodeAll(t, p.Words)
	if len(insts) != 2 || insts[0].Op != isa.OpLex || insts[1].Op != isa.OpQNext {
		t.Fatalf("unexpected: %v", insts)
	}
}

// TestPaperFig10Fragment assembles the measurement tail of Figure 10
// verbatim (comments included).
func TestPaperFig10Fragment(t *testing.T) {
	src := `
	or @80,@79,@79
	not @80
	lex $0,31
	next $0,@80
	copy $1,$0
	next $1,@80
	lex $2,15
	and $0,$2 ;5
	and $1,$2 ;3
	`
	p := mustAssemble(t, src)
	insts := decodeAll(t, p.Words)
	if len(insts) != 9 {
		t.Fatalf("got %d instructions", len(insts))
	}
	if insts[0].Op != isa.OpQOr || insts[0].QA != 80 || insts[0].QB != 79 || insts[0].QC != 79 {
		t.Errorf("or @80,@79,@79: %+v", insts[0])
	}
	if insts[1].Op != isa.OpQNot || insts[1].QA != 80 {
		t.Errorf("not @80: %+v", insts[1])
	}
	if insts[7].Op != isa.OpAnd || insts[7].RD != 0 || insts[7].RS != 2 {
		t.Errorf("and $0,$2: %+v", insts[7])
	}
}

func TestDataDirectives(t *testing.T) {
	src := "v: .word 0x1234\n.word -2\n.space 3\nlab: .word lab\n"
	p := mustAssemble(t, src)
	if len(p.Words) != 6 {
		t.Fatalf("image length %d", len(p.Words))
	}
	if p.Words[0] != 0x1234 {
		t.Errorf("word 0 = %#x", p.Words[0])
	}
	if p.Words[1] != 0xFFFE {
		t.Errorf("word 1 = %#x", p.Words[1])
	}
	if p.Words[2]|p.Words[3]|p.Words[4] != 0 {
		t.Error("space not zeroed")
	}
	if p.Words[5] != 5 {
		t.Errorf(".word lab = %d, want 5", p.Words[5])
	}
}

func TestCharLiterals(t *testing.T) {
	p := mustAssemble(t, "lex $0,'A'\nlex $1,'\\n'\n")
	insts := decodeAll(t, p.Words)
	if insts[0].Imm != 'A' || insts[1].Imm != '\n' {
		t.Errorf("char literals: %d %d", insts[0].Imm, insts[1].Imm)
	}
}

// errorCases pair a bad source with a fragment of its diagnostic.
var errorCases = []struct {
	src  string
	frag string
}{
	{"frob $1,$2", "unknown mnemonic"},
	{"add $1", "wants 2 operand"},
	{"add $1,$77", "bad register"},
	{"add $1,@2", "expected Tangled register"},
	{"meas @1,@2", "expected Tangled register"},
	{"zero $1", "expected Qat register"},
	{"had @1,16", "bad hadamard"},
	{"lex $0,300", "does not fit"},
	{"brt $0,nowhere", "undefined label"},
	{"x: sys\nx: sys", "duplicate label"},
	{"zero @256", "bad Qat register"},
	{"lex $0,zzz", "undefined constant"},
}

func TestErrors(t *testing.T) {
	for _, c := range errorCases {
		_, err := Assemble(c.src)
		if err == nil {
			t.Errorf("%q assembled without error", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%q: error %q lacks %q", c.src, err.Error(), c.frag)
		}
	}
}

func TestErrorListAggregates(t *testing.T) {
	_, err := Assemble("frob\nfrob2\nadd $1\n")
	el, ok := err.(ErrorList)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if len(el) != 3 {
		t.Fatalf("got %d errors, want 3", len(el))
	}
	if el[1].Line != 2 {
		t.Errorf("second error line = %d", el[1].Line)
	}
}

func TestMultipleLabelsSameAddress(t *testing.T) {
	p := mustAssemble(t, "a: b: sys\n")
	if p.Symbols["a"] != 0 || p.Symbols["b"] != 0 {
		t.Errorf("symbols: %v", p.Symbols)
	}
	if names := p.SymbolsByAddr(); len(names) != 2 || names[0] != "a" {
		t.Errorf("SymbolsByAddr = %v", names)
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	src := "had @0,3\nccnot @1,@2,@3\nlex $0,31\nnext $0,@80\nsys\n"
	p := mustAssemble(t, src)
	dis := Disassemble(p.Words)
	want := []string{"had @0,3", "ccnot @1,@2,@3", "lex $0,31", "next $0,@80", "sys"}
	if len(dis) != len(want) {
		t.Fatalf("disassembly: %v", dis)
	}
	for i := range want {
		if dis[i] != want[i] {
			t.Errorf("line %d: %q want %q", i, dis[i], want[i])
		}
	}
	// Reassembling the disassembly yields the identical image.
	p2 := mustAssemble(t, strings.Join(dis, "\n"))
	if len(p2.Words) != len(p.Words) {
		t.Fatal("reassembly length differs")
	}
	for i := range p.Words {
		if p.Words[i] != p2.Words[i] {
			t.Errorf("word %d differs", i)
		}
	}
}

func TestDisassembleIllegalAsData(t *testing.T) {
	out := Disassemble([]uint16{0xA000})
	if len(out) != 1 || !strings.HasPrefix(out[0], ".word") {
		t.Errorf("illegal word rendered as %v", out)
	}
}

func TestSourceMap(t *testing.T) {
	p := mustAssemble(t, "lex $0,1\nand @1,@2,@3\nsys\n")
	if len(p.Source) != 4 {
		t.Fatalf("source map length %d", len(p.Source))
	}
	if p.Source[0] != 1 || p.Source[1] != 2 || p.Source[2] != 2 || p.Source[3] != 3 {
		t.Errorf("source map %v", p.Source)
	}
}

func BenchmarkTable2MacroExpansion(b *testing.B) {
	src := strings.Repeat("jumpf $1,end\nloadi $2,0x1234\n", 50) + "end: sys\n"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Assemble(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAssembleLarge(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 1000; i++ {
		sb.WriteString("and @1,@2,@3\nxor @4,@5,@6\nlex $0,5\n")
	}
	src := sb.String()
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := Assemble(src); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEquConstants(t *testing.T) {
	src := `
	.equ NVAL 42
	.equ BIG 0x1234
	.equ OFFS 2
	lex $1,NVAL
	loadi $2,BIG
	brt $1,OFFS       ; literal offset from a constant
	lex $3,1          ; skipped when $1 != 0
	lex $3,2          ; skipped when $1 != 0
	lex $4,NVAL
	.word NVAL
	`
	p := mustAssemble(t, src)
	insts := decodeAll(t, p.Words[:len(p.Words)-1])
	if insts[0].Op != isa.OpLex || insts[0].Imm != 42 {
		t.Errorf("lex with const: %+v", insts[0])
	}
	if uint8(insts[1].Imm) != 0x34 || uint8(insts[2].Imm) != 0x12 {
		t.Errorf("loadi with const: %+v %+v", insts[1], insts[2])
	}
	if insts[3].Op != isa.OpBrt || insts[3].Imm != 2 {
		t.Errorf("brt with const offset: %+v", insts[3])
	}
	if p.Words[len(p.Words)-1] != 42 {
		t.Errorf(".word with const = %d", p.Words[len(p.Words)-1])
	}
}

func TestEquForwardReference(t *testing.T) {
	// Constants may be defined after use (resolved in pass 2)...
	p := mustAssemble(t, "lex $1,LATER\n.equ LATER 7\n")
	insts := decodeAll(t, p.Words)
	if insts[0].Imm != 7 {
		t.Errorf("forward .equ: %+v", insts[0])
	}
	// ...except in .space, whose size fixes addresses in pass 1.
	if _, err := Assemble(".space LATER\n.equ LATER 3\n"); err == nil {
		t.Error("forward .equ in .space accepted")
	}
}

func TestEquSpaceSize(t *testing.T) {
	p := mustAssemble(t, ".equ N 5\n.space N\nend: sys\n")
	if p.Symbols["end"] != 5 {
		t.Errorf("end at %d", p.Symbols["end"])
	}
}

var equErrorCases = []struct{ src, frag string }{
	{".equ X 1\n.equ X 2\n", "redefinition"},
	{".equ X 1\nX: sys\n", "collides"},
	{"X: sys\n.equ X 1\n", "collides"},
	{".equ 9bad 1\n", "invalid name"},
	{".equ X 99999\n", "does not fit"},
	{".equ HUGE 300\nlex $1,HUGE\n", "does not fit in 8 bits"},
}

func TestEquErrors(t *testing.T) {
	for _, c := range equErrorCases {
		if _, err := Assemble(c.src); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%q: err %v lacks %q", c.src, err, c.frag)
		}
	}
}

func TestAsciiDirective(t *testing.T) {
	p := mustAssemble(t, `.ascii "hi;\n"`+"\n")
	want := []uint16{'h', 'i', ';', '\n'}
	if len(p.Words) != len(want) {
		t.Fatalf("emitted %d words: %v", len(p.Words), p.Words)
	}
	for i, w := range want {
		if p.Words[i] != w {
			t.Errorf("word %d = %d, want %d", i, p.Words[i], w)
		}
	}
}

func TestAsciiWithCommaAndEscapes(t *testing.T) {
	p := mustAssemble(t, `.ascii "a,b\"\\\t\0"`+"\n")
	want := []uint16{'a', ',', 'b', '"', '\\', '\t', 0}
	if len(p.Words) != len(want) {
		t.Fatalf("emitted %v", p.Words)
	}
	for i, w := range want {
		if p.Words[i] != w {
			t.Errorf("word %d = %d, want %d", i, p.Words[i], w)
		}
	}
}

func TestAsciiErrors(t *testing.T) {
	for _, src := range []string{".ascii hello\n", `.ascii "bad\q"` + "\n", `.ascii "unterminated` + "\n"} {
		if _, err := Assemble(src); err == nil {
			t.Errorf("%q accepted", src)
		}
	}
}

func TestCommentInsideCharLiteral(t *testing.T) {
	p := mustAssemble(t, "lex $1,';'\n")
	insts := decodeAll(t, p.Words)
	if insts[0].Imm != ';' {
		t.Errorf("char ';' = %d", insts[0].Imm)
	}
}

// TestS5QatMacros: the reversible-gate macros behave identically to the
// native instructions — the Section 5 "implement as assembler macros"
// claim, executed.
func TestS5QatMacros(t *testing.T) {
	native := `
	had @1,0
	had @2,1
	had @3,2
	cnot @1,@2
	ccnot @2,@1,@3
	swap @1,@2
	cswap @1,@2,@3
	`
	macro := `
	had @1,0
	had @2,1
	had @3,2
	mcnot @1,@2
	mccnot @2,@1,@3
	mswap @1,@2
	mcswap @1,@2,@3
	`
	pn := mustAssemble(t, native)
	pm := mustAssemble(t, macro)
	// The macro version must be longer (it trades ports for instructions).
	if len(pm.Words) <= len(pn.Words) {
		t.Errorf("macro image %d words <= native %d", len(pm.Words), len(pn.Words))
	}
	// Semantics are checked in the cpu integration test (needs a machine).
}

func TestQatMacroExpansion(t *testing.T) {
	p := mustAssemble(t, "mcnot @1,@2\n")
	insts := decodeAll(t, p.Words)
	if len(insts) != 1 || insts[0].Op != isa.OpQXor ||
		insts[0].QA != 1 || insts[0].QB != 1 || insts[0].QC != 2 {
		t.Errorf("mcnot expansion: %v", insts)
	}
	p2 := mustAssemble(t, "mccnot @1,@2,@3\n")
	insts2 := decodeAll(t, p2.Words)
	if len(insts2) != 2 || insts2[0].Op != isa.OpQAnd || insts2[0].QA != QatAT {
		t.Errorf("mccnot expansion: %v", insts2)
	}
	p3 := mustAssemble(t, "mswap @1,@2\n")
	if len(decodeAll(t, p3.Words)) != 3 {
		t.Error("mswap should expand to 3 xors")
	}
	p4 := mustAssemble(t, "mcswap @1,@2,@3\n")
	if len(decodeAll(t, p4.Words)) != 4 {
		t.Error("mcswap should expand to 4 instructions")
	}
}

func TestQatMacroReservedTemp(t *testing.T) {
	if _, err := Assemble("mccnot @255,@1,@2\n"); err == nil ||
		!strings.Contains(err.Error(), "reserved") {
		t.Errorf("reserved temp accepted: %v", err)
	}
}

func TestQatMacroSelfSwap(t *testing.T) {
	// mswap @a,@a must not emit the xor-swap (it would zero the register).
	p := mustAssemble(t, "mswap @7,@7\nsys\n")
	insts := decodeAll(t, p.Words)
	if len(insts) != 1 || insts[0].Op != isa.OpSys {
		t.Errorf("self mswap emitted %v", insts)
	}
}

// TestUserMacros covers the AIK-style .macro facility: parameters, local
// labels, nesting, and diagnostics.
func TestUserMacros(t *testing.T) {
	src := `
	.macro inc r
	lex $at,1
	add \r,$at
	.endm
	lex $1,41
	inc $1
	`
	p := mustAssemble(t, src)
	insts := decodeAll(t, p.Words)
	if len(insts) != 3 {
		t.Fatalf("expanded to %d instructions", len(insts))
	}
	if insts[2].Op != isa.OpAdd || insts[2].RD != 1 || insts[2].RS != isa.RegAT {
		t.Errorf("macro body: %+v", insts[2])
	}
}

func TestUserMacroLocalLabels(t *testing.T) {
	// A countdown macro used twice: its loop label must not collide.
	src := `
	.macro countdown r n
	lex \r,\n
	lex $at,-1
	loop$: add \r,$at
	brt \r,loop$
	.endm
	countdown $1,5
	countdown $2,3
	`
	p := mustAssemble(t, src)
	if len(p.Words) != 8 {
		t.Fatalf("image %d words", len(p.Words))
	}
	// Both expansions carry their own backward branch.
	insts := decodeAll(t, p.Words)
	if insts[3].Op != isa.OpBrt || insts[3].Imm != -2 {
		t.Errorf("first loop branch: %+v", insts[3])
	}
	if insts[7].Op != isa.OpBrt || insts[7].Imm != -2 {
		t.Errorf("second loop branch: %+v", insts[7])
	}
}

func TestUserMacroNesting(t *testing.T) {
	src := `
	.macro double r
	add \r,\r
	.endm
	.macro quad r
	double \r
	double \r
	.endm
	quad $3
	`
	p := mustAssemble(t, src)
	insts := decodeAll(t, p.Words)
	if len(insts) != 2 || insts[0].Op != isa.OpAdd || insts[1].Op != isa.OpAdd {
		t.Fatalf("nested expansion: %v", insts)
	}
}

func TestUserMacroParamPrefixes(t *testing.T) {
	// \count must not be clobbered by substituting \c first.
	src := `
	.macro both c count
	lex \c,1
	lex \count,2
	.endm
	both $1,$2
	`
	p := mustAssemble(t, src)
	insts := decodeAll(t, p.Words)
	if insts[0].RD != 1 || insts[0].Imm != 1 || insts[1].RD != 2 || insts[1].Imm != 2 {
		t.Errorf("prefix clash: %+v %+v", insts[0], insts[1])
	}
}

var userMacroErrorCases = []struct{ src, frag string }{
	{".macro add x\n.endm\n", "shadows"},
	{".macro br x\n.endm\n", "shadows"},
	{".macro m\n.endm\n.macro m\n.endm\n", "redefinition"},
	{".macro m x\nlex \\x,1\n.endm\nm $1,$2\n", "wants 1 argument"},
	{".macro m\nsys\n", "unterminated"},
	{".endm\n", ".endm without"},
	{".macro m\nm\n.endm\nm\n", "too deep"},
}

func TestUserMacroErrors(t *testing.T) {
	for _, c := range userMacroErrorCases {
		if _, err := Assemble(c.src); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%q: err %v lacks %q", c.src, err, c.frag)
		}
	}
}

// TestUserMacroQatSearch builds a reusable measurement macro — the style
// of helper the class projects would define with AIK.
func TestUserMacroQatSearch(t *testing.T) {
	src := `
	.macro firstone dst qreg
	lex \dst,0
	next \dst,\qreg
	.endm
	had @5,3
	firstone $1,@5
	lex $0,0
	sys
	`
	p := mustAssemble(t, src)
	insts := decodeAll(t, p.Words)
	if insts[2].Op != isa.OpQNext || insts[2].RD != 1 || insts[2].QA != 5 {
		t.Errorf("macro with mixed sigils: %+v", insts[2])
	}
}

// TestAssembleWithStudentEncoding: the same source assembles under both
// codecs; images differ bit-for-bit but transcode into each other.
func TestAssembleWithStudentEncoding(t *testing.T) {
	src := "had @1,3\nlex $1,0\nnext $1,@1\nand @2,@1,@1\nlex $0,0\nsys\n"
	pp, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := AssembleWith(src, isa.Student)
	if err != nil {
		t.Fatal(err)
	}
	if len(pp.Words) != len(ps.Words) {
		t.Fatalf("lengths differ: %d vs %d", len(pp.Words), len(ps.Words))
	}
	same := 0
	for i := range pp.Words {
		if pp.Words[i] == ps.Words[i] {
			same++
		}
	}
	if same == len(pp.Words) {
		t.Fatal("encodings produced identical images")
	}
	tc, err := isa.Transcode(pp.Words, isa.Primary, isa.Student)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tc {
		if tc[i] != ps.Words[i] {
			t.Fatalf("word %d: transcode %04x != direct %04x", i, tc[i], ps.Words[i])
		}
	}
	// Student-encoded disassembly round trip.
	dis := DisassembleWith(ps.Words, isa.Student)
	ps2, err := AssembleWith(strings.Join(dis, "\n"), isa.Student)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ps.Words {
		if ps2.Words[i] != ps.Words[i] {
			t.Fatalf("student reassembly word %d differs", i)
		}
	}
}

// formatErrorCases each fail one operand check of an instruction format.
var formatErrorCases = []string{
	"copy $1",        // FmtRR arity
	"copy @1,$2",     // FmtRR wrong sigil
	"copy $1,@2",     // FmtRR wrong sigil (source)
	"neg",            // FmtR arity
	"neg @1",         // FmtR sigil
	"lex $1",         // FmtRI arity
	"lex @1,5",       // FmtRI sigil
	"brt $1",         // FmtBr arity
	"brt @1,x",       // FmtBr sigil
	"sys $1",         // FmtNone arity
	"zero",           // FmtQ1 arity
	"had @1",         // FmtQHad arity
	"had $1,3",       // FmtQHad sigil
	"meas $1",        // FmtQMeas arity
	"meas $1,$2",     // FmtQMeas sigil
	"cnot @1",        // FmtQ2 arity
	"cnot @1,$2",     // FmtQ2 sigil
	"ccnot @1,@2",    // FmtQ3 arity
	"ccnot @1,@2,$3", // FmtQ3 sigil
	"cswap $1,@2,@3", // FmtQ3 sigil (first)
	"brt $1,300",     // branch literal out of range
	".word",          // directive arity
	".word 99999",    // directive range
	".space -1",      // negative size
	".ascii",         // arity
}

// TestFormatErrorPaths drives the remaining operand-validation branches of
// every instruction format.
func TestFormatErrorPaths(t *testing.T) {
	for _, src := range formatErrorCases {
		if _, err := Assemble(src + "\n"); err == nil {
			t.Errorf("%q assembled", src)
		}
	}
}

// TestQatRegisterNumericRange: @255 is the highest register; larger values
// and junk are rejected everywhere a Qat register is parsed.
func TestQatRegisterNumericRange(t *testing.T) {
	if _, err := Assemble("zero @255\n"); err != nil {
		t.Errorf("@255 rejected: %v", err)
	}
	for _, src := range []string{"zero @256\n", "zero @-1\n", "zero @x\n"} {
		if _, err := Assemble(src); err == nil {
			t.Errorf("%q assembled", src)
		}
	}
}

var errorColumnCases = []struct {
	src       string
	line, col int
	frag      string
}{
	{"x: sys\nx: sys", 2, 1, "duplicate label"},
	{"  add $1,$77", 1, 10, "bad register"},
	{"lex $0,300", 1, 8, "does not fit"},
	{"brt $0,nowhere", 1, 8, "undefined label"},
	{"frob $1,$2", 1, 1, "unknown mnemonic"},
	{"zero @256", 1, 6, "bad Qat register"},
}

// TestErrorColumns checks that diagnostics carry 1-based line and column
// info pointing at the offending token — the contract /v1/assemble's 400
// body and qatlint's text output both depend on.
func TestErrorColumns(t *testing.T) {
	for _, c := range errorColumnCases {
		_, err := Assemble(c.src)
		if err == nil {
			t.Errorf("%q assembled without error", c.src)
			continue
		}
		el, ok := err.(ErrorList)
		if !ok || len(el) == 0 {
			t.Errorf("%q: error type %T", c.src, err)
			continue
		}
		e := el[0]
		if e.Line != c.line || e.Col != c.col || !strings.Contains(e.Msg, c.frag) {
			t.Errorf("%q: got line %d col %d msg %q, want line %d col %d msg containing %q",
				c.src, e.Line, e.Col, e.Msg, c.line, c.col, c.frag)
		}
	}
}

// operandColumnCases blame the token the scan found, not the first
// occurrence of its text on the line: each failed when columns were
// recovered by searching the line. They stay out of errorColumnCases so
// the assembler digest's source set is unchanged.
var operandColumnCases = []struct {
	src       string
	line, col int
	frag      string
}{
	{"add $1,$", 1, 8, `bad register "$"`},
	{"lex $1,$1", 1, 8, `bad immediate "$1"`},
	{"copy $1,$;", 1, 9, `bad register "$"`},
	{"mcnot @1,@1x", 1, 10, "bad Qat register"},
	{" X", 1, 2, "unknown mnemonic"},
	{"x: syL", 1, 4, "unknown mnemonic"},
	{"L::", 1, 3, "unknown mnemonic"},
}

func TestErrorColumnsFromOperandScan(t *testing.T) {
	for _, c := range operandColumnCases {
		_, err := Assemble(c.src)
		el, ok := err.(ErrorList)
		if !ok || len(el) != 1 {
			t.Errorf("%q: got %v, want one diagnostic", c.src, err)
			continue
		}
		if e := el[0]; e.Line != c.line || e.Col != c.col || !strings.Contains(e.Msg, c.frag) {
			t.Errorf("%q: got %d:%d %q, want %d:%d containing %q", c.src, e.Line, e.Col, e.Msg, c.line, c.col, c.frag)
		}
	}
}

// TestUnresolvedReferenceReportedOnce: a statement that expands to several
// words carries its label reference in each, but an undefined label is one
// mistake and gets one diagnostic.
func TestUnresolvedReferenceReportedOnce(t *testing.T) {
	for _, c := range []struct {
		src  string
		want string
	}{
		{"lex $0,1\nbr zz\n", `line 2:4: undefined label or constant "zz"`},
		{"jump zz\n", `line 1:6: undefined label or constant "zz"`},
		{"jumpt $3,zz\n", `line 1:10: undefined label or constant "zz"`},
		{"loadi $2,zz\n", `line 1:10: undefined label or constant "zz"`},
		{"br zz\nbr zz\n", "line 1:4: undefined label or constant \"zz\"\nline 2:4: undefined label or constant \"zz\""},
	} {
		if _, err := Assemble(c.src); err == nil || err.Error() != c.want {
			t.Errorf("%q: got %v, want %q", c.src, err, c.want)
		}
	}
}

// TestBranchOutOfRangeColumn checks the pass-2 out-of-range diagnostic
// points at the branch target token.
func TestBranchOutOfRangeColumn(t *testing.T) {
	src := "brt $0,far\n"
	for i := 0; i < 200; i++ {
		src += "sys\n"
	}
	src += "far: sys\n"
	_, err := Assemble(src)
	el, ok := err.(ErrorList)
	if !ok || len(el) == 0 {
		t.Fatalf("error type %T (%v)", err, err)
	}
	if el[0].Line != 1 || el[0].Col != 8 || !strings.Contains(el[0].Msg, "out of range") {
		t.Errorf("got %+v, want line 1 col 8 out-of-range", el[0])
	}
}

// TestProgramDataMarks checks Data marks exactly the directive-emitted words.
func TestProgramDataMarks(t *testing.T) {
	p := mustAssemble(t, "lex $0,0\nsys\ntab: .word 7\n.space 2\n.ascii \"ab\"\n")
	if len(p.Data) != len(p.Words) {
		t.Fatalf("Data length %d != Words length %d", len(p.Data), len(p.Words))
	}
	want := []bool{false, false, true, true, true, true, true}
	if len(p.Words) != len(want) {
		t.Fatalf("got %d words, want %d", len(p.Words), len(want))
	}
	for i, w := range want {
		if p.Data[i] != w {
			t.Errorf("Data[%d] = %v, want %v", i, p.Data[i], w)
		}
	}
}

var commaLiteralCases = []struct {
	src  string
	want uint16 // the first word's immediate or data value
}{
	{"lex $1,','\n", ','},
	{"lex $1 , ',' ; a comma\n", ','},
	{".word ','\n", ','},
	{".word ';'\n", ';'},
	{".equ C,','\nlex $1,C\n", ','},
	{".macro put r c\nlex \\r,\\c\n.endm\nput $2,','\n", ','},
}

// TestCommaInsideCharLiteral: a ',' inside a character literal is part of
// the operand, as ';' is.
func TestCommaInsideCharLiteral(t *testing.T) {
	for _, c := range commaLiteralCases {
		p, err := Assemble(c.src)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		got := p.Words[0]
		if !p.Data[0] {
			got = uint16(uint8(decodeAll(t, p.Words)[0].Imm))
		}
		if got != c.want {
			t.Errorf("%q: value %d, want %d", c.src, got, c.want)
		}
	}
}

// TestImageBound: a short source cannot make the assembler build an image
// larger than memory. It gets one diagnostic, on the line that overflows,
// and the assembler stops growing the image there.
func TestImageBound(t *testing.T) {
	src := strings.Repeat(".space 65535\n", 40) + "sys\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Assemble(src)
	runtime.ReadMemStats(&after)
	el, ok := err.(ErrorList)
	if !ok || len(el) != 1 {
		t.Fatalf("got %v, want one diagnostic", err)
	}
	if want := (Error{Line: 2, Msg: "image exceeds the 65536-word memory"}); el[0] != want {
		t.Fatalf("got %+v, want %+v", el[0], want)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("rejecting a %d-byte source allocated %d bytes", len(src), alloc)
	}
}

var imageLimitCases = []struct {
	src string
	err Error
}{
	{".space 65535\nsys\nsys\n", Error{Line: 3, Msg: "image exceeds the 65536-word memory"}},
	{".space 65535\nand @1,@2,@3\n", Error{Line: 2, Msg: "image exceeds the 65536-word memory"}},
	{".space 65535\nsys\nend: .word 0\n", Error{Line: 3, Col: 1, Msg: `label "end" is past the end of the 65536-word memory`}},
}

// TestImageFillsMemory: an image of exactly isa.MemWords words assembles;
// one more word, or a label past the last word, is diagnosed.
func TestImageFillsMemory(t *testing.T) {
	p := mustAssemble(t, ".space 65534\nlast: sys\nlex $0,0\n")
	if len(p.Words) != isa.MemWords || len(p.Source) != isa.MemWords || len(p.Data) != isa.MemWords {
		t.Fatalf("image %d words, want %d", len(p.Words), isa.MemWords)
	}
	if p.Symbols["last"] != 65534 || p.Source[65535] != 3 || p.Data[65535] {
		t.Fatalf("last word: symbol %d, line %d, data %v", p.Symbols["last"], p.Source[65535], p.Data[65535])
	}
	for _, c := range imageLimitCases {
		_, err := Assemble(c.src)
		if el, ok := err.(ErrorList); !ok || len(el) != 1 || el[0] != c.err {
			t.Errorf("%q: got %v, want %v", c.src, err, c.err)
		}
	}
}
