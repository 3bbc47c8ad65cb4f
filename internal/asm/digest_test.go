package asm

// The assembler digest: one SHA-256 over the output of assembling a fixed
// source set under both encodings. For each source it hashes the words,
// Source, Data and symbols of the program, or else every diagnostic (line,
// column, message), so a rewrite of the scanner, the item list or the
// encoder that changes any output byte or any diagnostic fails here.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tangled/internal/compile"
	"tangled/internal/farm/farmtest"
	"tangled/internal/isa"
)

// assemblerDigest is the digest of digestSources under isa.Primary and
// isa.Student.
const assemblerDigest = "a0f821940472076cfa2545d6caf8adfb9fbc4a629ca20a7f03d8ea7875b1bfd6"

// digestMutants is how many seeded mutants of the other sources are added.
const digestMutants = 600

// inlineTestSources are the sources written inline in asm_test.go's tests
// (the table-driven ones are shared directly).
var inlineTestSources = []string{
	"add $1,$2\naddf $3,$4\nand $5,$6\nbrf $7,2\nbrt $8,-3\ncopy $9,$10\nfloat $0\nint $1\njumpr $ra\nlex $2,-100\nlhi $3,0x7F\nload $4,$5\nmul $6,$7\nmulf $8,$9\nneg $0\nnegf $1\nnot $2\nor $3,$4\nrecip $5\nshift $6,$7\nslt $8,$9\nstore $10,$0\nsys\nxor $1,$2\n",
	"and @1,@2,@3\nccnot @4,@5,@6\ncnot @7,@8\ncswap @9,@10,@11\nhad @12,13\nmeas $1,@14\nnext $2,@15\nnot @16\nor @17,@18,@19\none @20\nswap @21,@22\nxor @23,@24,@25\nzero @26\npop $3,@27\n",
	"and $0,$1\nand @0,@1,@2\nnot $3\nnot @4\n",
	"\ttop: lex $0,0\n\tbrt $0,top\n\tbrf $0,done\n\tlex $1,1\n\tdone: sys\n",
	"brt $0,far\n" + strings.Repeat("lex $0,0\n", 200) + "far: sys\n",
	"br skip\nlex $0,1\nskip: sys\n",
	".space 300\ntarget: sys\nentry: jump target\n",
	"jumpf $3,away\nsys\naway: sys\n",
	"jumpt $4,away\nsys\naway: sys\n",
	"loadi $1,42\nloadi $2,-1\nloadi $3,1000\nloadi $4,0xABCD\n",
	"  lex $0,31 ; initial channel\n\t\n; whole-line comment\nnext $0,@80 ; find factor\n",
	"\tor @80,@79,@79\n\tnot @80\n\tlex $0,31\n\tnext $0,@80\n\tcopy $1,$0\n\tnext $1,@80\n\tlex $2,15\n\tand $0,$2 ;5\n\tand $1,$2 ;3\n",
	"v: .word 0x1234\n.word -2\n.space 3\nlab: .word lab\n",
	"lex $0,'A'\nlex $1,'\\n'\n",
	"frob\nfrob2\nadd $1\n",
	"a: b: sys\n",
	"had @0,3\nccnot @1,@2,@3\nlex $0,31\nnext $0,@80\nsys\n",
	"lex $0,1\nand @1,@2,@3\nsys\n",
	strings.Repeat("jumpf $1,end\nloadi $2,0x1234\n", 50) + "end: sys\n",
	"\t.equ NVAL 42\n\t.equ BIG 0x1234\n\t.equ OFFS 2\n\tlex $1,NVAL\n\tloadi $2,BIG\n\tbrt $1,OFFS       ; literal offset from a constant\n\tlex $3,1\n\tlex $3,2\n\tlex $4,NVAL\n\t.word NVAL\n",
	"lex $1,LATER\n.equ LATER 7\n",
	".space LATER\n.equ LATER 3\n",
	".equ N 5\n.space N\nend: sys\n",
	`.ascii "hi;\n"` + "\n",
	`.ascii "a,b\"\\\t\0"` + "\n",
	".ascii hello\n",
	`.ascii "bad\q"` + "\n",
	`.ascii "unterminated` + "\n",
	"lex $1,';'\n",
	"had @1,0\nhad @2,1\nhad @3,2\ncnot @1,@2\nccnot @2,@1,@3\nswap @1,@2\ncswap @1,@2,@3\n",
	"had @1,0\nhad @2,1\nhad @3,2\nmcnot @1,@2\nmccnot @2,@1,@3\nmswap @1,@2\nmcswap @1,@2,@3\n",
	"mccnot @255,@1,@2\n",
	"mswap @7,@7\nsys\n",
	"\t.macro inc r\n\tlex $at,1\n\tadd \\r,$at\n\t.endm\n\tlex $1,41\n\tinc $1\n",
	"\t.macro countdown r n\n\tlex \\r,\\n\n\tlex $at,-1\n\tloop$: add \\r,$at\n\tbrt \\r,loop$\n\t.endm\n\tcountdown $1,5\n\tcountdown $2,3\n",
	"\t.macro double r\n\tadd \\r,\\r\n\t.endm\n\t.macro quad r\n\tdouble \\r\n\tdouble \\r\n\t.endm\n\tquad $3\n",
	"\t.macro both c count\n\tlex \\c,1\n\tlex \\count,2\n\t.endm\n\tboth $1,$2\n",
	"\t.macro firstone dst qreg\n\tlex \\dst,0\n\tnext \\dst,\\qreg\n\t.endm\n\thad @5,3\n\tfirstone $1,@5\n\tlex $0,0\n\tsys\n",
	"had @1,3\nlex $1,0\nnext $1,@1\nand @2,@1,@1\nlex $0,0\nsys\n",
	"zero @255\n", "zero @256\n", "zero @-1\n", "zero @x\n",
	"lex $0,0\nsys\ntab: .word 7\n.space 2\n.ascii \"ab\"\n",
	strings.Repeat(".space 65535\n", 40) + "sys\n",
	".space 65534\nlast: sys\nlex $0,0\n",
}

// digestSources returns the pinned source set: the farmtest corpus, the
// assembly examples, compiled factoring and subset-sum programs, the
// sources of asm_test.go, and seeded mutants of all of those.
func digestSources(t *testing.T) []string {
	t.Helper()
	var srcs []string
	for i := 0; i < farmtest.Programs; i++ {
		srcs = append(srcs, farmtest.Generate(farmtest.Seed(i)))
	}
	files, err := filepath.Glob("../../examples/asm/*.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no assembly examples: %v", err)
	}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, string(src))
	}
	for _, f := range []struct {
		n                  uint64
		ways, aBits, bBits int
		opts               compile.Options
	}{
		{15, 8, 4, 4, compile.Options{}},
		{15, 8, 4, 4, compile.Options{Reuse: true, ConstantRegs: true}},
		{143, 16, 8, 8, compile.Options{Reuse: true}},
		{221, 16, 8, 8, compile.Options{Reuse: true, Reversible: true}},
	} {
		res, err := compile.FactorProgram(f.n, f.ways, f.aBits, f.bBits, f.opts)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, res.Asm)
	}
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 4; i++ {
		weights := make([]uint64, 8+2*i)
		var total uint64
		for k := range weights {
			weights[k] = uint64(1 + r.Intn(40))
			total += weights[k]
		}
		res, err := compile.SubsetSumProgram(weights, 1+uint64(r.Int63n(int64(total))), 16, compile.Options{Reuse: true})
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, res.Asm)
	}
	for _, c := range errorCases {
		srcs = append(srcs, c.src)
	}
	for _, c := range equErrorCases {
		srcs = append(srcs, c.src)
	}
	for _, c := range userMacroErrorCases {
		srcs = append(srcs, c.src)
	}
	for _, src := range formatErrorCases {
		srcs = append(srcs, src+"\n")
	}
	for _, c := range errorColumnCases {
		srcs = append(srcs, c.src)
	}
	for _, c := range commaLiteralCases {
		srcs = append(srcs, c.src)
	}
	for _, c := range imageLimitCases {
		srcs = append(srcs, c.src)
	}
	srcs = append(srcs, inlineTestSources...)
	bases := len(srcs)
	for i := 0; i < digestMutants; i++ {
		srcs = append(srcs, mutate(r, srcs[r.Intn(bases)]))
	}
	return srcs
}

// mutationTokens are operand replacements that reach the scanner's and the
// operand parsers' edge cases.
var mutationTokens = []string{
	"", "$1", "$at", "$16", "$-1", "@0", "@255", "@256", "@", "$", "0", "-128", "255", "256",
	"0x7f", "0b101", "'a'", "','", "';'", "'\\n'", "'ab'", "'", `"s,;"`, "L1", "loop$", "X",
	"\\r", "lab:", ".space", "1,2", " , ",
}

// garbleBytes are the byte replacements, weighted to the scanner's
// separators, quotes and sigils.
const garbleBytes = " \t,;:'\"$@\\.x09-+L"

// mutate applies one to three seeded edits to src: drop, duplicate or swap
// a line, garble a byte, or replace an operand.
func mutate(r *rand.Rand, src string) string {
	lines := strings.Split(src, "\n")
	for n := 1 + r.Intn(3); n > 0; n-- {
		i := r.Intn(len(lines))
		switch r.Intn(5) {
		case 0:
			lines = append(lines[:i], lines[i+1:]...)
			if len(lines) == 0 {
				lines = []string{""}
			}
		case 1:
			lines = append(lines[:i+1], lines[i:]...)
		case 2:
			j := r.Intn(len(lines))
			lines[i], lines[j] = lines[j], lines[i]
		case 3:
			if b := []byte(lines[i]); len(b) > 0 {
				b[r.Intn(len(b))] = garbleBytes[r.Intn(len(garbleBytes))]
				lines[i] = string(b)
			}
		case 4:
			ops := strings.Split(lines[i], ",")
			k := r.Intn(len(ops))
			if k == 0 {
				ops[0] += " " + mutationTokens[r.Intn(len(mutationTokens))]
			} else {
				ops[k] = mutationTokens[r.Intn(len(mutationTokens))]
			}
			lines[i] = strings.Join(ops, ",")
		}
	}
	return strings.Join(lines, "\n")
}

// digestEntry is one source's outcome: a program or its diagnostics.
type digestEntry struct {
	Words   []uint16
	Source  []int
	Data    []bool
	Symbols map[string]uint16 // encoded sorted by name
	Errors  []Error
}

func writeEntry(t *testing.T, h hash.Hash, e digestEntry) {
	t.Helper()
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(b)
	h.Write([]byte{'\n'})
}

func TestAssemblerDigest(t *testing.T) {
	srcs := digestSources(t)
	h := sha256.New()
	for _, enc := range []isa.Encoding{isa.Primary, isa.Student} {
		for i, src := range srcs {
			p, err := AssembleWith(src, enc)
			if err != nil {
				el, ok := err.(ErrorList)
				if !ok || len(el) == 0 {
					t.Fatalf("source %d: error %T %v is not a diagnostic list", i, err, err)
				}
				writeEntry(t, h, digestEntry{Errors: el})
				continue
			}
			writeEntry(t, h, digestEntry{Words: p.Words, Source: p.Source, Data: p.Data, Symbols: p.Symbols})
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != assemblerDigest {
		t.Fatalf("assembler digest %s, want %s: an output word, source line, data mark, symbol or diagnostic changed (%d sources)",
			got, assemblerDigest, len(srcs))
	}
}
