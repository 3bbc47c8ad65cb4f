package asm

import (
	"reflect"
	"strings"
	"testing"

	"tangled/internal/isa"
)

// FuzzAssemble: arbitrary source must produce a program or a diagnostic,
// never a panic, and the same one every time. A program fits in memory,
// carries one Source line and one Data mark per word, and disassembles and
// reassembles to the identical image (modulo data words, which disassemble
// as .word).
func FuzzAssemble(f *testing.F) {
	f.Add("add $1,$2\n")
	f.Add("lab: br lab\n")
	f.Add(".equ X 4\nlex $1,X\n.word X\n")
	f.Add("and @1,@2,@3\nnext $0,@80\n")
	f.Add(`.ascii "hi"` + "\n")
	f.Add("loadi $3,0xABCD\njumpf $1,done\ndone: sys\n")
	f.Add(".macro inc r\nlex $at,1\nadd \\r,$at\n.endm\n.macro twice r\ninc \\r\nl$: inc \\r\nbrf \\r,l$\n.endm\ntwice $1\ntwice $2\n")
	f.Add(".equ N 3\n.space N\nt: .space 2\n.word t\n")
	f.Add(".space 65535\nsys\n")
	f.Add("lex $1,','\nlex $2,';' ; comment\n.word ','\n")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		again, err2 := Assemble(src)
		if !reflect.DeepEqual(p, again) || !reflect.DeepEqual(err, err2) {
			t.Fatalf("assembling twice differs:\n%+v %v\n%+v %v", p, err, again, err2)
		}
		if err != nil {
			return
		}
		if len(p.Words) > isa.MemWords {
			t.Fatalf("image of %d words exceeds memory", len(p.Words))
		}
		if len(p.Source) != len(p.Words) || len(p.Data) != len(p.Words) {
			t.Fatalf("%d words, %d source lines, %d data marks", len(p.Words), len(p.Source), len(p.Data))
		}
		dis := Disassemble(p.Words)
		p2, err := Assemble(strings.Join(dis, "\n"))
		if err != nil {
			t.Fatalf("disassembly does not reassemble: %v\n%v", err, dis)
		}
		if len(p2.Words) != len(p.Words) {
			t.Fatalf("round trip length %d != %d", len(p2.Words), len(p.Words))
		}
		for i := range p.Words {
			if p.Words[i] != p2.Words[i] {
				t.Fatalf("round trip word %d: %04x != %04x", i, p2.Words[i], p.Words[i])
			}
		}
	})
}
