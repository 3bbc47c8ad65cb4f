package isa

import "fmt"

// The paper stresses that the binary encoding is a free choice: each
// student picked one with AIK and "were permitted to change the
// instruction encoding for each project". The Encoding interface isolates
// that choice; everything above it (assembler syntax, machine semantics,
// pipelines) is encoding-agnostic. Two concrete codecs are provided: the
// package-default Primary layout (documented at the top of this package)
// and an intentionally different Student layout, to demonstrate — and
// property-test — that the ISA fits more than one way.

// Encoding is a binary instruction codec.
type Encoding interface {
	// Name identifies the codec.
	Name() string
	// Append appends the 1- or 2-word binary form of an instruction to dst
	// and returns the extended slice; on error dst is returned unchanged.
	Append(dst []uint16, i Inst) ([]uint16, error)
	// Decode reads one instruction (w1 is the following word, used by
	// two-word forms) and reports the words consumed.
	Decode(w0, w1 uint16) (Inst, int, error)
}

// Primary is the default codec used throughout this repository.
var Primary Encoding = primaryEnc{}

type primaryEnc struct{}

func (primaryEnc) Name() string                                  { return "primary" }
func (primaryEnc) Append(dst []uint16, i Inst) ([]uint16, error) { return Append(dst, i) }
func (primaryEnc) Decode(w0, w1 uint16) (Inst, int, error)       { return Decode(w0, w1) }

// Student is an alternative layout in the spirit of a different team's
// project: the major opcode lives in the LOW nibble, register fields are
// swapped relative to Primary, and the minor-opcode assignments are
// shuffled. Word shapes:
//
//	[15:8]=imm8  [7:4]=d [3:0]=0x1  lex
//	[15:8]=imm8  [7:4]=d [3:0]=0x2  lhi
//	[15:8]=off8  [7:4]=c [3:0]=0x3  brf
//	[15:8]=off8  [7:4]=c [3:0]=0x4  brt
//	[15:8]=@a [7:4]=minor [3:0]=0x5 qat1 (0 not, 1 zero, 2 one)
//	[15:8]=@a [7:4]=imm4  [3:0]=0x6 had
//	[15:8]=@a [7:4]=d     [3:0]=0x7 meas
//	[15:8]=@a [7:4]=d     [3:0]=0x8 next
//	[15:8]=@a [7:4]=d     [3:0]=0x9 pop
//	[15:8]=@a [7:4]=minor [3:0]=0xA qatm (two words; w1 = @c<<8 | @b)
//	[15:12]=s [11:8]=d [7:4]=minor [3:0]=0xB alu2
//	[15:8]=minor [7:4]=d [3:0]=0xC alu1
//
// Majors 0x0, 0xD, 0xE and 0xF are illegal, so the all-zero word traps —
// a deliberate difference from Primary, where 0x0000 decodes as lex $0,0.
var Student Encoding = studentEnc{}

type studentEnc struct{}

func (studentEnc) Name() string { return "student" }

// Student minor tables (shuffled relative to Primary).
var sQat1Minor = map[Op]uint16{OpQNot: 0, OpQZero: 1, OpQOne: 2}
var sQatmMinor = map[Op]uint16{
	OpQXor: 0, OpQAnd: 1, OpQOr: 2, OpQCnot: 3, OpQSwap: 4, OpQCcnot: 5, OpQCswap: 6,
}
var sAlu2Minor = map[Op]uint16{
	OpXor: 0, OpAdd: 1, OpAnd: 2, OpOr: 3, OpCopy: 4, OpLoad: 5, OpStore: 6,
	OpMul: 7, OpShift: 8, OpSlt: 9, OpAddf: 10, OpMulf: 11,
}
var sAlu1Minor = map[Op]uint16{
	OpSys: 0, OpJumpr: 1, OpNot: 2, OpNeg: 3, OpNegf: 4, OpFloat: 5,
	OpInt: 6, OpRecip: 7,
}

var (
	sQat1ByMinor [3]Op
	sQatmByMinor [7]Op
	sAlu2ByMinor [12]Op
	sAlu1ByMinor [8]Op
)

func init() {
	for op, m := range sQat1Minor {
		sQat1ByMinor[m] = op
	}
	for op, m := range sQatmMinor {
		sQatmByMinor[m] = op
	}
	for op, m := range sAlu2Minor {
		sAlu2ByMinor[m] = op
	}
	for op, m := range sAlu1Minor {
		sAlu1ByMinor[m] = op
	}
}

func (studentEnc) Append(dst []uint16, i Inst) ([]uint16, error) {
	if err := i.Validate(); err != nil {
		return dst, err
	}
	d := uint16(i.RD) & 0xF
	s := uint16(i.RS) & 0xF
	imm := uint16(uint8(i.Imm))
	qa := uint16(i.QA)
	switch i.Op {
	case OpLex:
		return append(dst, imm<<8|d<<4|0x1), nil
	case OpLhi:
		return append(dst, imm<<8|d<<4|0x2), nil
	case OpBrf:
		return append(dst, imm<<8|d<<4|0x3), nil
	case OpBrt:
		return append(dst, imm<<8|d<<4|0x4), nil
	case OpQNot, OpQZero, OpQOne:
		return append(dst, qa<<8|sQat1Minor[i.Op]<<4|0x5), nil
	case OpQHad:
		return append(dst, qa<<8|uint16(i.K&0xF)<<4|0x6), nil
	case OpQMeas:
		return append(dst, qa<<8|d<<4|0x7), nil
	case OpQNext:
		return append(dst, qa<<8|d<<4|0x8), nil
	case OpQPop:
		return append(dst, qa<<8|d<<4|0x9), nil
	case OpQXor, OpQAnd, OpQOr, OpQCnot, OpQSwap, OpQCcnot, OpQCswap:
		w0 := qa<<8 | sQatmMinor[i.Op]<<4 | 0xA
		w1 := uint16(i.QC)<<8 | uint16(i.QB)
		return append(dst, w0, w1), nil
	case OpSys, OpJumpr, OpNot, OpNeg, OpNegf, OpFloat, OpInt, OpRecip:
		return append(dst, sAlu1Minor[i.Op]<<8|d<<4|0xC), nil
	default:
		m, ok := sAlu2Minor[i.Op]
		if !ok {
			return dst, fmt.Errorf("isa: student encoding cannot encode %s", i.Op.Name())
		}
		return append(dst, s<<12|d<<8|m<<4|0xB), nil
	}
}

func (studentEnc) Decode(w0, w1 uint16) (Inst, int, error) {
	major := w0 & 0xF
	hi8 := uint8(w0 >> 8)
	f2 := uint8(w0 >> 4 & 0xF)
	switch major {
	case 0x1:
		return Inst{Op: OpLex, RD: f2, Imm: int8(hi8)}, 1, nil
	case 0x2:
		return Inst{Op: OpLhi, RD: f2, Imm: int8(hi8)}, 1, nil
	case 0x3:
		return Inst{Op: OpBrf, RD: f2, Imm: int8(hi8)}, 1, nil
	case 0x4:
		return Inst{Op: OpBrt, RD: f2, Imm: int8(hi8)}, 1, nil
	case 0x5:
		if int(f2) >= len(sQat1ByMinor) {
			return Inst{}, 1, fmt.Errorf("isa: student: bad qat1 minor %d", f2)
		}
		return Inst{Op: sQat1ByMinor[f2], QA: hi8}, 1, nil
	case 0x6:
		return Inst{Op: OpQHad, QA: hi8, K: f2}, 1, nil
	case 0x7:
		return Inst{Op: OpQMeas, RD: f2, QA: hi8}, 1, nil
	case 0x8:
		return Inst{Op: OpQNext, RD: f2, QA: hi8}, 1, nil
	case 0x9:
		return Inst{Op: OpQPop, RD: f2, QA: hi8}, 1, nil
	case 0xA:
		if int(f2) >= len(sQatmByMinor) {
			return Inst{}, 1, fmt.Errorf("isa: student: bad qatm minor %d", f2)
		}
		return Inst{Op: sQatmByMinor[f2], QA: hi8, QB: uint8(w1), QC: uint8(w1 >> 8)}, 2, nil
	case 0xB:
		m := w0 >> 4 & 0xF
		if int(m) >= len(sAlu2ByMinor) {
			return Inst{}, 1, fmt.Errorf("isa: student: bad alu2 minor %d", m)
		}
		return Inst{Op: sAlu2ByMinor[m], RD: uint8(w0 >> 8 & 0xF), RS: uint8(w0 >> 12)}, 1, nil
	case 0xC:
		m := w0 >> 8
		if int(m) >= len(sAlu1ByMinor) {
			return Inst{}, 1, fmt.Errorf("isa: student: bad alu1 minor %d", m)
		}
		return Inst{Op: sAlu1ByMinor[m], RD: f2}, 1, nil
	default:
		return Inst{}, 1, fmt.Errorf("isa: student: illegal major %#x", major)
	}
}

// Transcode re-encodes a whole word image from one codec to another.
// Instruction boundaries are taken from the source codec; any word that
// fails to decode is copied through unchanged (data words).
func Transcode(words []uint16, from, to Encoding) ([]uint16, error) {
	out := make([]uint16, 0, len(words))
	for i := 0; i < len(words); {
		var w1 uint16
		if i+1 < len(words) {
			w1 = words[i+1]
		}
		inst, n, err := from.Decode(words[i], w1)
		if err != nil {
			out = append(out, words[i])
			i++
			continue
		}
		out, err = to.Append(out, inst)
		if err != nil {
			return nil, fmt.Errorf("isa: transcode at word %d: %w", i, err)
		}
		i += n
	}
	return out, nil
}
