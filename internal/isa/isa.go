// Package isa defines the Tangled/Qat instruction set architecture from
// Tables 1-3 of the paper, together with one concrete binary encoding and
// its encoder/decoder.
//
// The paper deliberately does not fix an encoding — each student chose one
// with the AIK assembler generator; "this instruction word size only has
// space for a 4-bit fixed opcode field, but there are more than 16 different
// types of instructions; thus, students needed to be slightly clever about
// picking an encoding". The encoding here applies the standard trick: a
// 4-bit major opcode selects either a single instruction with a wide
// immediate or a group whose members are distinguished by a minor opcode in
// otherwise-unused operand bits.
//
// Instruction word layout (16-bit words, field [15:12] = major opcode):
//
//	0x0 lex   $d,imm8   [11:8]=d [7:0]=imm8 (sign-extended at execute)
//	0x1 lhi   $d,imm8   [11:8]=d [7:0]=imm8 (into high byte)
//	0x2 brf   $c,off8   [11:8]=c [7:0]=signed word offset from next PC
//	0x3 brt   $c,off8   likewise
//	0x4 qat1  sub,@a    [11:8]=minor (0 zero, 1 one, 2 not) [7:0]=@a
//	0x5 had   @a,imm4   [11:8]=imm4 [7:0]=@a
//	0x6 meas  $d,@a     [11:8]=d [7:0]=@a
//	0x7 next  $d,@a     [11:8]=d [7:0]=@a
//	0x8 qatm  sub,@a / @b,@c   TWO WORDS:
//	       word0 [11:8]=minor (0 and, 1 or, 2 xor, 3 ccnot, 4 cswap,
//	                           5 cnot, 6 swap) [7:0]=@a
//	       word1 [15:8]=@b [7:0]=@c (cnot/swap ignore @c)
//	0x9 pop   $d,@a     [11:8]=d [7:0]=@a (the proposed extension op)
//	0xE alu2  $d,$s     [11:8]=d [7:4]=s [3:0]=minor (0 add, 1 addf, 2 and,
//	                     3 copy, 4 load, 5 mul, 6 mulf, 7 or, 8 shift,
//	                     9 slt, 10 store, 11 xor)
//	0xF alu1  $d        [11:8]=d [7:0]=minor (0 float, 1 int, 2 jumpr,
//	                     3 neg, 4 negf, 5 not, 6 recip, 7 sys)
//
// Majors 0xA-0xD are reserved and decode as illegal instructions. The only
// two-word forms are the multi-register Qat operations, exactly as the
// paper observes: "the use of 8-bit Qat register numbers does force some
// Qat instructions to be two 16-bit words long".
package isa

import "fmt"

// Op identifies an instruction's operation, spanning the Tangled base set
// (Table 1) and the Qat coprocessor set (Table 3).
type Op uint8

const (
	// Tangled base instruction set (Table 1).
	OpAdd Op = iota
	OpAddf
	OpAnd
	OpBrf
	OpBrt
	OpCopy
	OpFloat
	OpInt
	OpJumpr
	OpLex
	OpLhi
	OpLoad
	OpMul
	OpMulf
	OpNeg
	OpNegf
	OpNot
	OpOr
	OpRecip
	OpShift
	OpSlt
	OpStore
	OpSys
	OpXor

	// Qat coprocessor instruction set (Table 3).
	OpQZero
	OpQOne
	OpQNot
	OpQHad
	OpQMeas
	OpQNext
	OpQAnd
	OpQOr
	OpQXor
	OpQCnot
	OpQCcnot
	OpQSwap
	OpQCswap
	OpQPop // specified but omitted from the class projects (Section 2.7)

	numOps
)

// Tangled register conventions (Section 2.1): 0-10 general purpose, then
// the assembler temporary and the call-handling quartet.
const (
	RegAT = 11 // assembler temporary, used by Table 2 macros
	RegRV = 12 // return value
	RegRA = 13 // return address
	RegFP = 14 // frame pointer
	RegSP = 15 // stack pointer
)

// NumOps is the number of defined opcodes, Tangled and Qat together —
// the index space for dense per-opcode tables (timing models, performance
// counters).
const NumOps = int(numOps)

// NumRegs is the Tangled general register file size.
const NumRegs = 16

// NumQRegs is the Qat coprocessor register file size: "the lack of external
// storage is also why a relatively large number of registers was selected
// for Qat: 256".
const NumQRegs = 256

// MemWords is the size of Tangled's word-addressed memory: 16-bit addresses
// reach 65536 words, which also bounds an assembled image.
const MemWords = 1 << 16

// regNames maps register numbers to assembly spellings.
var regNames = [NumRegs]string{
	"$0", "$1", "$2", "$3", "$4", "$5", "$6", "$7", "$8", "$9", "$10",
	"$at", "$rv", "$ra", "$fp", "$sp",
}

// RegName returns the canonical assembly name of Tangled register r.
func RegName(r uint8) string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("$?%d", r)
}

// Format describes an instruction's operand shape, used by the assembler,
// disassembler and encoder.
type Format uint8

const (
	FmtRR    Format = iota // op $d,$s
	FmtR                   // op $d
	FmtRI                  // op $d,imm8
	FmtBr                  // op $c,label (8-bit signed word offset)
	FmtNone                // op            (sys)
	FmtQ1                  // op @a
	FmtQHad                // op @a,imm4
	FmtQMeas               // op $d,@a     (meas, next, pop)
	FmtQ2                  // op @a,@b     (cnot, swap) — two words
	FmtQ3                  // op @a,@b,@c  (and, or, xor, ccnot, cswap) — two words
)

// Info is per-op metadata.
type Info struct {
	Name   string
	Format Format
}

var opInfo = [numOps]Info{
	OpAdd:    {"add", FmtRR},
	OpAddf:   {"addf", FmtRR},
	OpAnd:    {"and", FmtRR},
	OpBrf:    {"brf", FmtBr},
	OpBrt:    {"brt", FmtBr},
	OpCopy:   {"copy", FmtRR},
	OpFloat:  {"float", FmtR},
	OpInt:    {"int", FmtR},
	OpJumpr:  {"jumpr", FmtR},
	OpLex:    {"lex", FmtRI},
	OpLhi:    {"lhi", FmtRI},
	OpLoad:   {"load", FmtRR},
	OpMul:    {"mul", FmtRR},
	OpMulf:   {"mulf", FmtRR},
	OpNeg:    {"neg", FmtR},
	OpNegf:   {"negf", FmtR},
	OpNot:    {"not", FmtR},
	OpOr:     {"or", FmtRR},
	OpRecip:  {"recip", FmtR},
	OpShift:  {"shift", FmtRR},
	OpSlt:    {"slt", FmtRR},
	OpStore:  {"store", FmtRR},
	OpSys:    {"sys", FmtNone},
	OpXor:    {"xor", FmtRR},
	OpQZero:  {"zero", FmtQ1},
	OpQOne:   {"one", FmtQ1},
	OpQNot:   {"qnot", FmtQ1},
	OpQHad:   {"had", FmtQHad},
	OpQMeas:  {"meas", FmtQMeas},
	OpQNext:  {"next", FmtQMeas},
	OpQAnd:   {"qand", FmtQ3},
	OpQOr:    {"qor", FmtQ3},
	OpQXor:   {"qxor", FmtQ3},
	OpQCnot:  {"cnot", FmtQ2},
	OpQCcnot: {"ccnot", FmtQ3},
	OpQSwap:  {"swap", FmtQ2},
	OpQCswap: {"cswap", FmtQ3},
	OpQPop:   {"pop", FmtQMeas},
}

// Name returns the canonical mnemonic. Note that the Qat and/or/xor/not
// mnemonics collide with the Tangled ones in the paper's tables; in
// assembly source they are distinguished by operand sigils (the assembler
// resolves "and @1,@2,@3" to qand), while the canonical names here carry a
// q prefix to stay unambiguous.
func (op Op) Name() string {
	if op < numOps {
		return opInfo[op].Name
	}
	return fmt.Sprintf("op?%d", uint8(op))
}

// Fmt returns the operand format for op.
func (op Op) Fmt() Format {
	if op < numOps {
		return opInfo[op].Format
	}
	return FmtNone
}

// IsQat reports whether op executes on the Qat coprocessor (including the
// meas/next/pop instructions that deliver results to Tangled registers).
func (op Op) IsQat() bool { return op >= OpQZero && op < numOps }

// Inst is one decoded instruction.
type Inst struct {
	Op  Op
	RD  uint8 // Tangled destination/source register ($d, or $c for branches)
	RS  uint8 // Tangled source register
	Imm int8  // lex/lhi/branch immediate (raw byte; sign interpretation at use)
	K   uint8 // had pattern index (imm4)
	QA  uint8 // Qat registers
	QB  uint8
	QC  uint8
}

// Words returns the encoded instruction length in 16-bit words.
func (i Inst) Words() int {
	switch i.Op.Fmt() {
	case FmtQ2, FmtQ3:
		return 2
	default:
		return 1
	}
}

// Major opcodes.
const (
	majLex  = 0x0
	majLhi  = 0x1
	majBrf  = 0x2
	majBrt  = 0x3
	majQat1 = 0x4
	majHad  = 0x5
	majMeas = 0x6
	majNext = 0x7
	majQatM = 0x8
	majPop  = 0x9
	majAlu2 = 0xE
	majAlu1 = 0xF
)

// Minor opcode tables.
var qat1Minor = map[Op]uint16{OpQZero: 0, OpQOne: 1, OpQNot: 2}
var qatmMinor = map[Op]uint16{
	OpQAnd: 0, OpQOr: 1, OpQXor: 2, OpQCcnot: 3, OpQCswap: 4, OpQCnot: 5, OpQSwap: 6,
}
var alu2Minor = map[Op]uint16{
	OpAdd: 0, OpAddf: 1, OpAnd: 2, OpCopy: 3, OpLoad: 4, OpMul: 5,
	OpMulf: 6, OpOr: 7, OpShift: 8, OpSlt: 9, OpStore: 10, OpXor: 11,
}
var alu1Minor = map[Op]uint16{
	OpFloat: 0, OpInt: 1, OpJumpr: 2, OpNeg: 3, OpNegf: 4, OpNot: 5,
	OpRecip: 6, OpSys: 7,
}

// Inverse minor tables, built at init.
var (
	qat1ByMinor [3]Op
	qatmByMinor [7]Op
	alu2ByMinor [12]Op
	alu1ByMinor [8]Op
)

func init() {
	for op, m := range qat1Minor {
		qat1ByMinor[m] = op
	}
	for op, m := range qatmMinor {
		qatmByMinor[m] = op
	}
	for op, m := range alu2Minor {
		alu2ByMinor[m] = op
	}
	for op, m := range alu1Minor {
		alu1ByMinor[m] = op
	}
}

// Append appends the 1- or 2-word binary form of i to dst. On error dst is
// returned unchanged.
func Append(dst []uint16, i Inst) ([]uint16, error) {
	if err := i.Validate(); err != nil {
		return dst, err
	}
	d := uint16(i.RD) & 0xF
	s := uint16(i.RS) & 0xF
	imm := uint16(uint8(i.Imm))
	switch i.Op {
	case OpLex:
		return append(dst, majLex<<12|d<<8|imm), nil
	case OpLhi:
		return append(dst, majLhi<<12|d<<8|imm), nil
	case OpBrf:
		return append(dst, majBrf<<12|d<<8|imm), nil
	case OpBrt:
		return append(dst, majBrt<<12|d<<8|imm), nil
	case OpQZero, OpQOne, OpQNot:
		return append(dst, majQat1<<12|qat1Minor[i.Op]<<8|uint16(i.QA)), nil
	case OpQHad:
		return append(dst, majHad<<12|uint16(i.K&0xF)<<8|uint16(i.QA)), nil
	case OpQMeas:
		return append(dst, majMeas<<12|d<<8|uint16(i.QA)), nil
	case OpQNext:
		return append(dst, majNext<<12|d<<8|uint16(i.QA)), nil
	case OpQPop:
		return append(dst, majPop<<12|d<<8|uint16(i.QA)), nil
	case OpQAnd, OpQOr, OpQXor, OpQCcnot, OpQCswap, OpQCnot, OpQSwap:
		w0 := uint16(majQatM<<12) | qatmMinor[i.Op]<<8 | uint16(i.QA)
		w1 := uint16(i.QB)<<8 | uint16(i.QC)
		return append(dst, w0, w1), nil
	case OpSys, OpFloat, OpInt, OpJumpr, OpNeg, OpNegf, OpNot, OpRecip:
		return append(dst, majAlu1<<12|d<<8|alu1Minor[i.Op]), nil
	default:
		m, ok := alu2Minor[i.Op]
		if !ok {
			return dst, fmt.Errorf("isa: cannot encode op %s", i.Op.Name())
		}
		return append(dst, majAlu2<<12|d<<8|s<<4|m), nil
	}
}

// Decode reads one instruction starting at w0; w1 is the following word
// (used only by two-word forms; pass anything if unavailable and check the
// returned length). It returns the instruction and the number of words
// consumed.
func Decode(w0, w1 uint16) (Inst, int, error) {
	major := w0 >> 12
	d := uint8(w0 >> 8 & 0xF)
	low := uint8(w0)
	switch major {
	case majLex:
		return Inst{Op: OpLex, RD: d, Imm: int8(low)}, 1, nil
	case majLhi:
		return Inst{Op: OpLhi, RD: d, Imm: int8(low)}, 1, nil
	case majBrf:
		return Inst{Op: OpBrf, RD: d, Imm: int8(low)}, 1, nil
	case majBrt:
		return Inst{Op: OpBrt, RD: d, Imm: int8(low)}, 1, nil
	case majQat1:
		if int(d) >= len(qat1ByMinor) {
			return Inst{}, 1, fmt.Errorf("isa: illegal qat1 minor %d", d)
		}
		return Inst{Op: qat1ByMinor[d], QA: low}, 1, nil
	case majHad:
		return Inst{Op: OpQHad, K: d, QA: low}, 1, nil
	case majMeas:
		return Inst{Op: OpQMeas, RD: d, QA: low}, 1, nil
	case majNext:
		return Inst{Op: OpQNext, RD: d, QA: low}, 1, nil
	case majPop:
		return Inst{Op: OpQPop, RD: d, QA: low}, 1, nil
	case majQatM:
		if int(d) >= len(qatmByMinor) {
			return Inst{}, 1, fmt.Errorf("isa: illegal qatm minor %d", d)
		}
		op := qatmByMinor[d]
		return Inst{Op: op, QA: low, QB: uint8(w1 >> 8), QC: uint8(w1)}, 2, nil
	case majAlu2:
		m := w0 & 0xF
		if int(m) >= len(alu2ByMinor) {
			return Inst{}, 1, fmt.Errorf("isa: illegal alu2 minor %d", m)
		}
		return Inst{Op: alu2ByMinor[m], RD: d, RS: uint8(w0 >> 4 & 0xF)}, 1, nil
	case majAlu1:
		if int(low) >= len(alu1ByMinor) {
			return Inst{}, 1, fmt.Errorf("isa: illegal alu1 minor %d", low)
		}
		return Inst{Op: alu1ByMinor[low], RD: d}, 1, nil
	default:
		return Inst{}, 1, fmt.Errorf("isa: illegal major opcode %#x", major)
	}
}

// Validate checks field ranges for the instruction's format.
func (i Inst) Validate() error {
	if i.Op >= numOps {
		return fmt.Errorf("isa: invalid op %d", uint8(i.Op))
	}
	if i.RD >= NumRegs || i.RS >= NumRegs {
		return fmt.Errorf("isa: %s: register out of range", i.Op.Name())
	}
	if i.Op == OpQHad && i.K > 15 {
		return fmt.Errorf("isa: had pattern %d out of range", i.K)
	}
	return nil
}

// String renders the instruction in canonical assembly syntax.
func (i Inst) String() string {
	switch i.Op.Fmt() {
	case FmtRR:
		return fmt.Sprintf("%s %s,%s", i.Op.Name(), RegName(i.RD), RegName(i.RS))
	case FmtR:
		return fmt.Sprintf("%s %s", i.Op.Name(), RegName(i.RD))
	case FmtRI:
		return fmt.Sprintf("%s %s,%d", i.Op.Name(), RegName(i.RD), i.Imm)
	case FmtBr:
		return fmt.Sprintf("%s %s,%d", i.Op.Name(), RegName(i.RD), i.Imm)
	case FmtNone:
		return i.Op.Name()
	case FmtQ1:
		return fmt.Sprintf("%s @%d", i.Op.Name(), i.QA)
	case FmtQHad:
		return fmt.Sprintf("%s @%d,%d", i.Op.Name(), i.QA, i.K)
	case FmtQMeas:
		return fmt.Sprintf("%s %s,@%d", i.Op.Name(), RegName(i.RD), i.QA)
	case FmtQ2:
		return fmt.Sprintf("%s @%d,@%d", i.Op.Name(), i.QA, i.QB)
	case FmtQ3:
		return fmt.Sprintf("%s @%d,@%d,@%d", i.Op.Name(), i.QA, i.QB, i.QC)
	}
	return i.Op.Name()
}
