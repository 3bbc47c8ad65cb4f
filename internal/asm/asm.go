// Package asm implements a two-pass assembler and a disassembler for the
// Tangled/Qat instruction set.
//
// The paper's students generated their assemblers with AIK (the Assembler
// Interpreter from Kentucky); this package is a hand-written equivalent
// covering the same surface: the Table 1 base instructions, the Table 3 Qat
// coprocessor instructions, and the Table 2 pseudo-instructions (macros).
//
// Syntax, following the paper's listings:
//
//	label:  op  operand,operand   ; comment
//
// Tangled registers are $0..$10, $at, $rv, $ra, $fp, $sp (numeric aliases
// $11..$15 accepted); Qat registers are @0..@255. Immediates may be
// decimal, 0x hex, 0b binary, or a character literal 'c'. The and/or/xor/
// not mnemonics are shared between Tangled and Qat in the paper's tables;
// the assembler disambiguates by the operand sigils, exactly as the
// listings do (compare "and @2,@0,@1" with "and $0,$2").
//
// Pseudo-instructions (Table 2):
//
//	br lab          unconditional branch: brf $at,lab ; brt $at,lab
//	jump lab        absolute jump via $at: lex/lhi $at,lab ; jumpr $at
//	jumpf $c,lab    brt $c,+skip ; jump lab
//	jumpt $c,lab    brf $c,+skip ; jump lab
//	loadi $d,imm16  lex $d,low ; lhi $d,high (single lex when it suffices)
//
// Section 5 of the paper concludes that the reversible Qat instructions
// (cnot, ccnot, swap, cswap) "easily could be implemented as assembler
// macros" over the irreversible base set, freeing the register file's
// third read port and second write port. Those macros are provided with an
// m prefix, using @255 as a designated Qat assembler temporary (the AoB
// analog of $at):
//
//	mcnot @a,@b       xor @a,@a,@b
//	mccnot @a,@b,@c   and @255,@b,@c ; xor @a,@a,@255
//	mswap @a,@b       xor-swap triple (no temporary)
//	mcswap @a,@b,@c   masked xor-swap via @255
//
// Directives: ".word expr" emits a literal word, ".space n" emits n zero
// words, ".ascii "text"" emits one word per character (with \n, \t, \0 and
// \\ escapes), and ".equ name value" defines an assembly-time constant
// usable wherever an immediate or address is expected. An image is at most
// isa.MemWords words; the first statement past that is diagnosed.
//
// User-defined macros — the signature capability of the AIK tool the class
// used — are written as
//
//	.macro name p1 p2 ...
//	  op \p1,\p2
//	  ...
//	.endm
//
// and invoked like instructions: "name $1,@2". Parameters substitute
// textually (backslash-prefixed), macros may invoke other macros (depth
// limited to catch recursion), and each expansion's labels are made unique
// by rewriting a trailing "$" in label-like identifiers (write "loop$:"
// inside a macro body for a per-expansion local label).
package asm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"tangled/internal/isa"
)

// Program is the output of assembly: a flat word image plus metadata.
type Program struct {
	// Words is the binary image, loaded at address 0.
	Words []uint16
	// Symbols maps labels to word addresses.
	Symbols map[string]uint16
	// Source maps each word address to the 1-based source line that
	// produced it.
	Source []int
	// Data marks the word addresses emitted by data directives (.word,
	// .space, .ascii) rather than instructions, so downstream consumers
	// (the disassembler listing, the static analyzer in package lint) can
	// tell code from data without guessing from bit patterns. Always the
	// same length as Words.
	Data []bool
}

// Error is an assembly diagnostic tied to a source position. Line is always
// 1-based; Col is the 1-based byte column of the offending token within that
// line, or 0 when no single token is to blame (for lines produced by macro
// expansion the column refers to the expanded text).
type Error struct {
	Line int
	Col  int
	Msg  string
}

func (e Error) Error() string {
	if e.Col > 0 {
		return fmt.Sprintf("line %d:%d: %s", e.Line, e.Col, e.Msg)
	}
	return fmt.Sprintf("line %d: %s", e.Line, e.Msg)
}

// ErrorList collects all diagnostics from one assembly run.
type ErrorList []Error

func (el ErrorList) Error() string {
	if len(el) == 0 {
		return "no errors"
	}
	msgs := make([]string, len(el))
	for i, e := range el {
		msgs[i] = e.Error()
	}
	return strings.Join(msgs, "\n")
}

// refKind says how a pending label reference patches its instruction.
type refKind uint8

const (
	refNone   refKind = iota
	refBranch         // signed word offset from the following instruction
	refLow            // low 8 bits of the absolute address (for lex)
	refHigh           // high 8 bits of the absolute address (for lhi)
	refWord           // full address as a data word (.word lab)
	refImm8           // 8-bit immediate from a .equ constant (lex/lhi)
)

// item is one concrete output unit after macro expansion: an instruction,
// or a run of n equal data words (.space is one run of zeros).
type item struct {
	line int
	col  int // column of the ref operand, for pass-2 diagnostics
	addr uint16
	inst isa.Inst
	ref  string
	kind refKind
	// data run (when isData)
	isData bool
	data   uint16
	n      int
}

// macroDef is one user-defined macro.
type macroDef struct {
	params []string
	// needles are the "\param" spellings and order the substitution order
	// (longest parameter first, so \count is not clobbered by \c), both
	// fixed when the macro is defined.
	needles []string
	order   []int
	body    []string
}

type assembler struct {
	items  []item
	labels map[string]uint16
	consts map[string]int64     // made by the first .equ
	macros map[string]*macroDef // made by the first .endm
	enc    isa.Encoding
	errs   ErrorList
	// pc is the location counter. It never passes isa.MemWords: the first
	// statement that would push the image past memory is diagnosed and sets
	// full, and nothing is emitted after it.
	pc   int
	full bool
	line int
	// ops is the operand scratch, reused by every line. Operands that
	// outlive their line (macro parameters, macro arguments across the
	// body's lines) are copied out of it.
	ops []string
	// rest is the current statement's operand text, which starts at byte
	// offset restOff of the line being processed (the expanded text
	// inside macro bodies), and mnemCol is its mnemonic's 1-based column:
	// the positions diagnostic columns are taken from.
	rest    string
	restOff int
	mnemCol int

	// defining is non-nil while between .macro and .endm.
	defining     *macroDef
	definingName string
	// expandDepth guards against recursive macros; expandID uniquifies
	// local labels per expansion.
	expandDepth int
	expandID    int
}

// maxMacroDepth bounds nested macro expansion.
const maxMacroDepth = 16

// Assemble translates source text into a Program using the Primary binary
// encoding. On failure it returns an ErrorList describing every diagnosed
// problem.
func Assemble(src string) (*Program, error) {
	return AssembleWith(src, isa.Primary)
}

// AssembleWith assembles for an explicit binary encoding — instruction
// lengths are encoding-independent in both provided codecs, so label
// arithmetic is unaffected.
func AssembleWith(src string, enc isa.Encoding) (*Program, error) {
	// Items are presized from the line count: outside macros and .ascii a
	// line makes at most one. Every item holds at least one word, so no
	// image needs more than isa.MemWords of them.
	a := &assembler{
		items:  make([]item, 0, min(strings.Count(src, "\n")+1, isa.MemWords)),
		labels: make(map[string]uint16),
		ops:    make([]string, 0, 4),
		enc:    enc,
	}
	// Pass 1: scan each line once, in place, into items.
	for a.line = 1; ; a.line++ {
		i := strings.IndexByte(src, '\n')
		if i < 0 {
			a.doLine(src)
			break
		}
		a.doLine(src[:i])
		src = src[i+1:]
	}
	if a.defining != nil {
		a.errorf("unterminated .macro %q", a.definingName)
	}
	if len(a.errs) > 0 {
		return nil, a.errs
	}
	// Pass 2: resolve references and encode into an image sized by pass 1.
	// An empty program keeps nil slices, which serialize as null.
	p := &Program{Symbols: a.labels}
	if a.pc > 0 {
		p.Words = make([]uint16, 0, a.pc)
		p.Source = make([]int, 0, a.pc)
		p.Data = make([]bool, 0, a.pc)
	}
	var blamed *item // the last item whose reference failed to resolve
	for i := range a.items {
		it := &a.items[i]
		start := len(p.Words)
		var err error
		if p.Words, err = a.resolve(p.Words, it); err != nil {
			// A statement that expands to several words (br, jump, loadi)
			// carries its reference in each; report it once per (line,
			// column, reference). Those items are adjacent.
			if blamed == nil || blamed.line != it.line || blamed.col != it.col || blamed.ref != it.ref {
				a.errs = append(a.errs, Error{Line: it.line, Col: it.col, Msg: err.Error()})
			}
			blamed = it
			continue
		}
		for range p.Words[start:] {
			p.Source = append(p.Source, it.line)
			p.Data = append(p.Data, it.isData)
		}
	}
	if len(a.errs) > 0 {
		return nil, a.errs
	}
	return p, nil
}

func (a *assembler) errorf(format string, args ...interface{}) {
	a.errs = append(a.errs, Error{Line: a.line, Msg: fmt.Sprintf(format, args...)})
}

// errorfAt is errorf with a 1-based column within the current line.
func (a *assembler) errorfAt(col int, format string, args ...interface{}) {
	a.errs = append(a.errs, Error{Line: a.line, Col: col, Msg: fmt.Sprintf(format, args...)})
}

// opCol is the 1-based column of operand i of the current statement, or 0
// for an empty operand (nothing to point at). It walks the operand text
// the way splitOperands did, so it blames the i-th operand even when an
// earlier one has the same text; only diagnostics and label references
// ask for it.
func (a *assembler) opCol(i int) int {
	if a.ops[i] == "" {
		return 0
	}
	s, off := a.rest, a.restOff
	for ; i > 0; i-- {
		j := indexUnquoted(s, ',')
		s, off = s[j+1:], off+j+1
	}
	_, off = trimAt(s, off)
	return off + 1
}

// trimAt is strings.TrimSpace for s found at byte offset off of the line:
// it also returns the offset of the trimmed text.
func trimAt(s string, off int) (string, int) {
	t := strings.TrimSpace(s)
	if len(t) == len(s) {
		return t, off
	}
	return t, off + len(s) - len(strings.TrimLeftFunc(s, unicode.IsSpace))
}

// doLine handles labels, directives and (macro-)instructions on one line.
// Every token is a substring of raw, so each carries its byte offset from
// the scan that found it.
func (a *assembler) doLine(raw string) {
	s, off := trimAt(stripComment(raw), 0)
	if a.defining != nil {
		// Collecting a macro body: only .endm is interpreted.
		if strings.EqualFold(s, ".endm") {
			if a.macros == nil {
				a.macros = make(map[string]*macroDef)
			}
			a.macros[a.definingName] = a.defining
			a.defining = nil
			return
		}
		a.defining.body = append(a.defining.body, s)
		return
	}
	for {
		colon := strings.IndexByte(s, ':')
		if colon < 0 {
			break
		}
		label, at := trimAt(s[:colon], off)
		if !isIdent(label) {
			// Not a label (e.g. a ':' inside a character literal); treat
			// the whole text as a statement.
			break
		}
		if _, dup := a.labels[label]; dup {
			a.errorfAt(at+1, "duplicate label %q", label)
			return
		}
		if _, dup := a.consts[label]; dup {
			a.errorfAt(at+1, "label %q collides with a .equ constant", label)
			return
		}
		// A label after a full memory has no address. Once the image has
		// overflowed, that is already reported.
		if a.pc >= isa.MemWords && !a.full {
			a.errorfAt(at+1, "label %q is past the end of the %d-word memory", label, isa.MemWords)
			return
		}
		a.labels[label] = uint16(a.pc)
		s, off = trimAt(s[colon+1:], off+colon+1)
	}
	if s == "" {
		return
	}
	mnemonic := s
	a.rest, a.restOff, a.mnemCol = "", 0, off+1
	if i := strings.IndexFunc(s, isBlank); i >= 0 {
		mnemonic = s[:i]
		a.rest, a.restOff = trimAt(s[i+1:], off+i+1)
	}
	mnemonic = strings.ToLower(mnemonic)
	if mnemonic == ".ascii" {
		// The string literal is the whole rest of the line.
		a.ops = append(a.ops[:0], a.rest)
	} else {
		a.ops = splitOperands(a.ops[:0], a.rest)
	}
	a.doStatement(mnemonic, a.ops)
}

// splitOperands appends the comma-separated operands of rest to dst, each
// trimmed of surrounding space. A comma inside a quoted string or character
// literal does not split.
func splitOperands(dst []string, rest string) []string {
	if rest == "" {
		return dst
	}
	for {
		i := indexUnquoted(rest, ',')
		if i < 0 {
			return append(dst, strings.TrimSpace(rest))
		}
		dst = append(dst, strings.TrimSpace(rest[:i]))
		rest = rest[i+1:]
	}
}

func isBlank(c rune) bool { return c == ' ' || c == '\t' }

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// emit appends a concrete instruction with no label reference.
func (a *assembler) emit(inst isa.Inst) { a.emitRef(inst, -1, refNone) }

// emitRef appends a concrete instruction, advancing the location counter.
// Operand op of the current line (none when negative) is a label
// reference of the given kind; its column is captured now so pass-2
// resolution failures can point at the token.
func (a *assembler) emitRef(inst isa.Inst, op int, kind refKind) {
	if !a.fits(inst.Words()) {
		return
	}
	it := item{line: a.line, addr: uint16(a.pc), inst: inst, kind: kind}
	if op >= 0 {
		it.ref, it.col = a.ops[op], a.opCol(op)
	}
	a.items = append(a.items, it)
	a.pc += inst.Words()
}

// emitData appends a run of n data words w, or of the value of the label
// in operand op of the current line when op is not negative.
func (a *assembler) emitData(w uint16, op, n int) {
	if n == 0 || !a.fits(n) {
		return
	}
	it := item{line: a.line, addr: uint16(a.pc), isData: true, data: w, n: n}
	if op >= 0 {
		it.ref, it.col, it.kind = a.ops[op], a.opCol(op), refWord
	}
	a.items = append(a.items, it)
	a.pc += n
}

// fits reports whether n more words still fit in memory. The first time
// they do not, it reports the current line and marks the image full, so
// one oversized source costs one diagnostic, not an unbounded image.
func (a *assembler) fits(n int) bool {
	if a.full {
		return false
	}
	if a.pc+n > isa.MemWords {
		a.errorf("image exceeds the %d-word memory", isa.MemWords)
		a.full = true
		return false
	}
	return true
}

func (a *assembler) doStatement(mnemonic string, ops []string) {
	switch mnemonic {
	case ".equ":
		// Accept both ".equ NAME VALUE" and ".equ NAME,VALUE".
		if len(ops) == 1 {
			ops = strings.Fields(ops[0])
		}
		if !a.wantOps(mnemonic, ops, 2) {
			return
		}
		name := ops[0]
		if !isIdent(name) || isNumber(name) {
			a.errorf(".equ: invalid name %q", name)
			return
		}
		if _, dup := a.consts[name]; dup {
			a.errorf(".equ: redefinition of %q", name)
			return
		}
		if _, dup := a.labels[name]; dup {
			a.errorf(".equ: %q collides with a label", name)
			return
		}
		v, err := parseImm(ops[1], 16)
		if err != nil {
			a.errorf(".equ %s: %v", name, err)
			return
		}
		if a.consts == nil {
			a.consts = make(map[string]int64)
		}
		a.consts[name] = v
	case ".ascii":
		if !a.wantOps(mnemonic, ops, 1) {
			return
		}
		text, err := parseStringLit(ops[0])
		if err != nil {
			a.errorf(".ascii: %v", err)
			return
		}
		for _, ch := range text {
			a.emitData(uint16(ch), -1, 1)
		}
	case ".word":
		if len(ops) != 1 {
			a.errorf(".word wants one operand")
			return
		}
		if isIdent(ops[0]) && !isNumber(ops[0]) {
			a.emitData(0, 0, 1)
			return
		}
		v, err := parseImm(ops[0], 16)
		if err != nil {
			a.errorf(".word: %v", err)
			return
		}
		a.emitData(uint16(v), -1, 1)
	case ".space":
		if len(ops) != 1 {
			a.errorf(".space wants one operand")
			return
		}
		var n int64
		var err error
		if v, ok := a.consts[ops[0]]; ok {
			// .space sizes affect addresses, so a constant must already be
			// defined at this point in the source.
			n = v
		} else {
			n, err = parseImm(ops[0], 16)
		}
		if err != nil || n < 0 {
			a.errorf(".space: bad size %q", ops[0])
			return
		}
		a.emitData(0, -1, int(n))
	case "br":
		if !a.wantOps(mnemonic, ops, 1) {
			return
		}
		// Unconditional branch from two complementary conditionals on $at:
		// whatever $at holds, one of them fires.
		a.emitRef(isa.Inst{Op: isa.OpBrf, RD: isa.RegAT}, 0, refBranch)
		a.emitRef(isa.Inst{Op: isa.OpBrt, RD: isa.RegAT}, 0, refBranch)
	case "jump":
		if !a.wantOps(mnemonic, ops, 1) {
			return
		}
		a.expandJump(0)
	case "jumpf", "jumpt":
		if !a.wantOps(mnemonic, ops, 2) {
			return
		}
		c, err := parseReg(ops[0])
		if err != nil {
			a.errorfAt(a.opCol(0), "%s: %v", mnemonic, err)
			return
		}
		// Skip over the 3-word jump expansion when the condition does not
		// call for it.
		inv := isa.OpBrt
		if mnemonic == "jumpt" {
			inv = isa.OpBrf
		}
		a.emit(isa.Inst{Op: inv, RD: c, Imm: 3})
		a.expandJump(1)
	case ".macro":
		if len(ops) == 1 {
			ops = strings.Fields(ops[0])
		}
		if len(ops) < 1 {
			a.errorf(".macro wants a name")
			return
		}
		name := strings.ToLower(ops[0])
		if !isIdent(name) || isNumber(name) {
			a.errorf(".macro: invalid name %q", name)
			return
		}
		if _, builtin := mnemonicOp(name, nil); builtin || name == "br" || name == "jump" ||
			name == "jumpf" || name == "jumpt" || name == "loadi" {
			a.errorf(".macro: %q shadows a built-in mnemonic", name)
			return
		}
		if _, dup := a.macros[name]; dup {
			a.errorf(".macro: redefinition of %q", name)
			return
		}
		a.defining = newMacroDef(ops[1:])
		a.definingName = name
	case ".endm":
		a.errorf(".endm without .macro")
	case "mcnot", "mccnot", "mswap", "mcswap":
		a.doQatMacro(mnemonic, ops)
	case "loadi":
		if !a.wantOps(mnemonic, ops, 2) {
			return
		}
		d, err := parseReg(ops[0])
		if err != nil {
			a.errorfAt(a.opCol(0), "loadi: %v", err)
			return
		}
		if isIdent(ops[1]) && !isNumber(ops[1]) {
			a.emitRef(isa.Inst{Op: isa.OpLex, RD: d}, 1, refLow)
			a.emitRef(isa.Inst{Op: isa.OpLhi, RD: d}, 1, refHigh)
			return
		}
		v, err := parseImm(ops[1], 16)
		if err != nil {
			a.errorfAt(a.opCol(1), "loadi: %v", err)
			return
		}
		if v >= -128 && v <= 127 {
			a.emit(isa.Inst{Op: isa.OpLex, RD: d, Imm: int8(v)})
			return
		}
		a.emit(isa.Inst{Op: isa.OpLex, RD: d, Imm: int8(uint16(v) & 0xFF)})
		a.emit(isa.Inst{Op: isa.OpLhi, RD: d, Imm: int8(uint16(v) >> 8)})
	default:
		if def, ok := a.macros[mnemonic]; ok {
			a.expandMacro(mnemonic, def, ops)
			return
		}
		a.doInstruction(mnemonic, ops)
	}
}

// newMacroDef starts a macro with a copy of its parameter list (params
// lives in the operand scratch) and its substitution order.
func newMacroDef(params []string) *macroDef {
	def := &macroDef{
		params:  append([]string(nil), params...),
		needles: make([]string, len(params)),
		order:   make([]int, len(params)),
	}
	for i, p := range def.params {
		def.needles[i] = "\\" + p
		def.order[i] = i
	}
	sort.Slice(def.order, func(x, y int) bool {
		return len(def.params[def.order[x]]) > len(def.params[def.order[y]])
	})
	return def
}

// expandMacro substitutes arguments and local labels, then re-feeds each
// body line through the normal line path.
func (a *assembler) expandMacro(name string, def *macroDef, args []string) {
	if len(args) != len(def.params) {
		a.errorf("macro %s wants %d argument(s), got %d", name, len(def.params), len(args))
		return
	}
	if a.expandDepth >= maxMacroDepth {
		a.errorf("macro %s: expansion too deep (recursive?)", name)
		return
	}
	// The body's lines reuse the operand scratch args lives in.
	args = append([]string(nil), args...)
	a.expandDepth++
	a.expandID++
	id := a.expandID
	for _, line := range def.body {
		text := line
		for _, pi := range def.order {
			text = strings.ReplaceAll(text, def.needles[pi], args[pi])
		}
		text = uniquifyLocals(text, id)
		a.doLine(text)
	}
	a.expandDepth--
}

// uniquifyLocals rewrites identifier-trailing '$' markers (per-expansion
// local labels) into a unique suffix. Register sigils are untouched: their
// '$' is never preceded by an identifier character.
func uniquifyLocals(s string, id int) string {
	var b strings.Builder
	last := 0
	for i := 1; i < len(s); i++ {
		if s[i] == '$' && isIdentChar(s[i-1]) {
			b.WriteString(s[last:i])
			fmt.Fprintf(&b, "__m%d", id)
			last = i + 1
		}
	}
	if last == 0 {
		return s
	}
	b.WriteString(s[last:])
	return b.String()
}

func isIdentChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '_' || c == '.'
}

// QatAT is the Qat register reserved as the macro scratch temporary.
const QatAT = 255

// doQatMacro expands the Section 5 reversible-operation macros over the
// irreversible base instructions.
func (a *assembler) doQatMacro(mnemonic string, ops []string) {
	want := 2
	if mnemonic == "mccnot" || mnemonic == "mcswap" {
		want = 3
	}
	if !a.wantOps(mnemonic, ops, want) {
		return
	}
	var regs [3]uint8
	for i, op := range ops {
		r, err := parseQReg(op)
		if err != nil {
			a.errorfAt(a.opCol(i), "%s: %v", mnemonic, err)
			return
		}
		if r == QatAT {
			a.errorfAt(a.opCol(i), "%s: @%d is reserved as the Qat macro temporary", mnemonic, QatAT)
			return
		}
		regs[i] = r
	}
	qxor := func(d, s1, s2 uint8) {
		a.emit(isa.Inst{Op: isa.OpQXor, QA: d, QB: s1, QC: s2})
	}
	qand := func(d, s1, s2 uint8) {
		a.emit(isa.Inst{Op: isa.OpQAnd, QA: d, QB: s1, QC: s2})
	}
	switch mnemonic {
	case "mcnot": // @a ^= @b
		qxor(regs[0], regs[0], regs[1])
	case "mccnot": // @a ^= @b & @c
		qand(QatAT, regs[1], regs[2])
		qxor(regs[0], regs[0], QatAT)
	case "mswap": // xor-swap; degenerates safely when @a == @b
		if regs[0] == regs[1] {
			return
		}
		qxor(regs[0], regs[0], regs[1])
		qxor(regs[1], regs[0], regs[1])
		qxor(regs[0], regs[0], regs[1])
	case "mcswap": // exchange where @c is 1, via masked difference
		if regs[0] == regs[1] {
			return
		}
		qxor(QatAT, regs[0], regs[1])
		qand(QatAT, QatAT, regs[2])
		qxor(regs[0], regs[0], QatAT)
		qxor(regs[1], regs[1], QatAT)
	}
}

// expandJump expands a jump to the label in operand op of the current line.
func (a *assembler) expandJump(op int) {
	a.emitRef(isa.Inst{Op: isa.OpLex, RD: isa.RegAT}, op, refLow)
	a.emitRef(isa.Inst{Op: isa.OpLhi, RD: isa.RegAT}, op, refHigh)
	a.emit(isa.Inst{Op: isa.OpJumpr, RD: isa.RegAT})
}

func (a *assembler) wantOps(mnemonic string, ops []string, n int) bool {
	if len(ops) != n {
		a.errorfAt(a.mnemCol, "%s wants %d operand(s), got %d", mnemonic, n, len(ops))
		return false
	}
	return true
}

// mnemonicOp resolves a mnemonic (with operand-sigil disambiguation for the
// shared and/or/xor/not names) to an Op.
func mnemonicOp(mnemonic string, ops []string) (isa.Op, bool) {
	qat := len(ops) > 0 && strings.HasPrefix(ops[0], "@")
	switch mnemonic {
	case "and":
		if qat {
			return isa.OpQAnd, true
		}
		return isa.OpAnd, true
	case "or":
		if qat {
			return isa.OpQOr, true
		}
		return isa.OpOr, true
	case "xor":
		if qat {
			return isa.OpQXor, true
		}
		return isa.OpXor, true
	case "not":
		if qat {
			return isa.OpQNot, true
		}
		return isa.OpNot, true
	case "qand":
		return isa.OpQAnd, true
	case "qor":
		return isa.OpQOr, true
	case "qxor":
		return isa.OpQXor, true
	case "qnot":
		return isa.OpQNot, true
	case "add":
		return isa.OpAdd, true
	case "addf":
		return isa.OpAddf, true
	case "brf":
		return isa.OpBrf, true
	case "brt":
		return isa.OpBrt, true
	case "copy":
		return isa.OpCopy, true
	case "float":
		return isa.OpFloat, true
	case "int":
		return isa.OpInt, true
	case "jumpr":
		return isa.OpJumpr, true
	case "lex":
		return isa.OpLex, true
	case "lhi":
		return isa.OpLhi, true
	case "load":
		return isa.OpLoad, true
	case "mul":
		return isa.OpMul, true
	case "mulf":
		return isa.OpMulf, true
	case "neg":
		return isa.OpNeg, true
	case "negf":
		return isa.OpNegf, true
	case "recip":
		return isa.OpRecip, true
	case "shift":
		return isa.OpShift, true
	case "slt":
		return isa.OpSlt, true
	case "store":
		return isa.OpStore, true
	case "sys":
		return isa.OpSys, true
	case "zero":
		return isa.OpQZero, true
	case "one":
		return isa.OpQOne, true
	case "had":
		return isa.OpQHad, true
	case "meas":
		return isa.OpQMeas, true
	case "next":
		return isa.OpQNext, true
	case "pop":
		return isa.OpQPop, true
	case "cnot":
		return isa.OpQCnot, true
	case "ccnot":
		return isa.OpQCcnot, true
	case "swap":
		return isa.OpQSwap, true
	case "cswap":
		return isa.OpQCswap, true
	}
	return 0, false
}

func (a *assembler) doInstruction(mnemonic string, ops []string) {
	op, ok := mnemonicOp(mnemonic, ops)
	if !ok {
		a.errorfAt(a.mnemCol, "unknown mnemonic %q", mnemonic)
		return
	}
	inst := isa.Inst{Op: op}
	ref, kind := -1, refNone
	fail := func(op int, err error) { a.errorfAt(a.opCol(op), "%s: %v", mnemonic, err) }
	switch op.Fmt() {
	case isa.FmtRR:
		if !a.wantOps(mnemonic, ops, 2) {
			return
		}
		d, err := parseReg(ops[0])
		if err != nil {
			fail(0, err)
			return
		}
		s, err := parseReg(ops[1])
		if err != nil {
			fail(1, err)
			return
		}
		inst.RD, inst.RS = d, s
	case isa.FmtR:
		if !a.wantOps(mnemonic, ops, 1) {
			return
		}
		d, err := parseReg(ops[0])
		if err != nil {
			fail(0, err)
			return
		}
		inst.RD = d
	case isa.FmtRI:
		if !a.wantOps(mnemonic, ops, 2) {
			return
		}
		d, err := parseReg(ops[0])
		if err != nil {
			fail(0, err)
			return
		}
		inst.RD = d
		if isIdent(ops[1]) && !isNumber(ops[1]) {
			ref, kind = 1, refImm8
			break
		}
		v, err := parseImm(ops[1], 8)
		if err != nil {
			fail(1, err)
			return
		}
		inst.Imm = int8(v)
	case isa.FmtBr:
		if !a.wantOps(mnemonic, ops, 2) {
			return
		}
		c, err := parseReg(ops[0])
		if err != nil {
			fail(0, err)
			return
		}
		inst.RD = c
		if isIdent(ops[1]) && !isNumber(ops[1]) {
			ref, kind = 1, refBranch
		} else {
			v, err := parseImm(ops[1], 8)
			if err != nil {
				fail(1, err)
				return
			}
			inst.Imm = int8(v)
		}
	case isa.FmtNone:
		if !a.wantOps(mnemonic, ops, 0) {
			return
		}
	case isa.FmtQ1:
		if !a.wantOps(mnemonic, ops, 1) {
			return
		}
		qa, err := parseQReg(ops[0])
		if err != nil {
			fail(0, err)
			return
		}
		inst.QA = qa
	case isa.FmtQHad:
		if !a.wantOps(mnemonic, ops, 2) {
			return
		}
		qa, err := parseQReg(ops[0])
		if err != nil {
			fail(0, err)
			return
		}
		k, err := parseImm(ops[1], 8)
		if err != nil || k < 0 || k > 15 {
			fail(1, fmt.Errorf("bad hadamard index %q", ops[1]))
			return
		}
		inst.QA, inst.K = qa, uint8(k)
	case isa.FmtQMeas:
		if !a.wantOps(mnemonic, ops, 2) {
			return
		}
		d, err := parseReg(ops[0])
		if err != nil {
			fail(0, err)
			return
		}
		qa, err := parseQReg(ops[1])
		if err != nil {
			fail(1, err)
			return
		}
		inst.RD, inst.QA = d, qa
	case isa.FmtQ2:
		if !a.wantOps(mnemonic, ops, 2) {
			return
		}
		qa, err := parseQReg(ops[0])
		if err != nil {
			fail(0, err)
			return
		}
		qb, err := parseQReg(ops[1])
		if err != nil {
			fail(1, err)
			return
		}
		inst.QA, inst.QB = qa, qb
	case isa.FmtQ3:
		if !a.wantOps(mnemonic, ops, 3) {
			return
		}
		qa, err := parseQReg(ops[0])
		if err != nil {
			fail(0, err)
			return
		}
		qb, err := parseQReg(ops[1])
		if err != nil {
			fail(1, err)
			return
		}
		qc, err := parseQReg(ops[2])
		if err != nil {
			fail(2, err)
			return
		}
		inst.QA, inst.QB, inst.QC = qa, qb, qc
	}
	a.emitRef(inst, ref, kind)
}

// resolve patches one item's label reference and appends its words to
// dst. On error dst is returned unchanged.
func (a *assembler) resolve(dst []uint16, it *item) ([]uint16, error) {
	if it.isData {
		w := it.data
		if it.kind == refWord {
			v, err := a.symbolValue(it.ref)
			if err != nil {
				return dst, err
			}
			w = uint16(v)
		}
		for i := 0; i < it.n; i++ {
			dst = append(dst, w)
		}
		return dst, nil
	}
	inst := it.inst
	if it.kind != refNone {
		if it.kind == refImm8 {
			v, ok := a.consts[it.ref]
			if !ok {
				return dst, fmt.Errorf("undefined constant %q", it.ref)
			}
			if v < -128 || v > 255 {
				return dst, fmt.Errorf("constant %q = %d does not fit in 8 bits", it.ref, v)
			}
			inst.Imm = int8(uint16(v) & 0xFF)
			return a.enc.Append(dst, inst)
		}
		v, err := a.symbolValue(it.ref)
		if err != nil {
			return dst, err
		}
		switch it.kind {
		case refBranch:
			off := int32(v) - int32(it.addr) - 1
			if _, isConst := a.consts[it.ref]; isConst {
				// A constant branch operand is a literal offset, not a
				// target address.
				off = int32(int16(v))
			}
			if off < -128 || off > 127 {
				return dst, fmt.Errorf("branch to %q out of range (%d words); use jump", it.ref, off)
			}
			inst.Imm = int8(off)
		case refLow:
			inst.Imm = int8(v & 0xFF)
		case refHigh:
			inst.Imm = int8(v >> 8)
		}
	}
	return a.enc.Append(dst, inst)
}

// symbolValue resolves a symbol: labels first, then .equ constants.
func (a *assembler) symbolValue(name string) (uint16, error) {
	if addr, ok := a.labels[name]; ok {
		return addr, nil
	}
	if v, ok := a.consts[name]; ok {
		return uint16(v), nil
	}
	return 0, fmt.Errorf("undefined label or constant %q", name)
}

// stripComment removes a ';' comment, ignoring semicolons inside quoted
// string or character literals.
func stripComment(s string) string {
	if strings.IndexByte(s, ';') < 0 {
		return s
	}
	if i := indexUnquoted(s, ';'); i >= 0 {
		return s[:i]
	}
	return s
}

// indexUnquoted returns the index of the first sep in s that lies outside
// quoted string and character literals, or -1. A backslash inside a
// literal escapes the byte after it.
func indexUnquoted(s string, sep byte) int {
	var quote byte // the open literal's quote, or 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote == 0:
			if c == sep {
				return i
			}
			if c == '"' || c == '\'' {
				quote = c
			}
		case c == '\\':
			i++
		case c == quote:
			quote = 0
		}
	}
	return -1
}

// parseStringLit parses a double-quoted string with \n, \t, \0, \\ and \"
// escapes.
func parseStringLit(s string) (string, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return "", fmt.Errorf("expected quoted string, got %q", s)
	}
	body := s[1 : len(s)-1]
	var b strings.Builder
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(body) {
			return "", fmt.Errorf("trailing backslash in %q", s)
		}
		switch body[i] {
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		case '0':
			b.WriteByte(0)
		case '\\':
			b.WriteByte('\\')
		case '"':
			b.WriteByte('"')
		default:
			return "", fmt.Errorf("unknown escape \\%c", body[i])
		}
	}
	return b.String(), nil
}

var numberPrefixes = []string{"0x", "0X", "0b", "0B", "-", "+"}

func isNumber(s string) bool {
	if s == "" {
		return false
	}
	if s[0] >= '0' && s[0] <= '9' {
		return true
	}
	for _, p := range numberPrefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// parseImm parses an immediate literal of the given bit width; both signed
// and unsigned spellings of the same bit pattern are accepted (e.g. for 8
// bits, -1 and 255 both encode 0xFF).
func parseImm(s string, bits int) (int64, error) {
	if len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'' {
		body := s[1 : len(s)-1]
		if len(body) == 1 {
			return int64(body[0]), nil
		}
		if len(body) == 2 && body[0] == '\\' {
			switch body[1] {
			case 'n':
				return '\n', nil
			case 't':
				return '\t', nil
			case '0':
				return 0, nil
			case '\\':
				return '\\', nil
			}
		}
		return 0, fmt.Errorf("bad character literal %s", s)
	}
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	lo := int64(-1) << uint(bits-1)
	hi := int64(1)<<uint(bits) - 1
	if v < lo || v > hi {
		return 0, fmt.Errorf("immediate %d does not fit in %d bits", v, bits)
	}
	return v, nil
}

// parseReg parses a Tangled register: $0..$15 or a symbolic name.
func parseReg(s string) (uint8, error) {
	if !strings.HasPrefix(s, "$") {
		return 0, fmt.Errorf("expected Tangled register, got %q", s)
	}
	switch strings.ToLower(s) {
	case "$at":
		return isa.RegAT, nil
	case "$rv":
		return isa.RegRV, nil
	case "$ra":
		return isa.RegRA, nil
	case "$fp":
		return isa.RegFP, nil
	case "$sp":
		return isa.RegSP, nil
	}
	n, err := strconv.ParseUint(s[1:], 10, 8)
	if err != nil || n >= isa.NumRegs {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return uint8(n), nil
}

// parseQReg parses a Qat register @0..@255.
func parseQReg(s string) (uint8, error) {
	if !strings.HasPrefix(s, "@") {
		return 0, fmt.Errorf("expected Qat register, got %q", s)
	}
	n, err := strconv.ParseUint(s[1:], 10, 16)
	if err != nil || n >= isa.NumQRegs {
		return 0, fmt.Errorf("bad Qat register %q", s)
	}
	return uint8(n), nil
}

// Disassemble renders a Primary-encoded word image back to assembly, one
// string per instruction (or per data word it cannot decode, rendered as
// .word).
func Disassemble(words []uint16) []string { return DisassembleWith(words, isa.Primary) }

// DisassembleWith disassembles under an explicit encoding.
func DisassembleWith(words []uint16, enc isa.Encoding) []string {
	var out []string
	for i := 0; i < len(words); {
		var w1 uint16
		if i+1 < len(words) {
			w1 = words[i+1]
		}
		inst, n, err := enc.Decode(words[i], w1)
		if err != nil || i+n > len(words) {
			out = append(out, fmt.Sprintf(".word %#04x", words[i]))
			i++
			continue
		}
		out = append(out, inst.String())
		i += n
	}
	return out
}
