package lint

// Control-flow graph reconstruction from an assembled word image.
//
// Instructions are recovered by a linear sweep that respects the
// assembler's code/data marks when present (asm.Program.Data) and falls
// back to treating undecodable words as data for bare word images. On top
// of the instruction stream:
//
//   - branch successors follow the execute semantics of package cpu
//     (target = addr + length + imm);
//   - the brf/brt complementary pair the assembler's br pseudo emits is
//     recognized as a single unconditional transfer, so code after it is
//     not spuriously considered reachable;
//   - jumpr targets are resolved by constant propagation over lex/lhi
//     (the jump pseudo's expansion), restarted at every join point (label,
//     branch target, run break); a jumpr whose register is not a known
//     constant is an indirect exit, which makes the graph imprecise and
//     widens reachability roots to every labeled instruction.
//
// Every table is a slice: per-word facts are indexed by address and sized
// to the image, per-instruction facts live in the decoded nodes, and blocks
// are runs of those nodes. Each phase is one pass over the image.

import (
	"fmt"

	"tangled/internal/asm"
	"tangled/internal/cpu"
	"tangled/internal/isa"
)

// instNode is one decoded instruction.
type instNode struct {
	addr  uint16
	words uint16
	// jumpTo is a jumpr's target when jumpKnown.
	jumpTo uint16
	inst   isa.Inst
	eff    isa.Effects
	line   int32
	// block is the containing basic block's id, -1 when unreachable.
	block int32
	// linked reports that the node before this one in cfg.nodes ends
	// where this one starts (no data or undecodable word between them):
	// the two share a linear run, for the brf/brt pair peephole, constant
	// propagation and block formation.
	linked bool
	// pairBr marks both halves of the complementary brf/brt pair the br
	// pseudo emits: together they transfer unconditionally, so neither
	// half's behavior observably depends on the condition register.
	pairBr bool
	// reach reports some execution reaches the instruction.
	reach bool
	// haltAt marks a sys that certainly halts ($0 == SysHalt).
	haltAt bool
	// jumpKnown marks a jumpr whose register is a known constant.
	jumpKnown bool
}

// next is the fall-through address.
func (in *instNode) next() uint16 { return in.addr + in.words }

// block is one basic block over reachable instructions.
type block struct {
	id int
	// insts is the block's run of cfg.nodes.
	insts []instNode
	succs []int
	preds []int
	// exitsUnknown marks conservative exits: an unresolved jumpr, or a
	// control transfer into a non-instruction word (already diagnosed).
	exitsUnknown bool
	mayHalt      bool
	inLoop       bool
	sccID        int
}

func (b *block) start() uint16 { return b.insts[0].addr }
func (b *block) end() uint16   { return b.insts[len(b.insts)-1].next() }

// badEdge is a control transfer from a reachable instruction to a word that
// is not an instruction.
type badEdge struct {
	from *instNode
	to   uint16
	fall bool // fall-through rather than branch/jump
}

// Word classes in cfg.at for words that do not start an instruction.
const (
	wordMid  = -1 // second word of a two-word instruction
	wordData = -2 // marked data
	wordBad  = -3 // failed to decode; treated as data
)

type cfg struct {
	p    *asm.Program
	opts Options
	n    int // program length in words

	// nodes holds every decoded instruction in address order.
	nodes []instNode
	// at maps each word address to its node index, or to a word class
	// (wordMid, wordData, wordBad) when no instruction starts there.
	at    []int32
	nData int // data and undecodable words

	badEdges  []badEdge
	imprecise bool

	blocks  []block
	liveOut []RegSet // per-block live-out sets, filled by runChecks
}

// buildCFG decodes, resolves jump targets, computes reachability and forms
// basic blocks.
func buildCFG(p *asm.Program, opts Options) *cfg {
	g := &cfg{p: p, opts: opts, n: len(p.Words)}
	g.decode()
	g.markPairs()
	g.resolveJumpr()
	g.computeReach()
	g.formBlocks()
	return g
}

// node returns the instruction starting at addr, nil when none does.
func (g *cfg) node(addr uint16) *instNode {
	if int(addr) >= g.n || g.at[addr] < 0 {
		return nil
	}
	return &g.nodes[g.at[addr]]
}

// markPairs flags the brf/brt complementary pairs emitted by the br pseudo.
func (g *cfg) markPairs() {
	for i := range g.nodes {
		in := &g.nodes[i]
		if in.inst.Op != isa.OpBrt || !in.linked {
			continue
		}
		if p := &g.nodes[i-1]; p.inst.Op == isa.OpBrf &&
			p.inst.RD == in.inst.RD && branchTarget(p) == branchTarget(in) {
			p.pairBr, in.pairBr = true, true
		}
	}
}

// markedData reports the assembler's code/data verdict for word addr, when
// the program carries one.
func (g *cfg) markedData(addr int) bool {
	return len(g.p.Data) == len(g.p.Words) && g.p.Data[addr]
}

// dataSymbol reports that label address a points into a data region by any
// evidence the image carries: the sweep's own classification (marked data,
// undecodable words), or a data mark in a partial-length Data slice. The
// sweep only trusts full-length marks for stream breaking (markedData), so
// in a partial-marks image a data word that happens to decode still enters
// g.nodes — such an address must never become a reachability root, or the
// imprecise-mode widening decodes garbage blocks and poisons liveness.
func (g *cfg) dataSymbol(a uint16) bool {
	return int(a) < g.n && g.at[a] <= wordData || int(a) < len(g.p.Data) && g.p.Data[a]
}

// lineOf maps a word address to its 1-based source line (0 when unknown).
func (g *cfg) lineOf(addr uint16) int {
	if int(addr) < len(g.p.Source) {
		return g.p.Source[addr]
	}
	return 0
}

// decodeAt decodes the instruction at addr as the sweep sees it: a
// two-word form must not run into a data mark or past the image end.
func (g *cfg) decodeAt(addr int) (isa.Inst, int, error) {
	last := addr+1 >= g.n || g.markedData(addr+1)
	var w1 uint16
	if !last {
		w1 = g.p.Words[addr+1]
	}
	inst, n, err := g.opts.Enc.Decode(g.p.Words[addr], w1)
	if err == nil && n == 2 && last {
		err = fmt.Errorf("two-word instruction truncated at %#04x", addr)
	}
	return inst, n, err
}

// decode performs the linear sweep. Words marked as data by the assembler
// break the instruction stream; in unmarked images an undecodable word is
// classed wordBad, treated as data, and the sweep resumes at the next
// word. The first pass classifies every word and counts instructions, so
// the second decodes them into a slice of exactly that size.
func (g *cfg) decode() {
	g.at = make([]int32, g.n)
	count := int32(0)
	for addr := 0; addr < g.n; {
		if g.markedData(addr) {
			g.at[addr] = wordData
			g.nData++
			addr++
			continue
		}
		_, n, err := g.decodeAt(addr)
		if err != nil {
			g.at[addr] = wordBad
			g.nData++
			addr++
			continue
		}
		g.at[addr] = count
		count++
		if n == 2 {
			g.at[addr+1] = wordMid
		}
		addr += n
	}
	g.nodes = make([]instNode, count)
	for addr, i := range g.at {
		if i < 0 {
			continue
		}
		inst, n, _ := g.decodeAt(addr)
		g.nodes[i] = instNode{
			addr:   uint16(addr),
			words:  uint16(n),
			inst:   inst,
			eff:    isa.InstEffects(inst),
			line:   int32(g.lineOf(uint16(addr))),
			block:  -1,
			linked: i > 0 && int(g.nodes[i-1].next()) == addr,
		}
	}
}

// branchTarget computes a brf/brt target following cpu.Step: the PC has
// already advanced past the instruction when the offset is applied.
func branchTarget(in *instNode) uint16 {
	return in.next() + uint16(int16(in.inst.Imm))
}

// resolveJumpr propagates lex/lhi constants to jumpr instructions. The
// propagation restarts at every join point: run breaks, labels, static
// branch targets, and (iteratively) already-resolved jumpr targets — so a
// constant is only trusted when every path to the jumpr agrees trivially.
func (g *cfg) resolveJumpr() {
	// joins is only consulted at instruction addresses, so join points
	// outside the image need no entry.
	joins := make([]bool, g.n)
	join := func(a uint16) (added bool) {
		if int(a) < g.n && !joins[a] {
			joins[a] = true
			return true
		}
		return false
	}
	for _, a := range g.p.Symbols {
		join(a)
	}
	for i := range g.nodes {
		in := &g.nodes[i]
		switch in.inst.Op {
		case isa.OpBrf, isa.OpBrt:
			join(branchTarget(in))
			join(in.next())
		}
	}
	for iter := 0; iter < 4; iter++ {
		g.constPass(joins)
		changed := false
		for i := range g.nodes {
			if in := &g.nodes[i]; in.jumpKnown && join(in.jumpTo) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// constPass runs one constant-propagation sweep, setting every jumpr's
// jumpKnown/jumpTo and every sys's haltAt.
func (g *cfg) constPass(joins []bool) {
	var known uint16 // bitmask of registers with known constants
	var vals [isa.NumRegs]uint16
	for i := range g.nodes {
		in := &g.nodes[i]
		if joins[in.addr] || !in.linked {
			known = 0
			// The loader zeroes every register, so at the true entry —
			// unless address 0 is also a join target — all constants are
			// known to be zero.
			if in.addr == 0 && !joins[0] {
				known = 1<<isa.NumRegs - 1
				vals = [isa.NumRegs]uint16{}
			}
		}
		switch in.inst.Op {
		case isa.OpLex:
			vals[in.inst.RD] = uint16(int16(in.inst.Imm))
			known |= 1 << in.inst.RD
		case isa.OpLhi:
			if known&(1<<in.inst.RD) != 0 {
				vals[in.inst.RD] = vals[in.inst.RD]&0x00FF | uint16(uint8(in.inst.Imm))<<8
			}
		case isa.OpJumpr:
			in.jumpKnown = known&(1<<in.inst.RD) != 0
			in.jumpTo = vals[in.inst.RD]
		case isa.OpSys:
			in.haltAt = known&1 != 0 && vals[0] == cpu.SysHalt
		default:
			known &^= in.eff.WriteRegs
		}
	}
}

// succInfo describes where control can go after one instruction.
type succInfo struct {
	targets [2]uint16
	n       int
	unknown bool // unresolved indirect jump
}

// list returns the successor addresses.
func (s *succInfo) list() []uint16 { return s.targets[:s.n] }

// succsOf computes an instruction's successor addresses (which may point at
// non-instruction words — the caller classifies those).
func (g *cfg) succsOf(in *instNode) succInfo {
	next := in.next()
	switch in.inst.Op {
	case isa.OpJumpr:
		if in.jumpKnown {
			return succInfo{targets: [2]uint16{in.jumpTo}, n: 1}
		}
		return succInfo{unknown: true}
	case isa.OpBrf:
		return dedup(next, branchTarget(in))
	case isa.OpBrt:
		t := branchTarget(in)
		// The second half of a br pair transfers unconditionally: whatever
		// the register holds, either the brf already fired or this fires.
		if in.pairBr {
			return succInfo{targets: [2]uint16{t}, n: 1}
		}
		return dedup(next, t)
	case isa.OpSys:
		// A sys whose $0 is the known constant SysHalt certainly stops the
		// machine: the canonical `lex $0, 0; sys` epilogue does not fall
		// through off the end of the image.
		if in.haltAt {
			return succInfo{}
		}
	}
	return succInfo{targets: [2]uint16{next}, n: 1}
}

func dedup(a, b uint16) succInfo {
	if a == b {
		return succInfo{targets: [2]uint16{a}, n: 1}
	}
	return succInfo{targets: [2]uint16{a, b}, n: 2}
}

// computeReach runs DFS from address 0; when an unresolved indirect jump is
// reachable the graph is imprecise, so every labeled instruction is added
// as a root (functions invoked through computed addresses) and the sweep
// repeats. Control transfers into non-instruction words are collected as
// badEdges for the halt/illegal checks; each instruction is visited once
// per sweep and its targets are distinct, so no edge repeats.
func (g *cfg) computeReach() {
	roots := []uint16{0}
	var work []uint16
	for pass := 0; pass < 2; pass++ {
		for i := range g.nodes {
			g.nodes[i].reach = false
		}
		g.badEdges = g.badEdges[:0]
		g.imprecise = false
		work = append(work[:0], roots...)
		for len(work) > 0 {
			in := g.node(work[len(work)-1])
			work = work[:len(work)-1]
			if in == nil || in.reach {
				continue
			}
			in.reach = true
			si := g.succsOf(in)
			if si.unknown {
				g.imprecise = true
				continue
			}
			for _, t := range si.list() {
				if tn := g.node(t); tn == nil {
					g.badEdges = append(g.badEdges, badEdge{from: in, to: t, fall: t == in.next() && in.inst.Op != isa.OpJumpr})
				} else if !tn.reach {
					work = append(work, t)
				}
			}
		}
		if !g.imprecise {
			break
		}
		// Imprecise graph: widen the roots to every labeled instruction
		// and redo the sweep once.
		if pass == 0 {
			for _, a := range g.p.Symbols {
				// Only labels on decoded instructions outside data regions
				// qualify: a label into a data-marked word (a jump table,
				// say) is not an entry point even when the word decodes.
				if g.node(a) != nil && !g.dataSymbol(a) {
					roots = append(roots, a)
				}
			}
		}
	}
}

// blockAt returns the id of the block holding the instruction at addr, -1
// when no reachable instruction starts there.
func (g *cfg) blockAt(addr uint16) int {
	if in := g.node(addr); in != nil {
		return int(in.block)
	}
	return -1
}

// formBlocks groups reachable instructions into basic blocks and wires
// block-level successor/predecessor edges.
func (g *cfg) formBlocks() {
	leaders := make([]bool, g.n)
	leaders[0] = true
	lead := func(a uint16) {
		if in := g.node(a); in != nil && in.reach {
			leaders[a] = true
		}
	}
	for _, a := range g.p.Symbols {
		lead(a)
	}
	for i := range g.nodes {
		in := &g.nodes[i]
		if !in.reach || !in.eff.Control {
			continue
		}
		si := g.succsOf(in)
		for _, t := range si.list() {
			lead(t)
		}
		if next := in.next(); int(next) < g.n {
			leaders[next] = true
		}
	}
	nb := 0
	for i := range g.nodes {
		in := &g.nodes[i]
		if !in.reach {
			continue
		}
		if nb == 0 || leaders[in.addr] || !in.linked || !g.nodes[i-1].reach {
			nb++
		}
		in.block = int32(nb - 1)
	}
	g.blocks = make([]block, nb)
	for i := 0; i < len(g.nodes); {
		if !g.nodes[i].reach {
			i++
			continue
		}
		id := int(g.nodes[i].block)
		j := i + 1
		for j < len(g.nodes) && int(g.nodes[j].block) == id {
			j++
		}
		b := &g.blocks[id]
		b.id, b.insts = id, g.nodes[i:j:j]
		for k := range b.insts {
			if b.insts[k].eff.MayHalt {
				b.mayHalt = true
			}
		}
		i = j
	}
	// Successor edges (at most two per block, distinct targets start
	// distinct blocks) into one backing array, then predecessors in
	// ascending source order into another. A block without edges keeps
	// nil slices.
	succBuf := make([]int, 0, 2*nb)
	npreds := make([]int, nb+1)
	for id := range g.blocks {
		b := &g.blocks[id]
		si := g.succsOf(&b.insts[len(b.insts)-1])
		start := len(succBuf)
		if si.unknown {
			b.exitsUnknown = true
		}
		for _, t := range si.list() {
			s := g.blockAt(t)
			switch {
			case s < 0:
				// Transfer into a non-instruction word: diagnosed via
				// badEdges; conservatively an unknown exit.
				b.exitsUnknown = true
			case len(succBuf) == start || succBuf[start] != s:
				succBuf = append(succBuf, s)
				npreds[s]++
			}
		}
		if len(succBuf) > start {
			b.succs = succBuf[start:len(succBuf):len(succBuf)]
		}
	}
	predBuf := make([]int, len(succBuf))
	off := 0
	for id := range g.blocks {
		if npreds[id] > 0 {
			g.blocks[id].preds = predBuf[off : off : off+npreds[id]]
			off += npreds[id]
		}
	}
	for id := range g.blocks {
		for _, s := range g.blocks[id].succs {
			g.blocks[s].preds = append(g.blocks[s].preds, id)
		}
	}
	g.markLoops()
}

// markLoops runs an iterative Tarjan SCC pass and marks every block on a
// cycle (an SCC of size > 1, or a self-edge).
func (g *cfg) markLoops() {
	n := len(g.blocks)
	index := make([]int, 2*n)
	index, low := index[:n], index[n:]
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next := 0
	sccN := 0

	type frame struct{ v, ei int }
	var frames []frame
	for start := 0; start < n; start++ {
		if index[start] != -1 {
			continue
		}
		frames = append(frames[:0], frame{start, 0})
		index[start], low[start] = next, next
		next++
		stack = append(stack, start)
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.ei < len(g.blocks[v].succs) {
				w := g.blocks[v].succs[f.ei]
				f.ei++
				if index[w] == -1 {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] {
					if index[w] < low[v] {
						low[v] = index[w]
					}
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				top := len(stack) - 1
				for stack[top] != v {
					top--
				}
				comp := stack[top:]
				stack = stack[:top]
				for _, w := range comp {
					onStack[w] = false
					g.blocks[w].sccID = sccN
				}
				if len(comp) > 1 {
					for _, w := range comp {
						g.blocks[w].inLoop = true
					}
				} else {
					b := &g.blocks[comp[0]]
					for _, s := range b.succs {
						if s == b.id {
							b.inLoop = true
						}
					}
				}
				sccN++
			}
		}
	}
}
