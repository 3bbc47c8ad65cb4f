package lint

// The exported analysis surface consumed by the optimizing recompiler
// (package opt). The analyzer's internal CFG, dataflow sets, and constant
// resolution stay private; Facts is the read-only projection of everything a
// transform layer needs to rewrite a program without re-deriving (and
// possibly contradicting) the analysis: decoded instructions with their
// effect sets and br-pair marks, reachable basic blocks with edges and
// backward-liveness results, resolved jumpr targets, certain-halt sys
// addresses, and the imprecision verdict that gates unsafe rewrites.

import (
	"tangled/internal/isa"

	"tangled/internal/asm"
)

// RegSet is an exported bitset over the 16 Tangled registers and the 256
// Qat registers, the currency of the liveness facts.
type RegSet struct {
	// CPU has bit r set for Tangled register $r.
	CPU uint16
	// Qat has bit (q mod 64) of word (q div 64) set for Qat register @q.
	Qat [4]uint64
}

// HasCPU reports membership of Tangled register $r.
func (s RegSet) HasCPU(r uint8) bool { return s.CPU&(1<<(r&0xF)) != 0 }

// HasQat reports membership of Qat register @q.
func (s RegSet) HasQat(q uint8) bool { return s.Qat[q>>6]&(1<<(q&63)) != 0 }

// Empty reports whether the set has no members.
func (s RegSet) Empty() bool {
	return s.CPU == 0 && s.Qat[0] == 0 && s.Qat[1] == 0 && s.Qat[2] == 0 && s.Qat[3] == 0
}

// Union returns s ∪ o.
func (s RegSet) Union(o RegSet) RegSet {
	s.CPU |= o.CPU
	for i := range s.Qat {
		s.Qat[i] |= o.Qat[i]
	}
	return s
}

// Diff returns s with o's members removed.
func (s RegSet) Diff(o RegSet) RegSet {
	s.CPU &^= o.CPU
	for i := range s.Qat {
		s.Qat[i] &^= o.Qat[i]
	}
	return s
}

// Intersects reports whether s and o share any member.
func (s RegSet) Intersects(o RegSet) bool {
	if s.CPU&o.CPU != 0 {
		return true
	}
	for i := range s.Qat {
		if s.Qat[i]&o.Qat[i] != 0 {
			return true
		}
	}
	return false
}

// DefSet returns the registers instruction in writes.
func DefSet(in isa.Inst) RegSet {
	return defSet(&instNode{inst: in, eff: isa.InstEffects(in)})
}

// LiveUseSet returns the registers the instruction may expose, for liveness:
// the registers whose prior value its behavior depends on, and for sys every
// Tangled register (it may halt, and the final register file is the run's
// observable output). pairBr marks the halves of a complementary brf/brt
// pair, whose combined transfer does not observe the condition register.
func LiveUseSet(in isa.Inst, pairBr bool) RegSet {
	return liveUseSet(&instNode{inst: in, eff: isa.InstEffects(in), pairBr: pairBr})
}

// InstFact describes one decoded instruction.
type InstFact struct {
	// Index is this fact's position in Facts.Insts (== decode order).
	Index int
	// Addr is the word address; Words the encoded length.
	Addr  uint16
	Words int
	// Line is the 1-based source line, 0 when unknown.
	Line int
	Inst isa.Inst
	Eff  isa.Effects
	// PairBr marks both halves of the brf/brt pair the br pseudo emits.
	PairBr bool
	// Reachable reports some execution can reach this instruction; Block is
	// the containing basic block's index, -1 when unreachable.
	Reachable bool
	Block     int
}

// BlockFact is one reachable basic block.
type BlockFact struct {
	ID int
	// Insts indexes Facts.Insts, in address order.
	Insts []int
	// Succs and Preds are block-level CFG edges.
	Succs, Preds []int
	// ExitsUnknown marks conservative exits (unresolved jumpr, transfers
	// into non-instruction words).
	ExitsUnknown bool
	// MayHalt reports the block contains a sys.
	MayHalt bool
	// InLoop reports the block lies on a CFG cycle.
	InLoop bool
	// LiveOut is the backward-liveness result at the block's exit.
	LiveOut RegSet
}

// Facts is the exported analysis result a transform layer builds on.
type Facts struct {
	// Prog is the analyzed program; Len its image length in words.
	Prog *asm.Program
	Len  int
	// Ways is the resolved entanglement degree the analysis assumed.
	Ways int
	// Insts lists every decoded instruction in address order.
	Insts []InstFact
	// Blocks lists the reachable basic blocks.
	Blocks []BlockFact
	// DataWords counts words that are data or failed to decode.
	DataWords int
	// Imprecise reports an unresolved indirect jump widened reachability to
	// every labeled instruction; liveness and reachability are then
	// conservative, not exact.
	Imprecise bool
	// HaltAt marks sys instructions proven to halt ($0 == SysHalt).
	HaltAt map[uint16]bool
	// JumprTargets maps resolved jumpr addresses to their targets.
	JumprTargets map[uint16]uint16
	// Profile is the static entanglement/cost profile, attached by
	// profile.Compute — nil until a profiler pass has run over these facts.
	Profile *Profile

	// byAddr maps each word address below Len to its index in Insts, or to
	// a negative word class when no instruction starts there.
	byAddr []int32
}

// ByAddr returns the index in Insts of the instruction starting at word
// address addr, and whether one does.
func (f *Facts) ByAddr(addr uint16) (int, bool) {
	if int(addr) >= len(f.byAddr) || f.byAddr[addr] < 0 {
		return -1, false
	}
	return int(f.byAddr[addr]), true
}

// AnalyzeWithFacts lints p like Analyze and additionally returns the Facts
// projection of the CFG and dataflow results. For an image the analyzer
// refuses (empty, or longer than memory) the facts are empty but non-nil.
func AnalyzeWithFacts(p *asm.Program, opts Options) (*Report, *Facts) {
	opts = opts.withDefaults()
	r := &Report{}
	f := &Facts{
		Prog:         p,
		Len:          len(p.Words),
		Ways:         opts.Ways,
		HaltAt:       make(map[uint16]bool),
		JumprTargets: make(map[uint16]uint16),
	}
	if refuse(p, r) {
		return r, f
	}
	g := buildCFG(p, opts)
	runChecks(g, r, opts)
	r.finish()
	g.fillFacts(f)
	return r, f
}

// runChecks is the shared check sequence of Analyze and AnalyzeWithFacts.
// It computes the block liveness once, for checkDeadStores and fillFacts.
func runChecks(g *cfg, r *Report, opts Options) {
	g.checkDecode(r)
	g.checkReachability(r)
	g.checkSelfLoops(r)
	g.checkHalt(r)
	g.checkHadRange(r)
	g.checkUseBeforeDef(r)
	g.liveOut = g.liveness()
	g.checkDeadStores(r)
	g.checkCosts(r, opts)
}

// fillFacts projects the CFG into f. The facts share the CFG's address
// table and edge slices; the rest is allocated once, at its final size,
// and left nil when empty.
func (g *cfg) fillFacts(f *Facts) {
	f.Imprecise = g.imprecise
	f.DataWords = g.nData
	f.byAddr = g.at
	if len(g.nodes) > 0 {
		f.Insts = make([]InstFact, len(g.nodes))
	}
	nReach := 0
	for i := range g.nodes {
		in := &g.nodes[i]
		if in.haltAt {
			f.HaltAt[in.addr] = true
		}
		if in.jumpKnown {
			f.JumprTargets[in.addr] = in.jumpTo
		}
		if in.reach {
			nReach++
		}
		f.Insts[i] = InstFact{
			Index:     i,
			Addr:      in.addr,
			Words:     int(in.words),
			Line:      int(in.line),
			Inst:      in.inst,
			Eff:       in.eff,
			PairBr:    in.pairBr,
			Reachable: in.reach,
			Block:     int(in.block),
		}
	}
	if len(g.blocks) == 0 {
		return
	}
	f.Blocks = make([]BlockFact, len(g.blocks))
	instBuf := make([]int, 0, nReach)
	for i := range g.blocks {
		b := &g.blocks[i]
		first := int(g.at[b.start()])
		start := len(instBuf)
		for k := range b.insts {
			instBuf = append(instBuf, first+k)
		}
		f.Blocks[i] = BlockFact{
			ID:           b.id,
			Insts:        instBuf[start:len(instBuf):len(instBuf)],
			Succs:        b.succs,
			Preds:        b.preds,
			ExitsUnknown: b.exitsUnknown,
			MayHalt:      b.mayHalt,
			InLoop:       b.inLoop,
			LiveOut:      g.liveOut[i],
		}
	}
}
