package profile_test

// The analyzer digest: one SHA-256 over the lint report, a facts
// projection and the static profiles of a fixed program set. It pins the
// whole analyzer surface byte for byte, so a rewrite of the lint CFG, its
// dataflow or the profiler that changes any diagnostic, fact or profile
// number fails here before any planner decision moves.
//
// The facts projection leaves out Facts.ByAddr and Facts.Profile: the first
// is an index over Insts (pinned through each InstFact's Addr and Index),
// the second is the profile serialized on its own. The profile projection
// leaves out structured_writes and compressibility (program and block), the
// retired run-length estimate, so the digest pins every other profile field.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"tangled/internal/asm"
	"tangled/internal/compile"
	"tangled/internal/farm/farmtest"
	"tangled/internal/lint"
	"tangled/internal/profile"
)

// analyzerDigest is the digest of the program set below.
const analyzerDigest = "42036373bf01e0e95e63d15d433d2a375921d26de61fa757e9a3befdba547714"

// factsView is the representation-independent projection of lint.Facts.
type factsView struct {
	Len          int
	Ways         int
	Insts        []lint.InstFact
	Blocks       []lint.BlockFact
	DataWords    int
	Imprecise    bool
	HaltAt       map[uint16]bool
	JumprTargets map[uint16]uint16
}

// digestPrograms returns the pinned program set: the farmtest corpus, the
// assembly examples, eight 16-item subset-sum programs, and seeded random
// word images (undecodable words, data marks, labels into data, unresolved
// jumps) for the paths well-formed programs never take.
func digestPrograms(t *testing.T) []*asm.Program {
	t.Helper()
	var progs []*asm.Program
	add := func(name, src string) {
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("%s: assemble: %v", name, err)
		}
		progs = append(progs, p)
	}
	for i := 0; i < farmtest.Programs; i++ {
		add(fmt.Sprintf("farmtest %d", i), farmtest.Generate(farmtest.Seed(i)))
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
		add(name, string(src))
	}
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 8; i++ {
		weights := make([]uint64, 16)
		var total uint64
		for k := range weights {
			weights[k] = uint64(16 + r.Intn(16))
			total += weights[k]
		}
		res, err := compile.SubsetSumProgram(weights, 1+uint64(r.Int63n(int64(total))), 16, compile.Options{Reuse: true})
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("subset-sum %d", i), res.Asm)
	}
	for i := 0; i < 64; i++ {
		n := 1 + r.Intn(300)
		p := &asm.Program{Words: make([]uint16, n), Symbols: map[string]uint16{}}
		for k := range p.Words {
			p.Words[k] = uint16(r.Intn(1 << 16))
		}
		switch i % 3 {
		case 1: // full-length marks
			p.Data = make([]bool, n)
		case 2: // partial marks
			p.Data = make([]bool, r.Intn(n))
		}
		for k := range p.Data {
			p.Data[k] = r.Intn(8) == 0
		}
		for k := r.Intn(6); k > 0; k-- {
			p.Symbols[fmt.Sprintf("l%d", k)] = uint16(r.Intn(n + 4))
		}
		progs = append(progs, p)
	}
	return progs
}

func writeJSON(t *testing.T, h hash.Hash, v any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(b)
	h.Write([]byte{'\n'})
}

// retiredProfileKeys are the JSON keys profileView drops.
var retiredProfileKeys = []string{"structured_writes", "compressibility"}

// profileView is p's JSON object without the retired keys, at the top
// level and in each block. Numbers stay json.Number, so they re-encode
// byte for byte.
func profileView(t *testing.T, p *lint.Profile) map[string]any {
	t.Helper()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var v map[string]any
	if err := dec.Decode(&v); err != nil {
		t.Fatal(err)
	}
	objs := []map[string]any{v}
	if blocks, ok := v["blocks"].([]any); ok {
		for _, blk := range blocks {
			objs = append(objs, blk.(map[string]any))
		}
	}
	for _, o := range objs {
		for _, k := range retiredProfileKeys {
			delete(o, k)
		}
	}
	return v
}

func TestAnalyzerDigest(t *testing.T) {
	h := sha256.New()
	for _, p := range digestPrograms(t) {
		for _, lintWays := range []int{6, 16} {
			rep, f := lint.AnalyzeWithFacts(p, lint.Options{Ways: lintWays})
			writeJSON(t, h, rep)
			writeJSON(t, h, factsView{f.Len, f.Ways, f.Insts, f.Blocks, f.DataWords, f.Imprecise, f.HaltAt, f.JumprTargets})
			for _, ways := range []int{6, 16, 20} {
				for _, cr := range []bool{false, true} {
					writeJSON(t, h, profileView(t, profile.Compute(f, profile.Options{Ways: ways, ConstantRegs: cr})))
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != analyzerDigest {
		t.Fatalf("analyzer digest %s, want %s: a diagnostic, fact or profile changed", got, analyzerDigest)
	}
}
