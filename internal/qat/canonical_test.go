package qat

// The register files' one geometry rule: Config.Canonical names the
// backend, makes the defaults explicit and refuses what no register file
// builds. Pool and memo keys are canonical Configs, so the values pinned
// here are also the identities those keys carry.

import (
	"strings"
	"testing"

	"tangled/internal/aob"
)

func TestCanonicalizeDense(t *testing.T) {
	c, err := Config{}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Ways: aob.MaxWays, Backend: BackendDense}
	if c != want {
		t.Fatalf("canonical dense=%+v, want %+v", c, want)
	}
	// RE knobs on a dense config are erased, not rejected: pool/memo keys
	// must not vary on them.
	c, err = Config{Ways: 4, ChunkWays: 3, SpillRuns: 9, Backend: BackendDense}.Canonical()
	if err != nil || c.ChunkWays != 0 || c.SpillRuns != 0 {
		t.Fatalf("dense knob erasure: %+v err=%v", c, err)
	}
	if _, err := (Config{Ways: aob.MaxWays + 1, Backend: BackendDense}).Canonical(); err == nil {
		t.Fatal("dense over-width accepted")
	}
}

func TestCanonicalizeRE(t *testing.T) {
	c, err := Config{Ways: 20, Backend: BackendRE}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Ways: 20, Backend: BackendRE, ChunkWays: aob.MaxWays, SpillRuns: -1}
	if c != want {
		t.Fatalf("canonical re=%+v, want %+v", c, want)
	}
	c, err = Config{Ways: 8, Backend: BackendRE}.Canonical()
	if err != nil || c.ChunkWays != 8 || c.SpillRuns != DefaultSpillRuns {
		t.Fatalf("re defaults: %+v err=%v", c, err)
	}
	if _, err := (Config{Ways: MaxREWays + 1, Backend: BackendRE}).Canonical(); err == nil {
		t.Fatal("re over-width accepted")
	}
	if _, err := (Config{Ways: 8, ChunkWays: 9, Backend: BackendRE}).Canonical(); err == nil {
		t.Fatal("chunk ways above total accepted")
	}
}

func TestCanonicalizeUnknown(t *testing.T) {
	_, err := Config{Backend: "fpga"}.Canonical()
	if err == nil || !strings.Contains(err.Error(), "fpga") {
		t.Fatalf("unknown backend error=%v", err)
	}
}

// Canonical's input table (the server's TestValidateMatchesCanonical walks
// the same one): both sides of the dense wall and of MaxREWays, chunks on
// both sides of the dense wall and of the width, and every spill regime.
var (
	tableBackends = []string{"", BackendDense, BackendRE, "auto", "fpga"}
	tableWays     = []int{-1, 0, 4, 16, 17, 24, 25}
	tableChunks   = []int{-1, 0, 4, 16, 17}
	tableSpills   = []int{-1, 0, 1, 64}
)

// wantCanonical restates the geometry rule case by case with literal
// limits, independently of Canonical's code.
func wantCanonical(cfg Config) (Config, bool) {
	ways := cfg.Ways
	if ways == 0 {
		ways = 16
	}
	switch cfg.Backend {
	case "", "dense":
		if ways < 0 || ways > 16 {
			return Config{}, false
		}
		return Config{Ways: ways, ConstantRegs: cfg.ConstantRegs, Backend: "dense"}, true
	case "re":
		if ways < 0 || ways > 24 {
			return Config{}, false
		}
		chunk := cfg.ChunkWays
		if chunk == 0 {
			chunk = min(ways, 16)
		}
		if chunk < 0 || chunk > 16 || chunk > ways {
			return Config{}, false
		}
		spill := cfg.SpillRuns
		switch {
		case ways > 16, spill < 0:
			spill = -1
		case spill == 0:
			spill = 64
		}
		return Config{Ways: ways, ConstantRegs: cfg.ConstantRegs, Backend: "re", ChunkWays: chunk, SpillRuns: spill}, true
	}
	return Config{}, false // "auto" is the planner's, never a register file
}

// TestCanonicalAgreement: over the whole table, Canonical accepts exactly
// what NewFromConfig builds, the coprocessor built has the canonical
// geometry, the canonical values are the rule's, and canonicalizing twice
// changes nothing. "" resolves to dense; "auto" and unknown names are
// refused.
func TestCanonicalAgreement(t *testing.T) {
	accepted := map[string]int{}
	for _, b := range tableBackends {
		for _, ways := range tableWays {
			for _, chunk := range tableChunks {
				for _, spill := range tableSpills {
					for _, constRegs := range []bool{false, true} {
						cfg := Config{Ways: ways, ConstantRegs: constRegs, Backend: b, ChunkWays: chunk, SpillRuns: spill}
						c, err := cfg.Canonical()
						want, ok := wantCanonical(cfg)
						if (err == nil) != ok || (ok && c != want) {
							t.Fatalf("%+v: Canonical=%+v (%v), want %+v (ok %v)", cfg, c, err, want, ok)
						}
						q, nerr := NewFromConfig(cfg)
						if (nerr == nil) != ok {
							t.Fatalf("%+v: Canonical err=%v, NewFromConfig err=%v", cfg, err, nerr)
						}
						if !ok {
							continue
						}
						accepted[b]++
						if again, err := c.Canonical(); err != nil || again != c {
							t.Fatalf("%+v: canonical form %+v recanonicalizes to %+v (%v)", cfg, c, again, err)
						}
						if q.Backend() != c.Backend || q.Ways() != c.Ways || q.reserved[1] != constRegs {
							t.Fatalf("%+v: built %s at %d ways (const %v), canonical %+v",
								cfg, q.Backend(), q.Ways(), q.reserved[1], c)
						}
						if q.re != nil && (q.re.sp.ChunkWays() != c.ChunkWays || q.re.spillRuns != c.SpillRuns) {
							t.Fatalf("%+v: built chunk %d spill %d, canonical %+v",
								cfg, q.re.sp.ChunkWays(), q.re.spillRuns, c)
						}
					}
				}
			}
		}
	}
	if accepted["auto"] != 0 || accepted["fpga"] != 0 || accepted[""] != accepted[BackendDense] || accepted[BackendRE] == 0 {
		t.Fatalf("accepted per backend %v", accepted)
	}
}
