package qat

import (
	"testing"

	"tangled/internal/isa"
)

// FuzzAoBvsRE drives a random Qat instruction stream through the dense AoB
// register file and the RE compressed one (with a tiny spill budget so the
// spill path is constantly exercised) and asserts the two backends stay
// channel-exact. Both are then Reset and the stream replayed, since a
// pooled RE machine keeps each register's Pattern storage across runs.
// Input encoding: byte 0 picks ways (0..8), byte 1 the chunk ways, then
// (op, regs, k) byte triples: op indexes qatOps, regs holds QA in its low
// nibble and QB in its high one, and k holds QC low and K high.
func FuzzAoBvsRE(f *testing.F) {
	f.Add([]byte{6, 3, 2, 0x10, 1, 4, 0x21, 0, 8, 0x12, 2, 13, 0x01, 0})
	f.Add([]byte{3, 1, 0, 0x00, 0, 9, 0x21, 0, 10, 0x31, 1})
	f.Add([]byte{8, 4, 2, 0x01, 7, 6, 0x12, 3, 12, 0x00, 0, 11, 0x05, 0})
	f.Add([]byte{0, 0, 1, 0x00, 0, 13, 0x00, 0})
	// Fully aliased operands after had @0,1 and had @1,4 (four runs at
	// chunk ways 3, so @1 spills): and @0,@0,@0; ccnot @0,@1,@0;
	// cswap @0,@0,@0; cswap @0,@1,@0; then the same on the spilled @1.
	for _, tail := range [][]byte{
		{4, 0x00, 0x00}, {8, 0x10, 0x00}, {10, 0x00, 0x00}, {10, 0x10, 0x00},
		{4, 0x11, 0x01}, {8, 0x01, 0x01}, {10, 0x11, 0x01}, {10, 0x01, 0x01},
	} {
		f.Add(append([]byte{6, 3, 2, 0x00, 0x10, 2, 0x01, 0x40}, tail...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ways := int(data[0] % 9)
		chunkWays := 0
		if ways > 0 {
			chunkWays = int(data[1]) % (ways + 1)
		}
		data = data[2:]

		dense, err := NewFromConfig(Config{Ways: ways})
		if err != nil {
			t.Fatal(err)
		}
		reQ, err := NewFromConfig(Config{Ways: ways, Backend: BackendRE,
			ChunkWays: chunkWays, SpillRuns: 2})
		if err != nil {
			t.Fatal(err)
		}
		// Keep the symbol table tiny so intern resets happen mid-stream.
		reQ.Space().SetSymbolCap(16)

		const numRegs = 6
		for pass := 0; pass < 2; pass++ {
			steps := 0
			for rest := data; len(rest) >= 3; rest = rest[3:] {
				op := qatOps[int(rest[0])%len(qatOps)]
				inst := isa.Inst{
					Op: op,
					QA: rest[1] % numRegs,
					QB: (rest[1] >> 4) % numRegs,
					QC: rest[2] % numRegs,
				}
				if ways > 0 {
					inst.K = (rest[2] >> 4) % uint8(ways)
				}
				rd := uint16(rest[1])<<8 | uint16(rest[2])
				o1, w1, e1 := dense.Exec(inst, rd)
				o2, w2, e2 := reQ.Exec(inst, rd)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("pass %d step %d %s: error divergence: %v vs %v", pass, steps, op.Name(), e1, e2)
				}
				if o1 != o2 || w1 != w2 {
					t.Fatalf("pass %d step %d %s: scalar divergence: (%d,%v) vs (%d,%v)",
						pass, steps, op.Name(), o1, w1, o2, w2)
				}
				steps++
			}
			for qa := uint8(0); qa < numRegs; qa++ {
				dv, rv := dense.Reg(qa), reQ.Reg(qa)
				if !dv.Equal(rv) {
					t.Fatalf("pass %d: @%d diverged after %d steps: dense %s vs re %s", pass, qa, steps, dv, rv)
				}
			}
			dense.Reset()
			reQ.Reset()
		}
	})
}
