package aob

import (
	"testing"
)

// FuzzAoBRef drives a random operation sequence through the packed SWAR
// kernels and the naive bit-at-a-time model side by side, asserting
// channel-exact equality after every step. The input encoding is one header
// byte (ways) followed by (op, arg) byte pairs; arg packs the destination
// and operand register indices in its nibbles, or the probe channel for the
// reductions.
func FuzzAoBRef(f *testing.F) {
	f.Add([]byte{6, 0, 0x01, 2, 0x12, 5, 0x01})
	f.Add([]byte{3, 8, 0x02, 1, 0x21, 9, 0x10, 11, 0x03})
	f.Add([]byte{0, 7, 0x00, 4, 0x00, 12, 0x00})
	f.Add([]byte{8, 6, 0x31, 10, 0x23, 13, 0x07, 14, 0x3F, 15, 0x00})
	// 9 and 10 ways: the logic gates on one and two whole 8-word blocks,
	// with the destination aliasing an operand.
	f.Add([]byte{9, 2, 0x04, 2, 0x19, 4, 0x12, 5, 0x13, 6, 0x30, 4, 0x15})
	f.Add([]byte{10, 2, 0x04, 2, 0x19, 4, 0x12, 5, 0x13, 6, 0x30, 4, 0x15})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ways := int(data[0] % 11) // 0..10: reaches the 8- and 16-word kernel blocks, small enough to model
		data = data[1:]

		const numRegs = 4
		regs := make([]*Vector, numRegs)
		models := make([]model, numRegs)
		for i := range regs {
			regs[i] = New(ways)
			models[i] = make(model, regs[i].Channels())
		}
		check := func(op string) {
			for i := range regs {
				if !models[i].equal(regs[i]) {
					t.Fatalf("after %s: reg %d diverged: packed %s", op, i, regs[i])
				}
			}
		}

		for len(data) >= 2 {
			op, arg := data[0], data[1]
			data = data[2:]
			d := int(arg) & 3
			s := int(arg>>2) & 3
			u := int(arg>>4) & 3
			md, ms, mu := models[d], models[s], models[u]
			switch op % 16 {
			case 0: // zero
				regs[d].Zero()
				for ch := range md {
					md[ch] = false
				}
			case 1: // one
				regs[d].One()
				for ch := range md {
					md[ch] = true
				}
			case 2: // had
				if ways == 0 {
					continue
				}
				k := s ^ u // 0..3, always < ways once ways > 3; clamp below
				if k >= ways {
					k %= ways
				}
				regs[d].Had(k)
				for ch := range md {
					md[ch] = (ch>>uint(k))&1 == 1
				}
			case 3: // not
				regs[d].Not()
				for ch := range md {
					md[ch] = !md[ch]
				}
			case 4: // and
				regs[d].And(regs[s], regs[u])
				for ch := range md {
					md[ch] = ms[ch] && mu[ch]
				}
			case 5: // or
				regs[d].Or(regs[s], regs[u])
				for ch := range md {
					md[ch] = ms[ch] || mu[ch]
				}
			case 6: // xor
				regs[d].Xor(regs[s], regs[u])
				for ch := range md {
					md[ch] = ms[ch] != mu[ch]
				}
			case 7: // cnot
				regs[d].CNot(regs[s])
				for ch := range md {
					md[ch] = md[ch] != ms[ch]
				}
			case 8: // ccnot
				regs[d].CCNot(regs[s], regs[u])
				for ch := range md {
					md[ch] = md[ch] != (ms[ch] && mu[ch])
				}
			case 9: // swap
				if d == s {
					continue
				}
				regs[d].Swap(regs[s])
				for ch := range md {
					md[ch], ms[ch] = ms[ch], md[ch]
				}
			case 10: // cswap
				if d == s {
					continue
				}
				regs[d].CSwap(regs[s], regs[u])
				for ch := range md {
					if mu[ch] {
						md[ch], ms[ch] = ms[ch], md[ch]
					}
				}
			case 11: // set one channel
				ch := uint64(arg) & regs[d].chanMask()
				bit := op&0x10 != 0
				regs[d].Set(ch, bit)
				md[ch] = bit
			case 12: // next
				ch := uint64(arg) & regs[d].chanMask()
				if got, want := regs[d].Next(ch), md.next(ch); got != want {
					t.Fatalf("next(%d) on reg %d: got %d want %d (%s)", ch, d, got, want, regs[d])
				}
			case 13: // popAfter
				ch := uint64(arg) & regs[d].chanMask()
				if got, want := regs[d].PopAfter(ch), md.popAfter(ch); got != want {
					t.Fatalf("popAfter(%d) on reg %d: got %d want %d (%s)", ch, d, got, want, regs[d])
				}
			case 14: // pop / any / all
				if got, want := regs[d].Pop(), md.pop(); got != want {
					t.Fatalf("pop on reg %d: got %d want %d (%s)", d, got, want, regs[d])
				}
				if regs[d].Any() != (md.pop() > 0) {
					t.Fatalf("any on reg %d: %s", d, regs[d])
				}
				if regs[d].All() != (md.pop() == uint64(len(md))) {
					t.Fatalf("all on reg %d: %s", d, regs[d])
				}
			case 15: // meas
				ch := uint64(arg) & regs[d].chanMask()
				want := uint64(0)
				if md[ch] {
					want = 1
				}
				if got := regs[d].Meas(ch); got != want {
					t.Fatalf("meas(%d) on reg %d: got %d want %d", ch, d, got, want)
				}
			}
			check(opName(op % 16))
		}
	})
}

func opName(op byte) string {
	names := [...]string{"zero", "one", "had", "not", "and", "or", "xor",
		"cnot", "ccnot", "swap", "cswap", "set", "next", "popafter", "pop", "meas"}
	return names[op]
}
