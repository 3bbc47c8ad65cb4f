package isa

import "testing"

// FuzzDecode: no 16-bit word pair may panic the decoder, and every
// successful decode must re-encode to the same bits.
func FuzzDecode(f *testing.F) {
	f.Add(uint16(0x0000), uint16(0x0000))
	f.Add(uint16(0xE012), uint16(0x0000))
	f.Add(uint16(0x8001), uint16(0x0203))
	f.Add(uint16(0xFFFF), uint16(0xFFFF))
	f.Add(uint16(0x5F80), uint16(0x0000))
	f.Fuzz(func(t *testing.T, w0, w1 uint16) {
		inst, n, err := Decode(w0, w1)
		if err != nil {
			if n != 1 {
				t.Fatalf("error decode consumed %d words", n)
			}
			return
		}
		words, err := Append(nil, inst)
		if err != nil {
			t.Fatalf("decoded %v but cannot encode: %v", inst, err)
		}
		if len(words) != n {
			t.Fatalf("length mismatch %d vs %d", len(words), n)
		}
		if words[0] != w0 {
			t.Fatalf("re-encode %04x != %04x (%v)", words[0], w0, inst)
		}
		if n == 2 && words[1] != w1 {
			t.Fatalf("re-encode w1 %04x != %04x", words[1], w1)
		}
	})
}
