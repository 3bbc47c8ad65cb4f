package isa

import (
	"testing"
	"testing/quick"
)

// TestStudentEncodingRoundTrip: every op round-trips through the
// alternative codec with all fields preserved — the ISA fits more than one
// encoding, as the paper's course design intends.
func TestStudentEncodingRoundTrip(t *testing.T) {
	for _, op := range allOps() {
		in := sampleInst(op)
		words, err := Student.Append(nil, in)
		if err != nil {
			t.Fatalf("%s: %v", op.Name(), err)
		}
		if len(words) != in.Words() {
			t.Fatalf("%s: %d words", op.Name(), len(words))
		}
		var w1 uint16
		if len(words) > 1 {
			w1 = words[1]
		}
		out, n, err := Student.Decode(words[0], w1)
		if err != nil || n != len(words) || out != in {
			t.Fatalf("%s: round trip %+v -> %+v (%v)", op.Name(), in, out, err)
		}
	}
}

// TestEncodingsDiffer: the two codecs genuinely disagree on bit patterns
// (otherwise the demonstration is vacuous).
func TestEncodingsDiffer(t *testing.T) {
	diff := 0
	for _, op := range allOps() {
		in := sampleInst(op)
		a, _ := Primary.Append(nil, in)
		b, _ := Student.Append(nil, in)
		if a[0] != b[0] {
			diff++
		}
	}
	if diff < int(numOps)-2 {
		t.Errorf("only %d ops encode differently", diff)
	}
}

// TestAppendKeepsPrefix: both codecs append after what dst already holds,
// and a failed encoding leaves dst as it was.
func TestAppendKeepsPrefix(t *testing.T) {
	for _, enc := range []Encoding{Primary, Student} {
		prefix := []uint16{0xAAAA, 0x5555}
		for _, op := range allOps() {
			in := sampleInst(op)
			alone, err := enc.Append(nil, in)
			if err != nil {
				t.Fatalf("%s %s: %v", enc.Name(), op.Name(), err)
			}
			got, err := enc.Append(prefix[:2:2], in)
			if err != nil || len(got) != 2+len(alone) || got[0] != 0xAAAA || got[1] != 0x5555 {
				t.Fatalf("%s %s: %04x (%v), want the prefix then %04x", enc.Name(), op.Name(), got, err, alone)
			}
			for i, w := range alone {
				if got[2+i] != w {
					t.Fatalf("%s %s: word %d %04x, want %04x", enc.Name(), op.Name(), i, got[2+i], w)
				}
			}
		}
		bad := Inst{Op: OpAdd, RD: NumRegs}
		if got, err := enc.Append(prefix, bad); err == nil || len(got) != len(prefix) {
			t.Fatalf("%s: bad instruction gave %04x, %v", enc.Name(), got, err)
		}
	}
}

// TestStudentZeroWordTraps: all-zero memory decodes as an illegal
// instruction under the student layout.
func TestStudentZeroWordTraps(t *testing.T) {
	if _, _, err := Student.Decode(0, 0); err == nil {
		t.Error("zero word decoded")
	}
}

// TestCrossTranscode: Primary -> Student -> Primary is the identity on
// instruction streams.
func TestCrossTranscode(t *testing.T) {
	var words []uint16
	for _, op := range allOps() {
		w, err := Primary.Append(nil, sampleInst(op))
		if err != nil {
			t.Fatal(err)
		}
		words = append(words, w...)
	}
	student, err := Transcode(words, Primary, Student)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Transcode(student, Student, Primary)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(words) {
		t.Fatalf("length %d != %d", len(back), len(words))
	}
	for i := range words {
		if back[i] != words[i] {
			t.Fatalf("word %d: %04x != %04x", i, back[i], words[i])
		}
	}
}

// TestStudentDecodeTotalProperty: the student decoder never panics and
// agrees with its encoder, for arbitrary words.
func TestStudentDecodeTotalProperty(t *testing.T) {
	f := func(w0, w1 uint16) bool {
		inst, n, err := Student.Decode(w0, w1)
		if err != nil {
			return n == 1
		}
		words, err := Student.Append(nil, inst)
		if err != nil || len(words) != n {
			return false
		}
		if words[0] != w0 {
			return false
		}
		return n == 1 || words[1] == w1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestPrimaryEncodingWrapper(t *testing.T) {
	if Primary.Name() != "primary" || Student.Name() != "student" {
		t.Error("names")
	}
	in := Inst{Op: OpAdd, RD: 1, RS: 2}
	a, _ := Primary.Append(nil, in)
	b, _ := Append(nil, in)
	if a[0] != b[0] {
		t.Error("Primary wrapper diverges from package functions")
	}
}
