package aob

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestHashFollowsContent: equal vectors hash equal whatever their storage,
// and the Hadamard, zero and one chunks a 16-way RE space interns first
// hash apart.
func TestHashFollowsContent(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, ways := range []int{0, 3, 6, 9, 16} {
		v := randVector(r, ways)
		if v.Hash() != v.Clone().Hash() {
			t.Fatalf("%d ways: a clone hashes differently", ways)
		}
	}
	seen := map[uint64]string{New(16).Hash(): "zero", OneVector(16).Hash(): "one"}
	if len(seen) != 2 {
		t.Fatal("zero and one chunks collide")
	}
	for k := 0; k < 16; k++ {
		h := HadVector(16, k).Hash()
		if prev, ok := seen[h]; ok {
			t.Fatalf("Had(%d) collides with %s", k, prev)
		}
		seen[h] = fmt.Sprintf("Had(%d)", k)
	}
	if New(4).Hash() == New(5).Hash() {
		t.Fatal("zero vectors of different ways hash equal")
	}
}

// TestSymbolTableCollisions stores distinct vectors under one hash: each is
// kept as its own canonical copy and found again by content, and a vector
// absent from the chain is not found.
func TestSymbolTableCollisions(t *testing.T) {
	var tab SymbolTable
	const h = 7
	vs := []*Vector{HadVector(6, 0), HadVector(6, 1), HadVector(6, 2)}
	for _, v := range vs {
		if tab.Lookup(h, v) != nil {
			t.Fatalf("%s found before insertion", v)
		}
		tab.Insert(h, v)
	}
	if tab.Len() != len(vs) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(vs))
	}
	for _, v := range vs {
		if got := tab.Lookup(h, v.Clone()); got != v {
			t.Fatalf("lookup of %s found %v", v, got)
		}
	}
	if tab.Lookup(h, HadVector(6, 3)) != nil {
		t.Fatal("absent vector found in the collision chain")
	}
	v := HadVector(6, 4)
	if tab.Intern(v) != v || tab.Intern(v.Clone()) != v {
		t.Fatal("Intern did not keep the first copy as canonical")
	}
}
