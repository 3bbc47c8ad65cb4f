package cluster

// Deterministic consistent-hashing properties. The rebalance-bounds test
// is the satellite's 3→4→3 pin: adding a node moves only the keys the new
// node now owns (≈ keys/nodes, bounded below ceil(keys/nodes)+slack —
// never a mod-N reshuffle), and removing it restores the original
// assignment exactly. Keys are derived the way the router derives them:
// RouteKey over distinct run requests.

import (
	"fmt"
	"testing"

	"tangled/internal/server"
)

// testKeys derives n distinct ring coordinates deterministically.
func testKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		k, ok := RouteKey(&server.RunRequest{Src: fmt.Sprintf("lex $1,%d\n", i)})
		if !ok {
			panic("run request not keyed")
		}
		keys[i] = k
	}
	return keys
}

func assignAll(r *Ring, keys []uint64) map[uint64]string {
	out := make(map[uint64]string, len(keys))
	for _, k := range keys {
		n, ok := r.Lookup(k)
		if !ok {
			panic("empty ring")
		}
		out[k] = n
	}
	return out
}

func TestRingRebalanceBounds3to4to3(t *testing.T) {
	const K = 10_000
	keys := testKeys(K)
	r := NewRing(0)
	for _, n := range []string{"a", "b", "c"} {
		r.Add(n)
	}
	before := assignAll(r, keys)

	// Join: node d takes over only its own arcs.
	r.Add("d")
	after := assignAll(r, keys)
	moved := 0
	for _, k := range keys {
		if after[k] != before[k] {
			if after[k] != "d" {
				t.Fatalf("key %x moved %s→%s on join: only moves TO the new node are allowed",
					k, before[k], after[k])
			}
			moved++
		}
	}
	// Expected share is K/4; virtual-node variance bounds it well inside
	// ±50% of ceil(K/nodes). A mod-N reshuffle would move ~3/4 of keys.
	ideal := (K + 3) / 4
	if moved > ideal+ideal/2 {
		t.Fatalf("join moved %d keys, want ≤ %d (ceil(K/4)+50%% slack)", moved, ideal+ideal/2)
	}
	if moved < ideal/2 {
		t.Fatalf("join moved %d keys, want ≥ %d (new node must take a real share)", moved, ideal/2)
	}

	// Leave: the exact original assignment comes back — consistent
	// hashing is memoryless in membership.
	r.Remove("d")
	restored := assignAll(r, keys)
	for _, k := range keys {
		if restored[k] != before[k] {
			t.Fatalf("key %x owned by %s after leave, was %s before join", k, restored[k], before[k])
		}
	}
}

func TestRingBalance(t *testing.T) {
	const K = 30_000
	keys := testKeys(K)
	r := NewRing(0)
	nodes := []string{"n1", "n2", "n3", "n4", "n5"}
	for _, n := range nodes {
		r.Add(n)
	}
	counts := make(map[string]int)
	for _, k := range keys {
		n, _ := r.Lookup(k)
		counts[n]++
	}
	ideal := K / len(nodes)
	for _, n := range nodes {
		if c := counts[n]; c < ideal/2 || c > ideal*2 {
			t.Fatalf("node %s owns %d keys, want within [%d,%d] of ideal %d", n, c, ideal/2, ideal*2, ideal)
		}
	}
}

func TestRingSuccessors(t *testing.T) {
	r := NewRing(16)
	for _, n := range []string{"a", "b", "c"} {
		r.Add(n)
	}
	keys := testKeys(64)
	for _, k := range keys {
		succ := r.Successors(k, 3)
		if len(succ) != 3 {
			t.Fatalf("successors(%x) = %v, want 3 distinct nodes", k, succ)
		}
		seen := map[string]bool{}
		for _, s := range succ {
			if seen[s] {
				t.Fatalf("successors(%x) = %v has a duplicate", k, succ)
			}
			seen[s] = true
		}
		owner, _ := r.Lookup(k)
		if succ[0] != owner {
			t.Fatalf("successors(%x)[0] = %s, owner = %s", k, succ[0], owner)
		}
	}
	if got := r.Successors(keys[0], 10); len(got) != 3 {
		t.Fatalf("successors capped at membership: got %v", got)
	}
	r.Remove("a")
	r.Remove("b")
	r.Remove("c")
	if got := r.Successors(keys[0], 2); got != nil {
		t.Fatalf("empty ring successors = %v, want nil", got)
	}
	if _, ok := r.Lookup(keys[0]); ok {
		t.Fatal("empty ring Lookup must report !ok")
	}
}
