package cluster

import (
	"fmt"
	"testing"
)

func mustRing(t *testing.T, seed int64, vnodes int, nodes []string) *Ring {
	t.Helper()
	r, err := NewRing(seed, vnodes, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRingPlacementIsOrderFree pins the core cluster invariant: rings
// built from the same member set in any join order (including via
// Add/Remove churn) assign every key to identical owner sequences.
// Placement must be a pure function of (seed, vnodes, member set) —
// independent gateways and restarted gateways agree without talking.
func TestRingPlacementIsOrderFree(t *testing.T) {
	a := mustRing(t, 7, 64, []string{"n1:1", "n2:1", "n3:1"})
	b := mustRing(t, 7, 64, []string{"n3:1", "n1:1", "n2:1"})
	// c reaches the same member set through churn: join all five, part two.
	c := mustRing(t, 7, 64, []string{"n4:1", "n1:1"})
	for _, step := range []struct{ add, remove string }{
		{add: "n3:1"}, {add: "n5:1"}, {remove: "n4:1"}, {add: "n2:1"}, {remove: "n5:1"},
	} {
		var err error
		if step.add != "" {
			c, err = c.Add(step.add)
		} else {
			c, err = c.Remove(step.remove)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if c.Epoch() == a.Epoch() {
		t.Fatalf("churned ring should have advanced its version past %d", a.Epoch())
	}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("M/%016x", i*2654435761)
		oa, ob, oc := a.Owners(key, 3), b.Owners(key, 3), c.Owners(key, 3)
		if len(oa) != 3 {
			t.Fatalf("key %s: got %d owners, want 3", key, len(oa))
		}
		for j := range oa {
			if oa[j] != ob[j] || oa[j] != oc[j] {
				t.Fatalf("key %s owners diverge: %v vs %v vs %v", key, oa, ob, oc)
			}
		}
	}
}

// TestRingGoldenPlacement pins exact owner assignments for a fixed
// configuration. These literals are load-bearing: they make any change
// to the hash function, vnode naming, or tie-breaking visible as a test
// failure, because such a change silently remaps every key in every
// deployed cluster (losing all mask-cache locality at once).
func TestRingGoldenPlacement(t *testing.T) {
	r := mustRing(t, 42, 128, []string{"a:7879", "b:7879", "c:7879"})
	golden := map[string][2]string{
		"M/0000000000000000": {"b:7879", "c:7879"},
		"M/deadbeefcafef00d": {"b:7879", "a:7879"},
		"W/deadbeefcafef00d": {"a:7879", "c:7879"},
		"B/0123456789abcdef": {"a:7879", "c:7879"},
	}
	for key, want := range golden {
		got := r.Owners(key, 2)
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("key %s: owners %v, want %v (hash/placement changed — this remaps every deployed cluster)", key, got, want)
		}
	}
}

// TestRingReplicasDistinct: replica owners are distinct nodes and the
// count saturates at the member count.
func TestRingReplicasDistinct(t *testing.T) {
	r := mustRing(t, 1, 32, []string{"x", "y", "z"})
	for i := 0; i < 200; i++ {
		owners := r.Owners(fmt.Sprintf("key-%d", i), 5)
		if len(owners) != 3 {
			t.Fatalf("want all 3 members as owners, got %v", owners)
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("duplicate owner %s in %v", o, owners)
			}
			seen[o] = true
		}
	}
}

// TestRingBalance: with enough virtual nodes no member is starved.
func TestRingBalance(t *testing.T) {
	r := mustRing(t, 3, DefaultVirtualNodes, []string{"a", "b", "c"})
	counts := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("M/%d", i))]++
	}
	for node, c := range counts {
		if share := float64(c) / n; share < 0.15 || share > 0.55 {
			t.Errorf("node %s owns %.1f%% of the keyspace (counts %v)", node, share*100, counts)
		}
	}
}

// TestRingMembership: versioning and membership edge cases.
func TestRingMembership(t *testing.T) {
	r := mustRing(t, 0, 8, []string{"a"})
	if r.Epoch() != 1 {
		t.Fatalf("fresh ring version %d, want 1", r.Epoch())
	}
	if _, err := NewRing(0, 8, []string{"a", "a"}); err == nil {
		t.Fatal("duplicate member accepted")
	}
	if _, err := r.Add("a"); err == nil {
		t.Fatal("re-adding a member accepted")
	}
	if _, err := r.Remove("zzz"); err == nil {
		t.Fatal("removing a non-member accepted")
	}
	r2, err := r.Add("b")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Epoch() != 2 || r2.Len() != 2 {
		t.Fatalf("after add: version %d len %d", r2.Epoch(), r2.Len())
	}
	r3, err := r2.Remove("a")
	if err != nil {
		t.Fatal(err)
	}
	if r3.Epoch() != 3 || r3.Owner("anything") != "b" {
		t.Fatalf("after remove: version %d owner %q", r3.Epoch(), r3.Owner("anything"))
	}
	empty, err := r3.Remove("b")
	if err != nil {
		t.Fatal(err)
	}
	if got := empty.Owner("k"); got != "" {
		t.Fatalf("empty ring owner %q, want \"\"", got)
	}
}

// TestRingBoundedMovement pins the rebalancing invariant that bounds
// the cold refills a membership change costs: when a node joins, the
// only keys whose primary owner changes are the ones moving TO the
// joiner; when a node leaves, only the keys it owned move (to
// survivors). Unmoved vnode ranges keep their golden
// placement bit-identically, and each change bumps the epoch by one.
func TestRingBoundedMovement(t *testing.T) {
	r3, err := NewRing(7, 64, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := r3.Add("d")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := r3.Remove("b")
	if err != nil {
		t.Fatal(err)
	}
	if r4.Epoch() != r3.Epoch()+1 || r2.Epoch() != r3.Epoch()+1 {
		t.Fatalf("epochs: base=%d join=%d leave=%d, want +1 per change", r3.Epoch(), r4.Epoch(), r2.Epoch())
	}
	joined, left := 0, 0
	for i := 0; i < 4000; i++ {
		key := fmt.Sprintf("key-%06d", i)
		base := r3.Owner(key)
		if after := r4.Owner(key); after != base {
			if after != "d" {
				t.Fatalf("join moved %s from %s to %s — not to the joiner", key, base, after)
			}
			joined++
		}
		if after := r2.Owner(key); after != base {
			if base != "b" {
				t.Fatalf("leave moved %s from survivor %s to %s", key, base, after)
			}
			left++
		}
	}
	// Sanity that the invariant was actually exercised: both changes
	// must move a nontrivial share of the keyspace (~1/4 and ~1/3).
	if joined == 0 || left == 0 {
		t.Fatalf("joined=%d left=%d keys moved of 4000; the membership changes moved nothing", joined, left)
	}
}

// TestRingLookupAllocFree: the hot routing path must not allocate.
func TestRingLookupAllocFree(t *testing.T) {
	r := mustRing(t, 9, DefaultVirtualNodes, []string{"a:1", "b:1", "c:1", "d:1", "e:1"})
	var dst [3]string
	key := "M/00f1e2d3c4b5a697"
	allocs := testing.AllocsPerRun(1000, func() {
		if n := r.LookupInto(key, dst[:]); n != 3 {
			t.Fatalf("lookup returned %d owners", n)
		}
	})
	if allocs != 0 {
		t.Fatalf("LookupInto allocates %.1f times per lookup, want 0", allocs)
	}
}

// Only the tests read Owners.

// Owners returns the key's first n distinct owners (primary first).
// Allocating convenience over LookupInto.
func (r *Ring) Owners(key string, n int) []string {
	dst := make([]string, n)
	return dst[:r.LookupInto(key, dst)]
}
