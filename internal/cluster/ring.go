// Package cluster is CAP'NN's sharded serving tier: a consistent-hash
// gateway that spreads personalized inference across many serve nodes.
//
// The workload shards naturally along the same axis the single-node
// tier deduplicates on: every request carries a canonical preference
// key (core.Preferences.Key), users with one preference vector share
// one pruned variant of the model, and pinning a key to a node
// maximizes that node's mask-cache hit rate.
// The gateway therefore routes each request by its placement key on a
// consistent-hash ring (virtual nodes, deterministic seeded placement)
// over pooled persistent connections, fails over to the key's next
// ring replica on error or timeout, health-checks every node through a
// closed/open/half-open breaker (internal/breaker, the type internal/serve
// guards repersonalization with), and survives restarts by persisting its
// ring configuration in an internal/store generation.
package cluster

import (
	"fmt"
	"sort"
	"strconv"
)

// fnv64 constants, inlined so key lookup stays allocation-free (the
// stdlib hash.Hash64 interface forces a []byte write per key).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Ring is an immutable consistent-hash ring: a sorted circle of
// virtual-node points, each owned by a member node. Placement is a pure
// function of (seed, virtual-node count, member set) — two rings built
// from the same members in any join order assign every key to the same
// owners, bit-identically, which is what lets independent gateways (or
// one gateway across restarts) agree on routing without coordination.
//
// Mutation is copy-on-write: Add/Remove return a new ring with the
// version bumped, so readers route on an immutable snapshot while a
// membership change builds the successor.
type Ring struct {
	seed    int64
	vnodes  int
	version uint64
	nodes   []string // member set, sorted ascending
	points  []point  // ring circle, sorted by hash
}

// point is one virtual node on the circle: a hash position and the
// index of its owner in nodes.
type point struct {
	hash uint64
	node int32
}

// DefaultVirtualNodes spreads each member over enough points that load
// imbalance across nodes stays within a few percent.
const DefaultVirtualNodes = 128

// NewRing builds a ring over the given member nodes. vnodes <= 0 takes
// DefaultVirtualNodes. Duplicate members are an error — a node listed
// twice would silently double its share of the keyspace.
func NewRing(seed int64, vnodes int, nodes []string) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("cluster: duplicate node %q", sorted[i])
		}
	}
	r := &Ring{seed: seed, vnodes: vnodes, version: 1, nodes: sorted}
	r.build()
	return r, nil
}

// build populates points from the member set. Each member contributes
// vnodes points hashed from "name#i" under the seed; ties (vanishingly
// rare but possible) break by (node, hash-input ordinal) so the sort is
// total and the circle deterministic.
func (r *Ring) build() {
	r.points = make([]point, 0, len(r.nodes)*r.vnodes)
	for ni, name := range r.nodes {
		for v := 0; v < r.vnodes; v++ {
			h := r.hashString(name + "#" + strconv.Itoa(v))
			r.points = append(r.points, point{hash: h, node: int32(ni)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.node < b.node
	})
}

// hashString is FNV-1a over the seed's 8 little-endian bytes followed
// by s, passed through a 64-bit avalanche finalizer, with no
// allocation. The finalizer matters: raw FNV of "name#0", "name#1", …
// differs mostly in low bits, which clusters a node's virtual points on
// one arc of the circle and starves it of keyspace.
func (r *Ring) hashString(s string) uint64 {
	h := uint64(fnvOffset)
	seed := uint64(r.seed)
	for i := 0; i < 8; i++ {
		h ^= (seed >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	// murmur3 fmix64
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Version is the ring's membership version. It increments on every
// Add/Remove; placement does not depend on it (same member set ⇒ same
// circle at any version).
func (r *Ring) Version() uint64 { return r.version }

// Epoch is the cluster epoch — an alias for Version under the name the
// membership protocol uses. Every wire request is stamped with the
// sender's epoch, serve-side fences reject requests routed under an
// older epoch with CodeRingChanged, and the gateway retries them on the
// fresh ring. Monotone across restarts (persisted in store.RingConfig;
// RestoreRingConfig rejects regressions).
func (r *Ring) Epoch() uint64 { return r.version }

// Nodes returns the sorted member set (callers must not mutate).
func (r *Ring) Nodes() []string { return r.nodes }

// Len is the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// Seed and VirtualNodes expose the placement parameters (for
// persistence).
func (r *Ring) Seed() int64       { return r.seed }
func (r *Ring) VirtualNodes() int { return r.vnodes }

// succ builds the next-version ring over a changed member set.
func (r *Ring) succ(nodes []string) (*Ring, error) {
	n, err := NewRing(r.seed, r.vnodes, nodes)
	if err != nil {
		return nil, err
	}
	n.version = r.version + 1
	return n, nil
}

// Add returns a new ring (version+1) with node joined.
func (r *Ring) Add(node string) (*Ring, error) {
	for _, n := range r.nodes {
		if n == node {
			return nil, fmt.Errorf("cluster: node %q already a member", node)
		}
	}
	return r.succ(append(append([]string(nil), r.nodes...), node))
}

// Remove returns a new ring (version+1) with node departed.
func (r *Ring) Remove(node string) (*Ring, error) {
	out := make([]string, 0, len(r.nodes))
	for _, n := range r.nodes {
		if n != node {
			out = append(out, n)
		}
	}
	if len(out) == len(r.nodes) {
		return nil, fmt.Errorf("cluster: node %q not a member", node)
	}
	return r.succ(out)
}

// SetVersion pins the version counter — used when restoring a ring from
// a persisted RingConfig so numbering resumes instead of restarting at 1.
func (r *Ring) SetVersion(v uint64) { r.version = v }

// LookupInto writes up to len(dst) distinct owner nodes for key into
// dst, primary first then successive ring replicas, and returns how
// many it wrote (bounded by the member count). It allocates nothing:
// dst strings are headers copied from the ring's member table. An empty
// ring writes zero owners.
func (r *Ring) LookupInto(key string, dst []string) int {
	if len(r.points) == 0 || len(dst) == 0 {
		return 0
	}
	h := r.hashString(key)
	// First point clockwise from h (wrapping).
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		lo = 0
	}
	want := len(dst)
	if want > len(r.nodes) {
		want = len(r.nodes)
	}
	got := 0
	for i := 0; i < len(r.points) && got < want; i++ {
		p := r.points[(lo+i)%len(r.points)]
		owner := r.nodes[p.node]
		dup := false
		for j := 0; j < got; j++ {
			if dst[j] == owner {
				dup = true
				break
			}
		}
		if !dup {
			dst[got] = owner
			got++
		}
	}
	return got
}

// Owners returns the key's first n distinct owners (primary first).
// Allocating convenience over LookupInto.
func (r *Ring) Owners(key string, n int) []string {
	dst := make([]string, n)
	return dst[:r.LookupInto(key, dst)]
}

// Owner returns the key's primary owner ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	var buf [1]string
	if r.LookupInto(key, buf[:]) == 0 {
		return ""
	}
	return buf[0]
}
