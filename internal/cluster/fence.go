package cluster

import (
	"fmt"
	"sync/atomic"

	"capnn/internal/cloud"
	"capnn/internal/serve"
)

// Fence is the serve-node half of the membership protocol: a local,
// lock-free copy of the gateway's ring that judges every routed
// request's placement stamp. Wire it into a serve.Server with
//
//	srv.SetOwnerCheck(fence.Check)
//	srv.SetRingUpdate(fence.Apply)
//
// and the node fences misrouted traffic (CodeWrongOwner) and requests
// routed under a stale epoch (CodeRingChanged); the gateway answers
// both by re-routing on its current ring. Until the first ring view
// arrives the fence admits everything — a node that has never heard a
// topology cannot distinguish misrouting from normality, and rejecting
// would turn a lost broadcast into an outage.
type Fence struct {
	state atomic.Pointer[fenceState]
}

// fenceState is one immutable ring view: the placement function, this
// node's own address as the ring names it, and the replication factor
// (a request for any of a key's R owners is correctly placed — the
// gateway fails over inside the owner set by design).
type fenceState struct {
	ring *Ring
	self string
	repl int
}

// NewFence returns a fence with no ring view (admits everything).
func NewFence() *Fence { return &Fence{} }

// Apply installs a broadcast membership view. Views are ordered by
// epoch: an arriving view older than (or equal to) the installed one is
// ignored, so replayed or reordered broadcasts cannot roll the fence
// back to a stale topology.
func (f *Fence) Apply(u serve.RingUpdate) error {
	ring, err := NewRing(u.Seed, u.VirtualNodes, u.Members)
	if err != nil {
		return fmt.Errorf("cluster: fence: %w", err)
	}
	ring.SetEpoch(u.Epoch)
	repl := u.Replication
	if repl < 1 {
		repl = 1
	}
	if repl > maxReplication {
		repl = maxReplication
	}
	next := &fenceState{ring: ring, self: u.You, repl: repl}
	for {
		cur := f.state.Load()
		if cur != nil && cur.ring.Epoch() >= u.Epoch {
			return nil
		}
		if f.state.CompareAndSwap(cur, next) {
			return nil
		}
	}
}

// Check judges one routed request's placement stamp against the
// installed view. Stale stamps fence with CodeRingChanged; stamps from
// a *newer* epoch than ours are admitted — the gateway flips its epoch
// before broadcasting, so during the propagation window its stamps
// legitimately run ahead of this node's view, and the gateway only
// routes keys it believes we own. At matching epochs the key must place
// on this node (any of its R owners) or it is fenced as CodeWrongOwner.
func (f *Fence) Check(routeKey string, ringVersion uint64) cloud.Code {
	st := f.state.Load()
	if st == nil || st.self == "" {
		return cloud.CodeOK
	}
	epoch := st.ring.Epoch()
	if ringVersion < epoch {
		return cloud.CodeRingChanged
	}
	if ringVersion > epoch {
		return cloud.CodeOK
	}
	var owners [maxReplication]string
	n := st.ring.LookupInto(routeKey, owners[:st.repl])
	for i := 0; i < n; i++ {
		if owners[i] == st.self {
			return cloud.CodeOK
		}
	}
	return cloud.CodeWrongOwner
}
