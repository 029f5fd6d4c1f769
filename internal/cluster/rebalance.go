package cluster

import (
	"fmt"
	"sync"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/core"
	"capnn/internal/serve"
)

// Warm handoff and ring broadcast: the gateway-mediated half of a
// membership change. Before an epoch flips, each source node's mask
// cache is exported, filtered down to the keys whose primary owner
// changes between the outgoing and incoming rings (bounded key
// movement — unmoved vnode ranges transfer nothing), and imported into
// each key's new owner. The whole transfer runs under one deadline and
// is strictly best-effort: any failure is counted, logged, and
// abandoned, and the epoch flips anyway — a key that missed its warm
// copy repersonalizes on first touch (a cache miss), it never errors.

// handoffChunk bounds one OpCacheImport frame's entry count so the
// gob-encoded payload stays under the serve side's request size cap.
const handoffChunk = 32

// cachedRouteKey maps an exported cache entry to the placement key the
// gateway routes its requests under. Preferences.Key self-normalizes, so
// the entry's stored vector hashes identically to the client's wire form.
func cachedRouteKey(cm serve.CachedMask) string {
	return routeKey(core.Variant(cm.Variant), core.Preferences{Classes: cm.Classes, Weights: cm.Weights})
}

// handoff streams warm mask-cache state from sources to the nodes that
// take over their keys when old is replaced by next. reason labels the
// metrics and events ("join" / "leave"). Never returns an error: every
// failure degrades to a cold cache on the new owner, by design.
func (g *Gateway) handoff(old, next *Ring, sources []string, reason string) {
	deadline := time.Now().Add(g.cfg.HandoffTimeout)
	for _, src := range sources {
		if time.Now().After(deadline) {
			g.st.handoffFailed(reason, src, "handoff deadline exhausted before export")
			continue
		}
		cms, err := g.exportMasks(src, deadline)
		if err != nil {
			g.st.handoffFailed(reason, src, fmt.Sprintf("export: %v", err))
			continue
		}
		// Bounded movement filter: an entry moves only when its primary
		// owner changes across the flip, and only to that new owner.
		byDest := map[string][]serve.CachedMask{}
		for _, cm := range cms {
			rk := cachedRouteKey(cm)
			dest := next.Owner(rk)
			if dest == "" || dest == src || dest == old.Owner(rk) {
				continue
			}
			byDest[dest] = append(byDest[dest], cm)
		}
		for dest, moved := range byDest {
			g.st.keysMoved(reason, len(moved))
			imported, err := g.importMasks(dest, moved, deadline)
			if imported > 0 {
				g.st.handoffEntries(reason, imported)
			}
			if err != nil {
				g.st.handoffFailed(reason, dest, fmt.Sprintf("import from %s: %v", src, err))
				continue
			}
			g.events.Record("handoff", dest,
				fmt.Sprintf("%s: %d keys from %s, %d installed", reason, len(moved), src, imported), nil)
		}
	}
}

// exportMasks pulls one node's full cache snapshot (OpCacheExport).
func (g *Gateway) exportMasks(addr string, deadline time.Time) ([]serve.CachedMask, error) {
	ns := g.node(addr)
	if ns == nil {
		return nil, fmt.Errorf("no node state for %s", addr)
	}
	req := serve.WireRequest{Version: cloud.ProtocolVersion, Op: serve.OpCacheExport}
	resp, err := g.attempt(ns, &req, deadline)
	if err != nil {
		return nil, err
	}
	if resp.Code != cloud.CodeOK {
		return nil, fmt.Errorf("[%s] %s", resp.Code, resp.Err)
	}
	var cms []serve.CachedMask
	if len(resp.Payload) == 0 {
		return nil, nil
	}
	if err := serve.DecodePayload(resp.Payload, &cms); err != nil {
		return nil, fmt.Errorf("decode export: %w", err)
	}
	return cms, nil
}

// importMasks pushes moved entries to their new owner in size-capped
// chunks (OpCacheImport), returning how many the node installed.
// Chunks sent before a failure stay installed — partial warmth beats
// none.
func (g *Gateway) importMasks(addr string, cms []serve.CachedMask, deadline time.Time) (int, error) {
	ns := g.node(addr)
	if ns == nil {
		return 0, fmt.Errorf("no node state for %s", addr)
	}
	imported := 0
	for start := 0; start < len(cms); start += handoffChunk {
		if time.Now().After(deadline) {
			return imported, fmt.Errorf("handoff deadline exhausted after %d entries", imported)
		}
		end := start + handoffChunk
		if end > len(cms) {
			end = len(cms)
		}
		p, err := serve.EncodePayload(cms[start:end])
		if err != nil {
			return imported, fmt.Errorf("encode import: %w", err)
		}
		req := serve.WireRequest{Version: cloud.ProtocolVersion, Op: serve.OpCacheImport, Payload: p}
		resp, err := g.attempt(ns, &req, deadline)
		if err != nil {
			return imported, err
		}
		if resp.Code != cloud.CodeOK {
			return imported + resp.Batch, fmt.Errorf("[%s] %s", resp.Code, resp.Err)
		}
		imported += resp.Batch
	}
	return imported, nil
}

// broadcastRing pushes the current membership view to every member
// (OpRingUpdate) so their fences track the new epoch. Concurrent,
// bounded by ProbeTimeout per node, and deliberately decoupled from
// health: a node that misses the broadcast simply keeps an older view —
// its fence admits newer-epoch stamps, so nothing breaks — and failures
// surface as events, not breaker trips.
func (g *Gateway) broadcastRing(ring *Ring) {
	upd := serve.RingUpdate{
		Epoch:        ring.Epoch(),
		Seed:         ring.Seed(),
		VirtualNodes: ring.VirtualNodes(),
		Replication:  g.cfg.Replication,
		Members:      append([]string(nil), ring.Nodes()...),
	}
	var wg sync.WaitGroup
	for _, addr := range ring.Nodes() {
		ns := g.node(addr)
		if ns == nil {
			continue
		}
		wg.Add(1)
		go func(addr string, ns *nodeState) {
			defer wg.Done()
			u := upd
			u.You = addr
			p, err := serve.EncodePayload(u)
			if err != nil {
				g.events.Record("ring-broadcast-failed", addr, err.Error(), nil)
				return
			}
			req := &serve.WireRequest{Version: cloud.ProtocolVersion, Op: serve.OpRingUpdate, Payload: p}
			resp, err := ns.wire.Do(req, time.Now().Add(g.cfg.ProbeTimeout))
			if err != nil {
				g.events.Record("ring-broadcast-failed", addr, err.Error(), nil)
				return
			}
			if resp.Code != cloud.CodeOK {
				g.events.Record("ring-broadcast-failed", addr, fmt.Sprintf("[%s] %s", resp.Code, resp.Err), nil)
			}
		}(addr, ns)
	}
	wg.Wait()
}
