package serve

import (
	"fmt"

	"capnn/internal/cloud"
	"capnn/internal/core"
)

// Warm mask-cache handoff: when cluster membership changes, the keys
// that move to a new owner would cold-start there — every affected user
// pays a full repersonalization. Instead the gateway exports the
// outgoing owner's cache (OpCacheExport), filters it down to the moved
// key range, and imports it into the incoming owner (OpCacheImport)
// before the ring epoch flips. CachedMask is the transferable form —
// the same shape checkpoints persist: masks travel, compiled plans
// never do (an imported entry's first hit compiles it), and guard windows
// start fresh (the new owner must observe its own traffic mix before
// any trip decision).

// CachedMask is one mask-cache entry in durable/transferable form:
// enough to rebuild the entry (and a fresh guard) on restore or import.
type CachedMask struct {
	Key         string
	Variant     string
	Classes     []int
	Weights     []float64
	Masks       map[int][]bool
	PrunedUnits int
	TotalUnits  int
}

// entryFromCached rebuilds a live cache entry from its transferable
// form, with a fresh guard when guarding is enabled.
func (s *Server) entryFromCached(cm CachedMask) (*maskEntry, error) {
	prefs, err := core.Weighted(cm.Classes, cm.Weights)
	if err == nil {
		prefs.Normalize()
		// The entry comes from outside this process — a peer or a
		// checkpoint, possibly of another model — so its classes are
		// checked against this model's before anything indexes by them.
		err = prefs.Validate(s.sys.Rates.Classes)
	}
	if err != nil {
		return nil, &Error{Code: cloud.CodeBadRequest, Err: fmt.Errorf("entry %q: %w", cm.Key, err)}
	}
	e := &maskEntry{
		key:         cm.Key,
		variant:     core.Variant(cm.Variant),
		prefs:       prefs,
		masks:       cm.Masks,
		prunedUnits: cm.PrunedUnits,
		totalUnits:  cm.TotalUnits,
	}
	if e.guard, err = s.newGuard(prefs); err != nil {
		return nil, fmt.Errorf("serve: entry %q: %w", cm.Key, err)
	}
	return e, nil
}

// ExportMasks snapshots the resident mask cache in transferable form,
// least recently used first (so an importer that re-installs in order
// reproduces the recency).
func (s *Server) ExportMasks() []CachedMask {
	entries := s.cache.snapshot()
	cms := make([]CachedMask, 0, len(entries))
	for _, e := range entries {
		cms = append(cms, CachedMask{
			Key:         e.key,
			Variant:     string(e.variant),
			Classes:     e.prefs.Classes,
			Weights:     e.prefs.Weights,
			Masks:       e.masks,
			PrunedUnits: e.prunedUnits,
			TotalUnits:  e.totalUnits,
		})
	}
	s.st.handoffExported(len(cms))
	return cms
}

// ImportMasks installs transferred entries into the cache and returns
// how many were installed. Keys the cache already holds are kept — the
// resident entry may be fresher (a heal published against observed
// traffic) than the mover's copy. Imported entries are plan-less until
// their first hit compiles them. A malformed entry aborts the import
// with an error; entries installed before it stay installed.
func (s *Server) ImportMasks(cms []CachedMask) (int, error) {
	imported := 0
	for _, cm := range cms {
		e, err := s.entryFromCached(cm)
		if err != nil {
			return imported, err
		}
		if s.cache.installIfAbsent(e) {
			imported++
		}
	}
	if imported > 0 {
		s.st.handoffImported(imported)
		s.events.Record("handoff", "", fmt.Sprintf("imported %d warm entries", imported), nil)
	}
	return imported, nil
}

// handleCacheExport answers OpCacheExport with the gob-encoded cache
// snapshot in the response payload.
func (s *Server) handleCacheExport() *WireResponse {
	cms := s.ExportMasks()
	p, err := EncodePayload(cms)
	if err != nil {
		return Refuse(cloud.CodeInternal, "encode cache export: %v", err)
	}
	return &WireResponse{Version: cloud.ProtocolVersion, Code: cloud.CodeOK, Batch: len(cms), Payload: p}
}

// handleCacheImport decodes and installs an OpCacheImport payload; the
// response's Batch reports the installed count.
func (s *Server) handleCacheImport(payload []byte) *WireResponse {
	var cms []CachedMask
	if err := DecodePayload(payload, &cms); err != nil {
		return Refuse(cloud.CodeBadRequest, "decode cache import: %v", err)
	}
	n, err := s.ImportMasks(cms)
	if err != nil {
		resp := Refuse(cloud.CodeInternal, "import after %d entries: %v", n, err)
		resp.Batch = n
		return resp
	}
	return &WireResponse{Version: cloud.ProtocolVersion, Code: cloud.CodeOK, Batch: n}
}

// handleRingUpdate decodes an OpRingUpdate payload and hands it to the
// installed ring-update handler. A node without one — a standalone
// server no cluster supervises — acknowledges and ignores the view.
func (s *Server) handleRingUpdate(payload []byte) *WireResponse {
	var upd RingUpdate
	if err := DecodePayload(payload, &upd); err != nil {
		return Refuse(cloud.CodeBadRequest, "decode ring update: %v", err)
	}
	if h := s.ringUpdateFn(); h != nil {
		if err := h(upd); err != nil {
			return Refuse(cloud.CodeInternal, "ring update: %v", err)
		}
		s.events.Record("ring-changed", "", fmt.Sprintf("installed epoch %d (%d members)", upd.Epoch, len(upd.Members)), nil)
	}
	return &WireResponse{Version: cloud.ProtocolVersion, Code: cloud.CodeOK}
}
