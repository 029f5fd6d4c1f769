package serve

import (
	"fmt"

	"capnn/internal/store"
)

// SaveState stages the server's durable state into an open store
// transaction: the base model weights, the firing-rate profile, and a
// snapshot of the mask cache. The caller owns the transaction (it may
// add its own artifacts) and commits it. Safe to call while serving:
// nothing writes the base network.
func (s *Server) SaveState(txn *store.Txn) error {
	if err := txn.PutNetwork(store.ArtifactModel, s.sys.Net); err != nil {
		return err
	}
	if err := txn.PutRates(s.sys.Rates); err != nil {
		return err
	}
	// The checkpointed cache is the same transferable form a warm
	// handoff streams (handoff.go): guard windows are runtime state and
	// deliberately absent — after a restart the traffic mix must be
	// re-observed before any trip decision.
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
	return txn.PutGob(store.ArtifactMaskCache, cms)
}

// RestoreState re-installs a checkpointed mask cache from a verified
// generation, so a restarted server answers its first requests from
// warm masks instead of re-running every personalization. Entries get
// fresh guards (empty windows). Call before serving traffic. The model
// and rates artifacts are loaded by the caller when constructing the
// core.System — restoring them into a live system would race serving.
func (s *Server) RestoreState(g *store.Generation) (int, error) {
	if !g.Has(store.ArtifactMaskCache) {
		s.st.noteCheckpoint(g.Number)
		return 0, nil
	}
	var cms []CachedMask
	if err := g.Gob(store.ArtifactMaskCache, &cms); err != nil {
		return 0, err
	}
	restored := 0
	for _, cm := range cms {
		e, err := s.entryFromCached(cm)
		if err != nil {
			return restored, fmt.Errorf("serve: restore: %w", err)
		}
		// Compiled plans are never serialized (CachedMask carries only
		// masks); a restored entry's first hit compiles it.
		s.cache.install(e)
		restored++
	}
	s.st.noteCheckpoint(g.Number)
	return restored, nil
}

// NoteCheckpoint records a checkpoint this server's state was just
// committed as, for the Stats generation/age gauges.
func (s *Server) NoteCheckpoint(generation int) { s.st.noteCheckpoint(generation) }

// NoteCheckpointError records a failed checkpoint attempt so the outage
// is visible in Stats (CheckpointErrors / LastCheckpointError) and in
// remote OpStats scrapes, not just in whatever log line the caller
// printed. The next successful NoteCheckpoint clears the last error.
func (s *Server) NoteCheckpointError(err error) {
	if err == nil {
		return
	}
	s.st.noteCheckpointError(err)
}
