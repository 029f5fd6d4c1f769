package serve

import (
	"errors"
	"fmt"

	"capnn/internal/cloud"
	"capnn/internal/core"
	"capnn/internal/store"
)

// CachedMask is one mask-cache entry in durable form: enough to rebuild
// the entry (and a fresh guard) on restore. Masks persist, compiled
// plans never do (a restored entry's first hit compiles it), and guard
// windows start fresh.
type CachedMask struct {
	// Key is the cache key the entry was resident under. Restore ignores
	// it and derives the key again from Variant and the preferences,
	// exactly as a request derives it.
	Key string
	// Variant is the variant's full name ("CAP'NN-M"); its letter is
	// accepted too.
	Variant     string
	Classes     []int
	Weights     []float64
	Masks       map[int][]bool
	PrunedUnits int
	TotalUnits  int
}

// entryFromCached rebuilds a live cache entry from its durable form,
// with a fresh guard when guarding is enabled. The entry comes from
// outside this process — a checkpoint, possibly of another model — so
// its variant is parsed and its classes are checked against this
// model's before anything indexes by them.
func (s *Server) entryFromCached(cm CachedMask) (*maskEntry, error) {
	v, err := core.ParseVariant(core.Variant(cm.Variant).Letter(), "")
	if err == nil && v == "" {
		err = errors.New("no variant")
	}
	var prefs core.Preferences
	if err == nil {
		prefs, err = core.NewPreferences(cm.Classes, cm.Weights)
	}
	if err == nil {
		err = prefs.Validate(s.sys.Rates.Classes)
	}
	if err != nil {
		return nil, &Error{Code: cloud.CodeBadRequest, Err: fmt.Errorf("entry %q: %w", cm.Key, err)}
	}
	e := &maskEntry{
		key:         prefs.KeyUnder(string(v)),
		variant:     v,
		prefs:       prefs,
		masks:       cm.Masks,
		prunedUnits: cm.PrunedUnits,
		totalUnits:  cm.TotalUnits,
	}
	if e.guard, err = s.newGuard(prefs); err != nil {
		return nil, fmt.Errorf("serve: entry %q: %w", e.key, err)
	}
	return e, nil
}

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
	return txn.PutGob(store.ArtifactMaskCache, s.ExportMasks())
}

// ExportMasks snapshots the resident mask cache in durable form, least
// recently used first, so a restore that installs in order reproduces
// the recency. Guard windows are runtime state and deliberately absent:
// after a restart the traffic mix must be re-observed before any trip
// decision.
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
	return cms
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
