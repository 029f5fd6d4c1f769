package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	"capnn/internal/core"
	"capnn/internal/nn"
)

// maskEntry is one cached personalization: the per-stage prune masks for
// a canonical (variant, preference-key) pair, plus the pruning counts
// for observability. Masks and identity are immutable once published —
// groups forward under them concurrently without copying; the attached
// guard carries its own lock.
type maskEntry struct {
	key                     string
	variant                 core.Variant
	prefs                   core.Preferences
	masks                   map[int][]bool
	prunedUnits, totalUnits int

	// guard is the entry's runtime ε-guard; nil when guarding is
	// disabled or the entry was restored without one.
	guard *entryGuard

	// plan is the compiled network requests under this entry run on
	// (plan.go); nil until Server.planFor builds it. Never serialized.
	plan atomic.Pointer[nn.Compiled]
}

// flight is one in-progress personalization. Joiners block on done and
// then read entry/err; both are written exactly once before done closes.
type flight struct {
	done  chan struct{}
	entry *maskEntry
	err   error
}

// maskCache is an LRU of maskEntries with singleflight fill: N
// concurrent first-requests for one key run the fill function exactly
// once, and the N−1 joiners wait for it. A failed fill is never cached —
// the flight's error fans out to its joiners and the next request for
// that key personalizes again.
type maskCache struct {
	cap int
	st  *stats

	mu      sync.Mutex
	lru     *list.List               // front = most recent; values are *maskEntry
	entries map[string]*list.Element // key → lru element
	flights map[string]*flight
}

func newMaskCache(capacity int, st *stats) *maskCache {
	return &maskCache{
		cap:     capacity,
		st:      st,
		lru:     list.New(),
		entries: map[string]*list.Element{},
		flights: map[string]*flight{},
	}
}

// len reports the resident entry count.
func (c *maskCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// get returns the cached entry for key, or fills it. The bool reports a
// cache hit (false for both fresh fills and singleflight joins). fill
// runs outside the cache lock, so a slow personalization never blocks
// hits on other keys.
func (c *maskCache) get(key string, fill func() (*maskEntry, error)) (*maskEntry, bool, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		// Read the entry before unlocking: install may replace el.Value
		// (heal publishing under the same key) the moment mu is free.
		e := el.Value.(*maskEntry)
		c.mu.Unlock()
		c.st.cacheHit()
		return e, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		c.st.flightShared()
		<-f.done
		return f.entry, false, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()
	c.st.cacheMiss()

	f.entry, f.err = fill()

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		// While our flight was registered no other fill could run for
		// this key, so a plain insert cannot clobber a fresher entry.
		c.entries[key] = c.lru.PushFront(f.entry)
		c.evictOverCapLocked()
	}
	c.mu.Unlock()
	close(f.done)
	return f.entry, false, f.err
}

// install inserts (or replaces) an entry directly, bypassing the fill
// path — used by checkpoint restore and by heals publishing a
// repersonalized entry under the original request key.
func (c *maskCache) install(e *maskEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; ok {
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	c.entries[e.key] = c.lru.PushFront(e)
	c.evictOverCapLocked()
}

// evictOverCapLocked trims the LRU tail past capacity. Caller holds mu.
func (c *maskCache) evictOverCapLocked() {
	for c.lru.Len() > c.cap {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.entries, tail.Value.(*maskEntry).key)
		c.st.evicted()
	}
}

// snapshot returns the resident entries, least recently used first, so
// re-installing them in order reproduces the LRU recency.
func (c *maskCache) snapshot() []*maskEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*maskEntry, 0, c.lru.Len())
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		out = append(out, el.Value.(*maskEntry))
	}
	return out
}
