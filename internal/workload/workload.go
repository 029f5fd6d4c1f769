// Package workload synthesizes realistic serving traffic for CAP'NN
// clusters: zipf-distributed user popularity over arbitrarily large user
// populations, per-user class preferences correlated through the dataset's
// confusion groups, and preference drift over time (diurnal phases, bursty
// episodes, sudden skew flips).
//
// The model is seeded and counter-based: event i is a pure function of
// (Config, i), derived by hashing the seed with the event index and the
// per-user epoch. Nothing is stored per user, so a trace over millions of
// users streams in O(1) memory, any prefix is reproducible bit-for-bit,
// and generation parallelizes trivially (shard the index space; every
// shard assignment yields the same trace).
//
// Drift separates what a user *claims* from what they *do*: the claimed
// preference vector (what goes on the wire and keys the mask cache) is
// piecewise-constant per flip epoch and catches up to behavior only after
// a configurable lag, while the drawn class follows the continuously
// drifting actual mix. During the lag the server observes off-preference
// traffic — the skew window the serving tier's ε-guard must catch.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"capnn/internal/core"
)

// Config parameterizes a workload model. The zero value is not usable;
// see NewModel for defaults applied to zero fields.
type Config struct {
	// Users is the population size. Popularity is zipf-distributed:
	// user 0 is the hottest, user Users-1 the coldest.
	Users int
	// Classes is the model's output class count.
	Classes int
	// Groups maps class → confusion group (e.g. data.SynthConfig.ClassGroups).
	// Preferences concentrate within a user's home group, mirroring how
	// real users care about semantically related classes. Nil puts every
	// class in its own group (uncorrelated preferences).
	Groups []int
	// ZipfS is the zipf skew exponent (>1; larger = more head-heavy).
	// Defaults to 1.2.
	ZipfS float64
	// MinK, MaxK bound the per-user preference breadth |K|.
	// Default 2..4.
	MinK, MaxK int
	// Drift configures the preference drift processes. The zero value is
	// a stationary workload: every user keeps one preference vector
	// forever.
	Drift DriftConfig
	// Seed drives all randomness. Equal configs ⇒ identical traces.
	Seed int64
}

func (c *Config) withDefaults() {
	if c.ZipfS == 0 {
		c.ZipfS = 1.2
	}
	if c.MinK == 0 {
		c.MinK = 2
	}
	if c.MaxK == 0 {
		c.MaxK = 4
	}
	if c.MaxK > c.Classes {
		c.MaxK = c.Classes
	}
	if c.MinK > c.MaxK {
		c.MinK = c.MaxK
	}
	c.Drift.withDefaults()
}

func (c Config) validate() error {
	if c.Users < 1 {
		return fmt.Errorf("workload: need ≥1 user, got %d", c.Users)
	}
	if c.Classes < 2 {
		return fmt.Errorf("workload: need ≥2 classes, got %d", c.Classes)
	}
	if c.Groups != nil && len(c.Groups) != c.Classes {
		return fmt.Errorf("workload: %d group entries for %d classes", len(c.Groups), c.Classes)
	}
	if !(c.ZipfS > 1 && c.ZipfS <= math.MaxFloat64) { // NaN and +Inf fail too: rand.Zipf would never return
		return fmt.Errorf("workload: zipf exponent must be finite and >1, got %v", c.ZipfS)
	}
	if c.MinK < 1 || c.MinK > c.MaxK {
		return fmt.Errorf("workload: breadth bounds [%d,%d] invalid", c.MinK, c.MaxK)
	}
	return c.Drift.validate()
}

// Event is one trace entry: user u arrives at virtual time Index claiming
// Prefs (the wire preference vector, which keys the mask cache) and asks
// for an input of class Class (drawn from the user's *actual* current
// mix, which may have drifted ahead of the claim).
type Event struct {
	// Index is the event's position in the trace (its virtual time).
	Index uint64
	// User identifies the originating user (0 = most popular).
	User uint64
	// Prefs is the claimed preference vector, normalized.
	Prefs core.Preferences
	// Class is the true class of the requested input.
	Class int
	// Drifted reports that the user's behavior has flipped ahead of the
	// claimed preferences — the request is drawn from a newer epoch than
	// Prefs describes, so the server likely sees off-preference traffic.
	Drifted bool
}

// Model is an immutable, seeded workload. Safe for concurrent use.
type Model struct {
	cfg    Config
	groups [][]int // group → member classes
	// rngs recycles the random streams events draw from (*eventRand): a
	// lazily seeded source (source.go) yields the sequence a fresh
	// rand.NewSource would, without allocating or filling its 607 words
	// per draw.
	rngs sync.Pool
	// bases memoises userBase, a pure function of (user, epoch), in a
	// direct-mapped table: each slot holds the last pair hashed to it, and
	// a miss recomputes the base and takes the slot.
	bases [baseSlots]atomic.Pointer[baseEntry]
}

// NewModel validates cfg (after applying defaults to zero fields) and
// builds a model.
func NewModel(cfg Config) (*Model, error) {
	cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	groupOf := cfg.Groups
	if groupOf == nil {
		groupOf = make([]int, cfg.Classes)
		for c := range groupOf {
			groupOf[c] = c
		}
	}
	ng := 0
	for _, g := range groupOf {
		if g < 0 {
			return nil, fmt.Errorf("workload: negative group id %d", g)
		}
		if g+1 > ng {
			ng = g + 1
		}
	}
	m := &Model{cfg: cfg, groups: make([][]int, ng)}
	for c, g := range groupOf {
		m.groups[g] = append(m.groups[g], c)
	}
	// Drop empty groups so every draw lands on a populated one.
	nonEmpty := m.groups[:0]
	for _, g := range m.groups {
		if len(g) > 0 {
			nonEmpty = append(nonEmpty, g)
		}
	}
	m.groups = nonEmpty
	m.rngs.New = func() any {
		r := rand.New(newLazySource(0))
		return &eventRand{Rand: r, zipf: rand.NewZipf(r, cfg.ZipfS, 1, uint64(cfg.Users-1))}
	}
	return m, nil
}

// At returns trace event i. It is a pure function of (Config, i): calling
// it from any goroutine, in any order, for any partition of the index
// space yields the same trace.
func (m *Model) At(i uint64) Event {
	rng := m.seeded(seedFor(m.cfg.Seed, tagEvent, i))
	defer m.rngs.Put(rng)
	user := m.pickUser(rng)

	actualEpoch := m.epochOf(user, i)
	claimedEpoch := m.claimedEpochOf(user, i)
	claimed := m.userBase(user, claimedEpoch)

	// The drawn class follows the *actual* mix: the current epoch's base
	// preferences modulated by the continuous drift processes.
	actual := m.userBase(user, actualEpoch)
	weights := m.driftedWeights(user, i, actual)
	class := actual.classes[drawIndex(rng.Rand, weights)]

	prefs, err := core.Weighted(claimed.classes, claimed.weights)
	if err != nil { // unreachable: bases always carry positive weights
		prefs = core.Uniform(claimed.classes)
	}
	prefs.Normalize()
	return Event{
		Index:   i,
		User:    user,
		Prefs:   prefs,
		Class:   class,
		Drifted: actualEpoch != claimedEpoch,
	}
}

// userBase is a user's base preference set for one flip epoch: a breadth
// drawn from [MinK,MaxK], classes drawn mostly from a home confusion
// group, and descending zipf-ish base weights.
type userBase struct {
	classes []int
	weights []float64 // parallel to classes, sums to 1
	phase   float64   // diurnal phase offset ∈ [0,1)
}

// baseSlots is the size of Model.bases: a few times the users a zipf
// trace's head keeps returning.
const baseSlots = 1024

type baseEntry struct {
	user, epoch uint64
	base        userBase // read-only once published
}

// userBase returns user's base for epoch from the memo table, drawing it
// on a miss.
func (m *Model) userBase(user, epoch uint64) userBase {
	slot := &m.bases[mix(user, epoch)%baseSlots]
	if e := slot.Load(); e != nil && e.user == user && e.epoch == epoch {
		return e.base
	}
	b := m.drawUserBase(user, epoch)
	slot.Store(&baseEntry{user: user, epoch: epoch, base: b})
	return b
}

func (m *Model) drawUserBase(user, epoch uint64) userBase {
	rng := m.seeded(seedFor(m.cfg.Seed, tagUser, user, epoch))
	defer m.rngs.Put(rng)
	home := rng.Intn(len(m.groups))
	k := m.cfg.MinK
	if m.cfg.MaxK > m.cfg.MinK {
		k += rng.Intn(m.cfg.MaxK - m.cfg.MinK + 1)
	}
	// Candidate order: home-group classes shuffled first, the rest after,
	// so preferences concentrate in one confusion group and spill over
	// only when the group is smaller than the breadth.
	pool := make([]int, 0, m.cfg.Classes)
	pool = append(pool, m.groups[home]...)
	rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
	spill := len(pool)
	for g, classes := range m.groups {
		if g != home {
			pool = append(pool, classes...)
		}
	}
	rest := pool[spill:]
	rng.Shuffle(len(rest), func(a, b int) { rest[a], rest[b] = rest[b], rest[a] })
	if k > len(pool) {
		k = len(pool)
	}
	b := userBase{classes: pool[:k:k], weights: make([]float64, k), phase: rng.Float64()}
	sum := 0.0
	for j := range b.weights {
		b.weights[j] = math.Pow(float64(j+1), -1.2)
		sum += b.weights[j]
	}
	for j := range b.weights {
		b.weights[j] /= sum
	}
	return b
}

// epochOf is user's flip epoch at virtual time t. Users flip at staggered
// offsets so the population never flips in lockstep.
func (m *Model) epochOf(user, t uint64) uint64 {
	fe := m.cfg.Drift.FlipEvery
	if fe == 0 {
		return 0
	}
	off := mix(uint64(m.cfg.Seed), tagFlipOffset, user) % fe
	return (t + off) / fe
}

// claimedEpochOf lags epochOf by Drift.Lag: after a behavior flip the
// wire preferences keep describing the previous epoch for Lag events.
func (m *Model) claimedEpochOf(user, t uint64) uint64 {
	if m.cfg.Drift.FlipEvery == 0 {
		return 0
	}
	lag := m.cfg.Drift.Lag
	if t < lag {
		t = 0
	} else {
		t -= lag
	}
	return m.epochOf(user, t)
}

// driftedWeights applies the continuous drift processes (diurnal
// modulation, bursty episodes) to a base preference mix. The result sums
// to 1.
func (m *Model) driftedWeights(user, t uint64, b userBase) []float64 {
	d := m.cfg.Drift
	w := append([]float64(nil), b.weights...)
	if d.DiurnalPeriod > 0 && d.DiurnalAmp > 0 {
		k := float64(len(w))
		for j := range w {
			ph := 2 * math.Pi * (float64(t)/float64(d.DiurnalPeriod) + b.phase + float64(j)/k)
			w[j] *= 1 + d.DiurnalAmp*math.Sin(ph)
			if w[j] < 1e-9 {
				w[j] = 1e-9
			}
		}
	}
	if d.BurstLen > 0 && d.BurstProb > 0 {
		interval := t / d.BurstLen
		h := mix(uint64(m.cfg.Seed), tagBurst, user, interval)
		if float64(h%1_000_000)/1e6 < d.BurstProb {
			// The episode concentrates BurstWeight of the mass on one
			// in-set class for the whole interval.
			hot := int((h >> 24) % uint64(len(w)))
			sum := 0.0
			for _, x := range w {
				sum += x
			}
			for j := range w {
				w[j] *= (1 - d.BurstWeight) / sum
			}
			w[hot] += d.BurstWeight
		}
	}
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	for j := range w {
		w[j] /= sum
	}
	return w
}
