package workload

import "math/rand"

// Domain-separation tags keep the independent random streams (event
// draws, per-user-epoch bases, flip offsets, burst episodes) from ever
// colliding in the hash space.
const (
	tagEvent      = 0xE1
	tagUser       = 0xE2
	tagFlipOffset = 0xE3
	tagBurst      = 0xE4
)

// splitmix advances and finalizes one step of the splitmix64 sequence —
// a cheap, well-mixed 64-bit permutation.
func splitmix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// mix folds the values into one well-mixed 64-bit hash. Feeding each
// input through a full splitmix step keeps counter-like inputs (event
// index, user id, epoch) from producing correlated outputs.
func mix(vs ...uint64) uint64 {
	h := uint64(0x8A5CD789635D2DFF)
	for _, v := range vs {
		h = splitmix(h + v)
	}
	return h
}

// seedFor derives a math/rand seed for one (tag, values...) stream.
func seedFor(seed int64, tag uint64, vs ...uint64) int64 {
	h := splitmix(uint64(seed) + tag)
	for _, v := range vs {
		h = splitmix(h + v)
	}
	return int64(h)
}

// eventRand is one pooled random stream with the model's zipf sampler
// bound to it (a Zipf keeps no state of its own between draws).
type eventRand struct {
	*rand.Rand
	zipf *rand.Zipf
}

// seeded returns a pooled stream re-seeded to seed in O(1) — its lazy
// source computes each word of its state when a draw first reads it —
// giving the sequence rand.New(rand.NewSource(seed)) would, bit for bit.
// Return it to m.rngs.
func (m *Model) seeded(seed int64) *eventRand {
	r := m.rngs.Get().(*eventRand)
	r.Seed(seed)
	return r
}

// pickUser draws a user id zipf-distributed by popularity rank: id 0 is
// the hottest user.
func (m *Model) pickUser(rng *eventRand) uint64 {
	if m.cfg.Users == 1 {
		return 0
	}
	return rng.zipf.Uint64()
}

// drawIndex samples an index from a normalized weight vector.
func drawIndex(rng *rand.Rand, weights []float64) int {
	r := rng.Float64()
	acc := 0.0
	for j, w := range weights {
		acc += w
		if r < acc {
			return j
		}
	}
	return len(weights) - 1
}
