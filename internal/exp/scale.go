package exp

import (
	"math/rand"
	"os"
	"strconv"
)

// Scale controls how much statistical averaging the runners do. The paper
// averages over 200 random class combinations per configuration; that is
// out of reach for a 1-core pure-Go run, so the default is smaller and
// every report states the combo count used.
type Scale struct {
	// Combos is the number of random class combinations averaged per
	// configuration.
	Combos int
	// Seed drives combination sampling.
	Seed int64
}

// DefaultScale is used by the CLI harness.
func DefaultScale() Scale { return Scale{Combos: 6, Seed: 1} }

// FromEnv honours CAPNN_COMBOS / CAPNN_SEED overrides so a user can dial
// the averaging up toward the paper's 200 without editing code.
func (s Scale) FromEnv() Scale {
	if v := os.Getenv("CAPNN_COMBOS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			s.Combos = n
		}
	}
	if v := os.Getenv("CAPNN_SEED"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			s.Seed = n
		}
	}
	return s
}

// sampleClasses draws k distinct classes from [0, numClasses).
func sampleClasses(rng *rand.Rand, numClasses, k int) []int {
	perm := rng.Perm(numClasses)
	out := append([]int(nil), perm[:k]...)
	return out
}
