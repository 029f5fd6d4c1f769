package exp

import "math/rand"

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

// sampleClasses draws k distinct classes from [0, numClasses).
func sampleClasses(rng *rand.Rand, numClasses, k int) []int {
	perm := rng.Perm(numClasses)
	out := append([]int(nil), perm[:k]...)
	return out
}

// sweep is every runner's estimate of one configuration: it draws n
// combinations of k classes from rng, in order, calls measure on each
// (with its index), and returns the mean of every value measure returns,
// summed in draw order and then divided by n.
func sweep(rng *rand.Rand, numClasses, k, n int, measure func(combo int, classes []int) ([]float64, error)) ([]float64, error) {
	var mean []float64
	for combo := 0; combo < n; combo++ {
		v, err := measure(combo, sampleClasses(rng, numClasses, k))
		if err != nil {
			return nil, err
		}
		if mean == nil {
			mean = make([]float64, len(v))
		}
		for i, x := range v {
			mean[i] += x
		}
	}
	for i := range mean {
		mean[i] /= float64(n)
	}
	return mean, nil
}
