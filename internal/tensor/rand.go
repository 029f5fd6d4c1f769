package tensor

import (
	"math"
	"math/rand"
)

// FillNormal fills t with samples from N(mean, std²) using rng.
func (t *Tensor) FillNormal(rng *rand.Rand, mean, std float64) {
	for i := range t.data {
		t.data[i] = mean + std*rng.NormFloat64()
	}
}

// FillHe fills t with Kaiming-He initialization for a layer with the given
// fan-in: N(0, sqrt(2/fanIn)²). This is the standard init for ReLU networks
// and is what keeps the deep VGG-style stack trainable from scratch.
func (t *Tensor) FillHe(rng *rand.Rand, fanIn int) {
	std := math.Sqrt(2.0 / float64(fanIn))
	t.FillNormal(rng, 0, std)
}
