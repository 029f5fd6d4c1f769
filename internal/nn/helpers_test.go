package nn

import (
	"math"

	"capnn/internal/tensor"
)

// Test helpers: no non-test code needs them.

// NumUnitLayers is the number of unit layers in a VGG network: 13 convs
// plus 3 FCs.
const NumUnitLayers = 16

// absMax returns the maximum absolute value of any element of t.
func absMax(t *tensor.Tensor) float64 {
	m := 0.0
	for _, v := range t.Data() {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// fill sets every element of t to v.
func fill(t *tensor.Tensor, v float64) {
	for i := range t.Data() {
		t.Data()[i] = v
	}
}
