package tensor

import (
	"math"
	"math/rand"
)

// Test helpers: no non-test code needs them.

// AbsMax returns the maximum absolute value of any element.
func (t *Tensor) AbsMax() float64 {
	m := 0.0
	for _, v := range t.data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// FillUniform fills t with samples from U[lo, hi) using rng.
func (t *Tensor) FillUniform(rng *rand.Rand, lo, hi float64) {
	for i := range t.data {
		t.data[i] = lo + (hi-lo)*rng.Float64()
	}
}
