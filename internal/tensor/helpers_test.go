package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Test helpers: no non-test code needs them.

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx)] = v }

// Sub computes t -= o elementwise.
func (t *Tensor) Sub(o *Tensor) error {
	if len(o.data) != len(t.data) {
		return fmt.Errorf("tensor: sub size mismatch %v vs %v", o.shape, t.shape)
	}
	for i, v := range o.data {
		t.data[i] -= v
	}
	return nil
}

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

// Add computes t += o elementwise. Shapes must match in element count.
func (t *Tensor) Add(o *Tensor) error {
	if len(o.data) != len(t.data) {
		return fmt.Errorf("tensor: add size mismatch %v vs %v", o.shape, t.shape)
	}
	for i, v := range o.data {
		t.data[i] += v
	}
	return nil
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Max returns the maximum element and its flat index. Panics on empty data.
func (t *Tensor) Max() (float64, int) {
	best, bi := math.Inf(-1), -1
	for i, v := range t.data {
		if v > best {
			best, bi = v, i
		}
	}
	return best, bi
}
