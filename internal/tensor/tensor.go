// Package tensor provides the dense numerical arrays used by the CAP'NN
// neural-network substrate. Tensors are row-major float64 buffers with an
// explicit shape; the package favours predictable, allocation-conscious
// loops over cleverness since everything downstream (training, pruning,
// the hardware simulator) is built on it.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major array of float64 values.
//
// The zero value is an empty tensor. Tensors created by New share no state;
// views created by Reshape share the underlying data.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor with the given shape. All dimensions
// must be positive.
func New(shape ...int) *Tensor {
	n, err := checkShape(shape)
	if err != nil {
		panic(err)
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must equal the shape's element count.
func FromSlice(data []float64, shape ...int) (*Tensor, error) {
	n, err := checkShape(shape)
	if err != nil {
		return nil, err
	}
	if len(data) != n {
		return nil, fmt.Errorf("tensor: data length %d does not match shape %v (%d elems)", len(data), shape, n)
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}, nil
}

// MustFromSlice is FromSlice but panics on error; for tests and literals.
func MustFromSlice(data []float64, shape ...int) *Tensor {
	t, err := FromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

func checkShape(shape []int) (int, error) {
	if len(shape) == 0 {
		return 0, fmt.Errorf("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return 0, fmt.Errorf("tensor: non-positive dimension in shape %v", shape)
		}
		if n > math.MaxInt/d {
			return 0, fmt.Errorf("tensor: shape %v overflows element count", shape)
		}
		n *= d
	}
	return n, nil
}

// Shape returns the tensor's dimensions. The caller must not modify it.
func (t *Tensor) Shape() []int { return t.shape }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying buffer. Mutations are visible to the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx)] }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Reshape returns a view with a new shape sharing the same data.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n, err := checkShape(shape)
	if err != nil {
		return nil, err
	}
	if n != len(t.data) {
		return nil, fmt.Errorf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), shape, n)
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}, nil
}

// MustReshape is Reshape but panics on error.
func (t *Tensor) MustReshape(shape ...int) *Tensor {
	v, err := t.Reshape(shape...)
	if err != nil {
		panic(err)
	}
	return v
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{shape: append([]int(nil), t.shape...), data: make([]float64, len(t.data))}
	copy(c.data, t.data)
	return c
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// String renders a compact description (shape plus a few leading values).
func (t *Tensor) String() string {
	const maxShown = 8
	n := len(t.data)
	if n <= maxShown {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.data)
	}
	return fmt.Sprintf("Tensor%v%v...", t.shape, t.data[:maxShown])
}
