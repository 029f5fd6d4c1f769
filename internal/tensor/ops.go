package tensor

import (
	"fmt"
	"math"
	"sort"
)

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float64) {
	for i := range t.data {
		t.data[i] *= s
	}
}

// matMulKC is the k-dimension cache block of MatMul: the B panel touched
// inside the inner loops is at most matMulKC rows (≤ 256·n floats), small
// enough to stay resident in L1/L2 while every row of A sweeps it.
const matMulKC = 256

// MatMul computes C = A×B for 2-D tensors A [m×k] and B [k×n]. The loop
// is i-k-j with the k dimension blocked: each block of B rows is reused
// across all rows of A before moving on, and four B rows are fused per
// sweep to cut C-row write traffic. Each C element still accumulates its
// products in ascending-k, left-to-right order, so results are
// bit-identical to the naive triple loop.
func MatMul(a, b *Tensor) (*Tensor, error) {
	if a.Dims() != 2 || b.Dims() != 2 {
		return nil, fmt.Errorf("tensor: matmul requires 2-D operands, got %v and %v", a.shape, b.shape)
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return nil, fmt.Errorf("tensor: matmul inner dims differ: %v vs %v", a.shape, b.shape)
	}
	c := New(m, n)
	ad, bd, cd := a.data, b.data, c.data
	for p0 := 0; p0 < k; p0 += matMulKC {
		p1 := p0 + matMulKC
		if p1 > k {
			p1 = k
		}
		for i := 0; i < m; i++ {
			arow := ad[i*k : (i+1)*k]
			crow := cd[i*n : (i+1)*n]
			p := p0
			for ; p+4 <= p1; p += 4 {
				a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					continue
				}
				b0 := bd[p*n : (p+1)*n]
				b1 := bd[(p+1)*n : (p+2)*n]
				b2 := bd[(p+2)*n : (p+3)*n]
				b3 := bd[(p+3)*n : (p+4)*n]
				for j := range crow {
					crow[j] = crow[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
				}
			}
			for ; p < p1; p++ {
				av := arow[p]
				if av == 0 {
					continue
				}
				brow := bd[p*n : (p+1)*n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	}
	return c, nil
}

// ArgTopK returns the indices of the k largest values in vals, in
// descending value order. Ties break toward the lower index. k is clamped
// to len(vals).
func ArgTopK(vals []float64, k int) []int {
	if k > len(vals) {
		k = len(vals)
	}
	if k <= 0 {
		return nil
	}
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })
	return idx[:k]
}

// Argmax returns the index of the largest value in vals (-1 if empty).
func Argmax(vals []float64) int {
	best, bi := math.Inf(-1), -1
	for i, v := range vals {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}
