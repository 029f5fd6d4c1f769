package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
	if x.Dims() != 3 || x.Dim(1) != 3 {
		t.Fatalf("bad dims: %v", x.Shape())
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][]int{{}, {0}, {2, -1}, {3, 0, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", shape)
				}
			}()
			New(shape...)
		}()
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3)
	x.Set(7.5, 1, 2)
	if got := x.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	// Row-major layout: (1,2) is flat index 1*3+2 = 5.
	if x.Data()[5] != 7.5 {
		t.Fatalf("row-major layout violated: %v", x.Data())
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	x := New(2, 2)
	for _, idx := range [][]int{{2, 0}, {0, -1}, {0}, {0, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%v) did not panic", idx)
				}
			}()
			x.At(idx...)
		}()
	}
}

func TestFromSlice(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	x, err := FromSlice(d, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if x.At(1, 0) != 4 {
		t.Fatalf("At(1,0) = %v, want 4", x.At(1, 0))
	}
	// FromSlice wraps without copying.
	d[0] = 99
	if x.At(0, 0) != 99 {
		t.Fatal("FromSlice copied data; want shared buffer")
	}
	if _, err := FromSlice(d, 7); err == nil {
		t.Fatal("FromSlice with wrong length did not error")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := MustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	v, err := x.Reshape(4)
	if err != nil {
		t.Fatal(err)
	}
	v.Set(42, 3)
	if x.At(1, 1) != 42 {
		t.Fatal("Reshape does not share data")
	}
	if _, err := x.Reshape(3); err == nil {
		t.Fatal("Reshape to wrong element count did not error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := MustFromSlice([]float64{1, 2}, 2)
	c := x.Clone()
	c.Set(9, 0)
	if x.At(0) != 1 {
		t.Fatal("Clone shares data with original")
	}
}

func TestZeroFillCopy(t *testing.T) {
	x := New(3)
	x.Fill(2.5)
	if x.Sum() != 7.5 {
		t.Fatalf("Fill/Sum = %v, want 7.5", x.Sum())
	}
	y := x.Clone()
	x.Zero()
	if x.Sum() != 0 {
		t.Fatal("Zero failed")
	}
	if y.Sum() != 7.5 {
		t.Fatal("Zero reached a copy")
	}
}

func TestSameShape(t *testing.T) {
	if !New(2, 3).SameShape(New(2, 3)) {
		t.Fatal("identical shapes reported different")
	}
	if New(2, 3).SameShape(New(3, 2)) {
		t.Fatal("different shapes reported same")
	}
	if New(6).SameShape(New(2, 3)) {
		t.Fatal("different ranks reported same")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3}, 3)
	b := MustFromSlice([]float64{10, 20, 30}, 3)
	if err := a.Add(b); err != nil {
		t.Fatal(err)
	}
	want := []float64{11, 22, 33}
	for i, v := range a.Data() {
		if v != want[i] {
			t.Fatalf("Add: got %v", a.Data())
		}
	}
	if err := a.Sub(b); err != nil {
		t.Fatal(err)
	}
	if a.At(2) != 3 {
		t.Fatalf("Sub: got %v", a.Data())
	}
	a.Scale(2)
	if a.At(0) != 2 {
		t.Fatalf("Scale: got %v", a.Data())
	}
	if err := a.Add(New(5)); err == nil {
		t.Fatal("size-mismatched Add did not error")
	}
}

func TestMaxAbsMax(t *testing.T) {
	x := MustFromSlice([]float64{-5, 2, 4, -1}, 4)
	v, i := x.Max()
	if v != 4 || i != 2 {
		t.Fatalf("Max = %v@%d, want 4@2", v, i)
	}
	if x.AbsMax() != 5 {
		t.Fatalf("AbsMax = %v, want 5", x.AbsMax())
	}
}

func TestMatMulSmall(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := MustFromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{58, 64, 139, 154}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("MatMul = %v, want %v", c.Data(), want)
		}
	}
	if _, err := MatMul(a, a); err == nil {
		t.Fatal("inner-dim mismatch did not error")
	}
	if _, err := MatMul(New(2), b); err == nil {
		t.Fatal("1-D operand did not error")
	}
}

// Property: (A×B)ᵀ-free identity check — matmul against a hand-rolled
// reference implementation on random matrices.
func TestMatMulMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a, b := New(m, k), New(k, n)
		a.FillNormal(rng, 0, 1)
		b.FillNormal(rng, 0, 1)
		c, err := MatMul(a, b)
		if err != nil {
			return false
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for p := 0; p < k; p++ {
					s += a.At(i, p) * b.At(p, j)
				}
				if math.Abs(s-c.At(i, j)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestArgTopK(t *testing.T) {
	vals := []float64{0.1, 0.9, 0.5, 0.9, 0.2}
	got := ArgTopK(vals, 3)
	// Descending, ties toward lower index: 1 (0.9), 3 (0.9), 2 (0.5).
	want := []int{1, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ArgTopK = %v, want %v", got, want)
		}
	}
	if len(ArgTopK(vals, 99)) != len(vals) {
		t.Fatal("ArgTopK did not clamp k")
	}
	if ArgTopK(vals, 0) != nil {
		t.Fatal("ArgTopK(0) should be nil")
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float64{1, 5, 3}) != 1 {
		t.Fatal("Argmax wrong")
	}
	if Argmax(nil) != -1 {
		t.Fatal("Argmax(nil) should be -1")
	}
}

// Property: Add then Sub restores the original tensor exactly for values
// where float64 addition is exact (integers).
func TestAddSubInverseProperty(t *testing.T) {
	f := func(xs []int8, ys []int8) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		if n == 0 {
			return true
		}
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			a.Data()[i] = float64(xs[i])
			b.Data()[i] = float64(ys[i])
		}
		orig := a.Clone()
		if a.Add(b) != nil || a.Sub(b) != nil {
			return false
		}
		for i := range a.Data() {
			if a.Data()[i] != orig.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFillHeVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := New(20000)
	x.FillHe(rng, 50)
	mean := x.Sum() / float64(x.Len())
	varSum := 0.0
	for _, v := range x.Data() {
		varSum += (v - mean) * (v - mean)
	}
	variance := varSum / float64(x.Len())
	want := 2.0 / 50.0
	if math.Abs(variance-want)/want > 0.1 {
		t.Fatalf("He variance = %v, want ≈ %v", variance, want)
	}
}

func TestFillUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := New(1000)
	x.FillUniform(rng, -2, 3)
	for _, v := range x.Data() {
		if v < -2 || v >= 3 {
			t.Fatalf("uniform sample %v outside [-2,3)", v)
		}
	}
}

func TestStringCompact(t *testing.T) {
	s := New(100).String()
	if len(s) > 200 {
		t.Fatalf("String too long: %d chars", len(s))
	}
	if New(2).String() == "" {
		t.Fatal("String empty")
	}
}
