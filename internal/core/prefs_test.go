package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUniformPreferences(t *testing.T) {
	p := Uniform([]int{3, 1, 4})
	if err := p.Validate(6); err != nil {
		t.Fatal(err)
	}
	for _, w := range p.Weights {
		if math.Abs(w-1.0/3) > 1e-12 {
			t.Fatalf("weights %v not uniform", p.Weights)
		}
	}
	if p.K() != 3 {
		t.Fatalf("K = %d", p.K())
	}
}

func TestWeightedNormalizesSum(t *testing.T) {
	p, err := Weighted([]int{0, 1}, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Weights[0]-0.75) > 1e-12 || math.Abs(p.Weights[1]-0.25) > 1e-12 {
		t.Fatalf("weights %v", p.Weights)
	}
	if err := p.Validate(2); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedRejectsBadInput(t *testing.T) {
	if _, err := Weighted([]int{0}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Weighted([]int{0}, []float64{-1}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := Weighted([]int{0, 1}, []float64{0, 0}); err == nil {
		t.Fatal("zero-sum weights accepted")
	}
	if _, err := Weighted([]int{0}, []float64{math.NaN()}); err == nil {
		t.Fatal("NaN weight accepted")
	}
	if p, err := Weighted([]int{0, 1}, []float64{math.MaxFloat64, math.MaxFloat64}); err == nil {
		t.Fatalf("weights whose sum overflows accepted as %v", p.Weights)
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	cases := []Preferences{
		{},
		{Classes: []int{0, 0}, Weights: []float64{0.5, 0.5}},
		{Classes: []int{9}, Weights: []float64{1}},
		{Classes: []int{-1}, Weights: []float64{1}},
		{Classes: []int{0, 1}, Weights: []float64{0.5, 0.6}},
		{Classes: []int{0}, Weights: []float64{1, 0}},
	}
	for i, p := range cases {
		if err := p.Validate(5); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
}

// A NaN compares false both to 0 and to the sum tolerance, so Validate
// must name non-finite weights rather than rely on those checks.
func TestValidateRejectsNonFiniteWeights(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name    string
		weights []float64
	}{
		{"NaN weight", []float64{nan, 0.5}},
		{"NaN weight beside a valid one", []float64{0.5, nan}},
		{"+Inf weight", []float64{inf, 0.5}},
		{"-Inf weight", []float64{-inf, 1}},
		{"NaN sum (+Inf and -Inf)", []float64{inf, -inf}},
	} {
		p := Preferences{Classes: []int{0, 1}, Weights: c.weights}
		if err := p.Validate(5); err == nil {
			t.Errorf("%s: %v accepted", c.name, c.weights)
		}
	}
}

func TestNormalizeSortsAndRescales(t *testing.T) {
	p := Preferences{Classes: []int{5, 2, 9}, Weights: []float64{2, 1, 1}}
	p.Normalize()
	if p.Classes[0] != 2 || p.Classes[1] != 5 || p.Classes[2] != 9 {
		t.Fatalf("classes %v not sorted", p.Classes)
	}
	// Weight 2 followed class 5 to position 1.
	if math.Abs(p.Weights[1]-0.5) > 1e-12 {
		t.Fatalf("weights %v lost pairing", p.Weights)
	}
	if err := p.Validate(10); err != nil {
		t.Fatal(err)
	}
}

func TestWeightLookup(t *testing.T) {
	p, _ := Weighted([]int{4, 7}, []float64{0.9, 0.1})
	if p.Weight(4) != 0.9 {
		t.Fatalf("Weight(4) = %v", p.Weight(4))
	}
	if p.Weight(5) != 0 {
		t.Fatalf("Weight(5) = %v, want 0 for class outside K", p.Weight(5))
	}
}

func TestMonitorDerivesPreferences(t *testing.T) {
	m, err := NewMonitor(5)
	if err != nil {
		t.Fatal(err)
	}
	// 6× class 2, 3× class 0, 1× class 4.
	for i := 0; i < 6; i++ {
		if err := m.Observe(2); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		m.Observe(0)
	}
	m.Observe(4)
	if m.Total() != 10 {
		t.Fatalf("Total = %d", m.Total())
	}
	p, err := m.Preferences(2)
	if err != nil {
		t.Fatal(err)
	}
	if p.K() != 2 {
		t.Fatalf("K = %d, want 2", p.K())
	}
	// Classes are sorted after Normalize: {0, 2} with weights {1/3, 2/3}.
	if p.Classes[0] != 0 || p.Classes[1] != 2 {
		t.Fatalf("classes %v", p.Classes)
	}
	if math.Abs(p.Weights[1]-2.0/3) > 1e-9 {
		t.Fatalf("weights %v", p.Weights)
	}
}

func TestMonitorSkipsUnseenClasses(t *testing.T) {
	m, _ := NewMonitor(4)
	m.Observe(1)
	p, err := m.Preferences(3)
	if err != nil {
		t.Fatal(err)
	}
	if p.K() != 1 || p.Classes[0] != 1 {
		t.Fatalf("prefs %+v, want only class 1", p)
	}
}

func TestMonitorErrors(t *testing.T) {
	if _, err := NewMonitor(1); err == nil {
		t.Fatal("1-class monitor accepted")
	}
	m, _ := NewMonitor(3)
	if err := m.Observe(7); err == nil {
		t.Fatal("out-of-range observation accepted")
	}
	if _, err := m.Preferences(2); err == nil {
		t.Fatal("empty monitor produced preferences")
	}
	m.Observe(0)
	if _, err := m.Preferences(0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestMonitorReset(t *testing.T) {
	m, _ := NewMonitor(3)
	for i := 0; i < 5; i++ {
		m.Observe(2)
	}
	m.Reset()
	if m.Total() != 0 {
		t.Fatalf("total %d after reset", m.Total())
	}
	for c, n := range m.Counts() {
		if n != 0 {
			t.Fatalf("class %d count %d after reset", c, n)
		}
	}
	// A fresh window accumulates normally.
	m.Observe(1)
	p, err := m.Preferences(2)
	if err != nil {
		t.Fatal(err)
	}
	if p.K() != 1 || p.Classes[0] != 1 {
		t.Fatalf("post-reset prefs %+v reflect pre-reset usage", p)
	}
}

func TestMonitorCountsCopy(t *testing.T) {
	m, _ := NewMonitor(3)
	m.Observe(1)
	c := m.Counts()
	c[1] = 99
	if m.Counts()[1] != 1 {
		t.Fatal("Counts returned live slice")
	}
}

// Property: Weighted always produces weights that sum to 1 for any
// positive input weights.
func TestWeightedNormalizationProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 10 {
			return true
		}
		classes := make([]int, len(raw))
		weights := make([]float64, len(raw))
		sum := 0.0
		for i, r := range raw {
			classes[i] = i
			weights[i] = float64(r) + 1 // positive
			sum += weights[i]
		}
		p, err := Weighted(classes, weights)
		if err != nil {
			return false
		}
		got := 0.0
		for _, w := range p.Weights {
			got += w
		}
		if math.Abs(got-1) > 1e-9 {
			return false
		}
		// Proportions preserved.
		for i := range weights {
			if math.Abs(p.Weights[i]-weights[i]/sum) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Normalize is idempotent.
func TestNormalizeIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		perm := rng.Perm(20)[:n]
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.Float64() + 0.01
		}
		p, err := Weighted(perm, w)
		if err != nil {
			return false
		}
		p.Normalize()
		once := append([]float64(nil), p.Weights...)
		onceC := append([]int(nil), p.Classes...)
		p.Normalize()
		for i := range once {
			// Weights may move by an ulp when re-dividing by a sum that
			// is 1 only up to rounding; classes must be bit-identical.
			if math.Abs(p.Weights[i]-once[i]) > 1e-12 || p.Classes[i] != onceC[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyStableUnderPermutation(t *testing.T) {
	a, err := Weighted([]int{3, 7, 11}, []float64{0.5, 0.3, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Weighted([]int{11, 3, 7}, []float64{0.2, 0.5, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Fatalf("permuted class order fragments the key: %s vs %s", a.Key(), b.Key())
	}
}

func TestKeyStableUnderScalingAndRounding(t *testing.T) {
	a, _ := Weighted([]int{1, 4}, []float64{3, 1})
	b, _ := Weighted([]int{1, 4}, []float64{0.75, 0.25})
	if a.Key() != b.Key() {
		t.Fatal("weight scaling fragments the key")
	}
	// Near-equal weights: differ by float noise far below the 1e-6
	// quantum must collapse to one key.
	c, _ := Weighted([]int{1, 4}, []float64{0.75 + 3e-9, 0.25 - 3e-9})
	if a.Key() != c.Key() {
		t.Fatal("sub-quantum float noise fragments the key")
	}
	// Uniform built two ways.
	u := Uniform([]int{2, 5, 8})
	w, _ := Weighted([]int{8, 2, 5}, []float64{1, 1, 1})
	if u.Key() != w.Key() {
		t.Fatal("uniform-vs-weighted equal usage fragments the key")
	}
}

func TestKeyDistinguishes(t *testing.T) {
	keys := map[string]string{}
	for name, p := range map[string]Preferences{
		"classes{1,2}":   Uniform([]int{1, 2}),
		"classes{1,3}":   Uniform([]int{1, 3}),
		"classes{1,2,3}": Uniform([]int{1, 2, 3}),
		"weights80/20":   {Classes: []int{1, 2}, Weights: []float64{0.8, 0.2}},
		"weights20/80":   {Classes: []int{1, 2}, Weights: []float64{0.2, 0.8}},
	} {
		k := p.Key()
		if prev, dup := keys[k]; dup {
			t.Fatalf("distinct preferences %s and %s collide on %s", prev, name, k)
		}
		keys[k] = name
	}
}

func TestKeyDoesNotMutate(t *testing.T) {
	p, _ := Weighted([]int{9, 2}, []float64{0.6, 0.4})
	classes := append([]int(nil), p.Classes...)
	weights := append([]float64(nil), p.Weights...)
	_ = p.Key()
	for i := range classes {
		if p.Classes[i] != classes[i] || p.Weights[i] != weights[i] {
			t.Fatal("Key mutated the receiver")
		}
	}
}

// TestKeyGolden pins exact key strings. These literals became
// load-bearing when the cluster tier started routing on Key: changing
// the canonicalization or hash silently remaps every key in every
// deployed cluster (and invalidates every persisted mask cache), so
// any such change must fail here first.
func TestKeyGolden(t *testing.T) {
	for name, tc := range map[string]struct {
		p    Preferences
		want string
	}{
		"uniform{0,1}": {Uniform([]int{0, 1}), "3964d3d144685380"},
		"weighted4:3:2:1": {
			Preferences{Classes: []int{0, 1, 2, 3}, Weights: []float64{4, 3, 2, 1}},
			"14ab3998ec795aeb",
		},
		"single{7}": {Uniform([]int{7}), "3be6bcaaf5d13eeb"},
		"empty":     {Preferences{}, "cbf29ce484222325"},
	} {
		if got := tc.p.Key(); got != tc.want {
			t.Errorf("%s: key %s, want %s (canonicalization changed — this remaps every deployed cluster)", name, got, tc.want)
		}
	}
}

// TestKeyQuantizationBoundary pins the 1e-6 quantum: weight deltas well
// below it collapse into one key (float noise must not fragment caches
// or cluster placement), deltas above it separate (genuinely different
// usage mixes must not alias).
func TestKeyQuantizationBoundary(t *testing.T) {
	base, _ := Weighted([]int{0, 1}, []float64{0.25, 0.75})
	below, _ := Weighted([]int{0, 1}, []float64{0.25 + 4e-7, 0.75 - 4e-7})
	if base.Key() != below.Key() {
		t.Error("sub-quantum delta (0.4e-6) fragments the key")
	}
	above, _ := Weighted([]int{0, 1}, []float64{0.25 + 2.1e-6, 0.75 - 2.1e-6})
	if base.Key() == above.Key() {
		t.Error("super-quantum delta (2.1e-6) aliases a different preference vector")
	}
}

// TestKeyNearCollisions: a dense family of nearly identical users —
// adjacent quantization buckets — must all key distinctly.
func TestKeyNearCollisions(t *testing.T) {
	seen := map[string]int{}
	for i := 0; i < 100; i++ {
		p, err := Weighted([]int{3, 5}, []float64{1 + float64(i)*1e-4, 1})
		if err != nil {
			t.Fatal(err)
		}
		k := p.Key()
		if prev, dup := seen[k]; dup {
			t.Fatalf("users %d and %d (Δweight %.1e) collide on %s", prev, i, float64(i-prev)*1e-4, k)
		}
		seen[k] = i
	}
}

// TestKeyDegenerateVectors: Key is total — unvalidated garbage hashes
// to a well-defined, consistent key rather than panicking, and the
// mismatched-length prefix rule is pinned.
func TestKeyDegenerateVectors(t *testing.T) {
	zeroA := Preferences{Classes: []int{1, 2}, Weights: []float64{0, 0}}
	zeroB := Preferences{Classes: []int{2, 1}, Weights: []float64{0, 0}}
	if zeroA.Key() != zeroB.Key() {
		t.Error("all-zero weight vectors with permuted classes should share a key")
	}
	if zeroA.Key() == Uniform([]int{1, 2}).Key() {
		t.Error("all-zero weights alias uniform preferences")
	}
	long := Preferences{Classes: []int{1, 2, 3}, Weights: []float64{0.5, 0.5}}
	short, _ := Weighted([]int{1, 2}, []float64{0.5, 0.5})
	if long.Key() != short.Key() {
		t.Error("length-mismatched vector must hash its consistent prefix")
	}
}
