package firing

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomRates(rng *rand.Rand, stages []int, units, classes int) *Rates {
	r := &Rates{Classes: classes, Layers: map[int]*LayerRates{}}
	for _, s := range stages {
		lr := &LayerRates{Stage: s, Units: units, Classes: classes, F: make([]float64, units*classes)}
		for i := range lr.F {
			lr.F[i] = rng.Float64()
		}
		r.Layers[s] = lr
	}
	return r
}

func TestPackUnpackWithinOneBin(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := randomRates(rng, []int{3, 1, 2}, 7, 5)
	p, err := Pack(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	u, err := p.Unpack()
	if err != nil {
		t.Fatal(err)
	}
	halfBin := 0.5 / 7.0
	for s, lr := range r.Layers {
		ul := u.Layers[s]
		if ul == nil {
			t.Fatalf("stage %d missing after unpack", s)
		}
		for i, v := range lr.F {
			if math.Abs(ul.F[i]-v) > halfBin+1e-12 {
				t.Fatalf("stage %d entry %d: %v → %v", s, i, v, ul.F[i])
			}
		}
	}
}

func TestPackedBytesAreDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := randomRates(rng, []int{0}, 100, 10)
	p, err := Pack(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 1000 codes × 3 bits = 375 bytes, not 1000.
	if p.TotalBytes() != 375 {
		t.Fatalf("TotalBytes = %d, want 375", p.TotalBytes())
	}
}

func TestPackValidatesBits(t *testing.T) {
	r := &Rates{Classes: 1, Layers: map[int]*LayerRates{0: {Units: 1, Classes: 1, F: []float64{0.5}}}}
	if _, err := Pack(r, 0); err == nil {
		t.Fatal("bits=0 accepted")
	}
	if _, err := Pack(r, 9); err == nil {
		t.Fatal("bits=9 accepted")
	}
}

func TestUnpackRejectsTruncatedData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := randomRates(rng, []int{0}, 8, 4)
	p, _ := Pack(r, 3)
	p.Layers[0].Data = p.Layers[0].Data[:2]
	if _, err := p.Unpack(); err == nil {
		t.Fatal("truncated payload accepted")
	}
	p2, _ := Pack(r, 3)
	p2.Bits = 0
	if _, err := p2.Unpack(); err == nil {
		t.Fatal("bits=0 unpack accepted")
	}
}

// malformedPacked are payloads whose shapes Unpack must refuse. The first
// two wrap Units×Classes×Bits past the length check — to 0, and through a
// negative Units×Classes — and would then size a slice from the wrapped
// product.
func malformedPacked() []struct {
	name string
	p    *PackedRates
} {
	return []struct {
		name string
		p    *PackedRates
	}{
		{"units×classes×bits wraps to 0", &PackedRates{Classes: 1 << 30, Bits: 8, Layers: []PackedLayer{{Units: 1 << 31, Classes: 1 << 30, Data: make([]byte, 8)}}}},
		{"units×classes wraps negative", &PackedRates{Classes: 1 << 31, Bits: 8, Layers: []PackedLayer{{Units: 1 << 32, Classes: 1 << 31, Data: make([]byte, 8)}}}},
		{"negative units and classes", &PackedRates{Classes: 2, Bits: 3, Layers: []PackedLayer{{Units: -1, Classes: -1, Data: make([]byte, 8)}}}},
		{"layer classes differ", &PackedRates{Classes: 2, Bits: 3, Layers: []PackedLayer{{Units: 1, Classes: 3, Data: make([]byte, 8)}}}},
		{"no classes", &PackedRates{Classes: 0, Bits: 3}},
		{"confusion rows missing", &PackedRates{Classes: 2, Bits: 3, Confusion: [][]int{{2, 1}}}},
		{"confusion rows ragged", &PackedRates{Classes: 2, Bits: 3, Confusion: [][]int{{2, 1}, {3}}}},
		{"confusion row empty", &PackedRates{Classes: 2, Bits: 3, Confusion: [][]int{{2, 1}, {}}}},
		{"confusion count negative", &PackedRates{Classes: 2, Bits: 3, Confusion: [][]int{{2, -1}, {0, 3}}}},
	}
}

// Each malformed payload is an error, never a panic, whether unpacked as
// built or after the gob round trip.
func TestUnpackRejectsMalformedShapes(t *testing.T) {
	for _, tc := range malformedPacked() {
		if _, err := tc.p.Unpack(); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(tc.p); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadPacked(&buf)
		if err != nil {
			continue // refused before it reached Unpack
		}
		if _, err := loaded.Unpack(); err == nil {
			t.Fatalf("%s: accepted after the round trip", tc.name)
		}
	}
}

func TestPackedSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := randomRates(rng, []int{10, 11}, 6, 3)
	p, err := Pack(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPacked(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.TotalBytes() != p.TotalBytes() || loaded.Bits != 3 {
		t.Fatal("load changed payload")
	}
	u1, _ := p.Unpack()
	u2, _ := loaded.Unpack()
	for s := range u1.Layers {
		for i, v := range u1.Layers[s].F {
			if u2.Layers[s].F[i] != v {
				t.Fatal("loaded rates differ")
			}
		}
	}
	if _, err := LoadPacked(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// Property: write/read bit round trip for arbitrary codes and widths.
func TestBitCodecProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bits := 1 + rng.Intn(8)
		n := 1 + rng.Intn(64)
		codes := make([]uint8, n)
		max := uint8(int(1)<<bits - 1)
		for i := range codes {
			codes[i] = uint8(rng.Intn(int(max) + 1))
		}
		buf := make([]byte, (n*bits+7)/8)
		for i, c := range codes {
			writeBits(buf, i*bits, bits, c)
		}
		for i, c := range codes {
			if readBits(buf, i*bits, bits) != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Pruning with unpacked (3-bit) rates stays within half a bin of the
// full-precision effective rates, so downstream threshold decisions are
// stable — the property the paper relies on to claim 3 bits suffice.
func TestPackPreservesOrderingApproximately(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := randomRates(rng, []int{0}, 50, 4)
	p, _ := Pack(r, 3)
	u, _ := p.Unpack()
	orig, dq := r.Layers[0], u.Layers[0]
	inversions := 0
	for a := 0; a < 50; a++ {
		for b := a + 1; b < 50; b++ {
			va, vb := orig.At(a, 0), orig.At(b, 0)
			da, db := dq.At(a, 0), dq.At(b, 0)
			if math.Abs(va-vb) > 2.0/7.0 && (va-vb)*(da-db) < 0 {
				inversions++
			}
		}
	}
	if inversions != 0 {
		t.Fatalf("%d large-gap orderings inverted by 3-bit quantization", inversions)
	}
}
