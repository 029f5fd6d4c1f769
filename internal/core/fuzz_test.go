package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// specialWeights are the weights a 16-bit code at or above 0xfff0 decodes
// to: the values a hostile or buggy caller sends.
var specialWeights = []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, math.Copysign(0, -1), 5e-324, math.MaxFloat64, 1e-300}

// decodePrefs reads three-byte records: a signed class byte, then a
// little-endian weight code — code/1000 below 0xfff0, else a special.
func decodePrefs(data []byte) ([]int, []float64) {
	var classes []int
	var weights []float64
	for ; len(data) >= 3; data = data[3:] {
		classes = append(classes, int(int8(data[0])))
		w := float64(binary.LittleEndian.Uint16(data[1:])) / 1000
		if code := int(binary.LittleEndian.Uint16(data[1:])); code >= 0xfff0 {
			w = specialWeights[(code-0xfff0)%len(specialWeights)]
		}
		weights = append(weights, w)
	}
	return classes, weights
}

// FuzzPreferences holds the preference vector's four entry points to the
// properties the serving tier relies on: Validate admits only finite
// weights summing to 1 within 1e-6; a NewPreferences result over distinct
// in-range classes validates; Key ignores class order and the weights'
// scale; KeyUnder is prefix + "/" + Key. Restore paths and Go callers
// reach Validate without NewPreferences, so it must stand alone.
func FuzzPreferences(f *testing.F) {
	rec := func(class int8, code uint16) []byte { return []byte{byte(class), byte(code), byte(code >> 8)} }
	cat := func(rs ...[]byte) []byte {
		var b []byte
		for _, r := range rs {
			b = append(b, r...)
		}
		return b
	}
	f.Add(cat(rec(0, 620), rec(3, 380)), uint8(10), false, uint8(0), "M")
	f.Add(cat(rec(7, 1), rec(2, 1), rec(5, 1)), uint8(10), true, uint8(3), "W")
	f.Add(cat(rec(0, 0xfff0), rec(1, 500)), uint8(2), false, uint8(1), "B")     // NaN
	f.Add(cat(rec(0, 0xfff1), rec(1, 500)), uint8(2), false, uint8(2), "M")     // +Inf
	f.Add(cat(rec(0, 0xfff6), rec(1, 0xfff6)), uint8(2), false, uint8(60), "M") // sum overflows
	f.Add(cat(rec(4, 1000), rec(4, 0)), uint8(5), false, uint8(9), "CAP'NN-M")  // duplicate class
	f.Add(cat(rec(-1, 1000), rec(9, 0xfff5)), uint8(9), false, uint8(7), "")    // out of range, denormal
	f.Fuzz(func(t *testing.T, data []byte, numClasses uint8, uniform bool, shift uint8, prefix string) {
		classes, weights := decodePrefs(data)
		raw := Preferences{Classes: classes, Weights: weights}
		if raw.Validate(int(numClasses)) == nil {
			sum := 0.0
			for _, w := range weights {
				if math.IsNaN(w) || math.IsInf(w, 0) {
					t.Fatalf("Validate accepted non-finite weight %v in %v", w, weights)
				}
				sum += w
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Fatalf("Validate accepted weights %v summing to %v", weights, sum)
			}
		}
		if got, want := raw.KeyUnder(prefix), prefix+"/"+raw.Key(); got != want {
			t.Fatalf("KeyUnder(%q) = %q, want %q", prefix, got, want)
		}

		if uniform {
			weights = nil
		}
		p, err := NewPreferences(classes, weights)
		if err != nil || len(p.Classes) == 0 {
			return
		}
		seen := map[int]bool{}
		for _, c := range p.Classes {
			if c < 0 || c >= int(numClasses) || seen[c] {
				return // Validate's to refuse; the invariances assume distinct classes
			}
			seen[c] = true
		}
		if err := p.Validate(int(numClasses)); err != nil {
			t.Fatalf("NewPreferences(%v, %v) = %+v does not validate: %v", classes, weights, p, err)
		}
		rng := rand.New(rand.NewSource(int64(shift)))
		perm := Preferences{Classes: make([]int, len(p.Classes)), Weights: make([]float64, len(p.Weights))}
		for i, j := range rng.Perm(len(p.Classes)) {
			perm.Classes[i], perm.Weights[i] = p.Classes[j], p.Weights[j]
		}
		if perm.Key() != p.Key() {
			t.Fatalf("permuting %+v to %+v moves the key", p, perm)
		}
		// A power of two scales every weight and partial sum exactly, so the
		// key's quotient w/Σw is unchanged to the bit; another factor may
		// round a weight across a 1e-6 quantum boundary.
		scaled := Preferences{Classes: p.Classes, Weights: make([]float64, len(p.Weights))}
		for i, w := range p.Weights {
			scaled.Weights[i] = math.Ldexp(w, int(shift%61))
		}
		if scaled.Key() != p.Key() {
			t.Fatalf("scaling %+v by 2^%d moves the key", p, shift%61)
		}
	})
}
