package main

import (
	"math"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name              string
		users, n, workers int
		bulkFrac          float64
		ok                bool
	}{
		{"defaults", 8, 300, 8, 0, true},
		{"one of each", 1, 1, 1, 1, true},
		{"more workers than requests", 2, 5, 64, 0.5, true},
		{"no users", 0, 5, 8, 0, false},
		{"negative users", -1, 5, 8, 0, false},
		{"no requests", 8, 0, 8, 0, false},
		{"negative requests", 8, -3, 8, 0, false},
		{"no workers", 8, 5, 0, 0, false},
		{"negative workers", 8, 5, -2, 0, false},
		{"bulk fraction above 1", 8, 5, 8, 1.5, false},
		{"negative bulk fraction", 8, 5, 8, -0.1, false},
		{"NaN bulk fraction", 8, 5, 8, math.NaN(), false},
	} {
		err := checkFlags(tc.users, tc.n, tc.workers, tc.bulkFrac)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags(users=%d, n=%d, concurrency=%d, bulk-frac=%v) = %v, want ok=%v",
				tc.name, tc.users, tc.n, tc.workers, tc.bulkFrac, err, tc.ok)
		}
	}
}
