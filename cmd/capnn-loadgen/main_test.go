package main

import (
	"math"
	"testing"
	"time"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name                        string
		users, n, workers           int
		bulkFrac                    float64
		timeout, budget, bulkBudget time.Duration
		ok                          bool
	}{
		{"defaults", 8, 300, 8, 0, 30 * time.Second, 0, 0, true},
		{"one of each", 1, 1, 1, 1, 1, 1, 1, true},
		{"more workers than requests", 2, 5, 64, 0.5, time.Second, 0, 0, true},
		{"no users", 0, 5, 8, 0, time.Second, 0, 0, false},
		{"negative users", -1, 5, 8, 0, time.Second, 0, 0, false},
		{"no requests", 8, 0, 8, 0, time.Second, 0, 0, false},
		{"negative requests", 8, -3, 8, 0, time.Second, 0, 0, false},
		{"no workers", 8, 5, 0, 0, time.Second, 0, 0, false},
		{"negative workers", 8, 5, -2, 0, time.Second, 0, 0, false},
		{"bulk fraction above 1", 8, 5, 8, 1.5, time.Second, 0, 0, false},
		{"negative bulk fraction", 8, 5, 8, -0.1, time.Second, 0, 0, false},
		{"NaN bulk fraction", 8, 5, 8, math.NaN(), time.Second, 0, 0, false},
		{"zero timeout", 8, 5, 8, 0, 0, 0, 0, false},
		{"negative timeout", 8, 5, 8, 0, -time.Second, 0, 0, false},
		{"negative budget", 8, 5, 8, 0, time.Second, -1, 0, false},
		{"negative bulk budget", 8, 5, 8, 0.5, time.Second, 0, -1, false},
	} {
		err := checkFlags(tc.users, tc.n, tc.workers, tc.bulkFrac, tc.timeout, tc.budget, tc.bulkBudget)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkFlags(users=%d, n=%d, concurrency=%d, bulk-frac=%v, timeout=%v, budget=%v, bulk-budget=%v) = %v, want ok=%v",
				tc.name, tc.users, tc.n, tc.workers, tc.bulkFrac, tc.timeout, tc.budget, tc.bulkBudget, err, tc.ok)
		}
	}
}
