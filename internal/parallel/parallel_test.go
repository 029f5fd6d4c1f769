package parallel

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestShards(t *testing.T) {
	cases := []struct {
		n, size int
		want    []Shard
	}{
		{0, 4, nil},
		{-3, 4, nil},
		{1, 4, []Shard{{0, 1}}},
		{4, 4, []Shard{{0, 4}}},
		{5, 4, []Shard{{0, 4}, {4, 5}}},
		{10, 3, []Shard{{0, 3}, {3, 6}, {6, 9}, {9, 10}}},
		{3, 0, []Shard{{0, 1}, {1, 2}, {2, 3}}}, // size clamped to 1
	}
	for _, c := range cases {
		got := Shards(c.n, c.size)
		if len(got) != len(c.want) {
			t.Fatalf("Shards(%d,%d) = %v, want %v", c.n, c.size, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Shards(%d,%d)[%d] = %v, want %v", c.n, c.size, i, got[i], c.want[i])
			}
		}
	}
	if got := (Shard{3, 7}).Len(); got != 4 {
		t.Fatalf("Shard.Len = %d, want 4", got)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 16} {
		const n = 1000
		counts := make([]int64, n)
		For(workers, n, func(i int) { atomic.AddInt64(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// The slot a Pool passes stays in [0, workers), also when a barrier has
// fewer items than workers, and neither barrier calls fn when n = 0.
func TestForWorkerSlotBounds(t *testing.T) {
	const workers = 4
	p := NewPool(workers)
	defer p.Close()
	var bad atomic.Int64
	For(workers, 0, func(i int) { bad.Add(1) })
	p.ForWorker(0, func(worker, i int) { bad.Add(1) })
	for _, n := range []int{1, 3, 100} {
		p.ForWorker(n, func(worker, i int) {
			if worker < 0 || worker >= workers {
				bad.Add(1)
			}
		})
	}
	if bad.Load() != 0 {
		t.Fatal("worker slot outside [0, workers) or fn called with n=0")
	}
}

func TestForPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 3} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic not propagated", workers)
				}
				if !strings.Contains(r.(string), "boom") {
					t.Fatalf("workers=%d: unexpected panic %v", workers, r)
				}
			}()
			For(workers, 10, func(i int) {
				if i == 5 {
					panic("boom")
				}
			})
		}()
	}
}

func TestSetDefault(t *testing.T) {
	defer SetDefault(0)
	SetDefault(3)
	if got := Default(); got != 3 {
		t.Fatalf("Default after SetDefault(3) = %d", got)
	}
	SetDefault(-1) // restores GOMAXPROCS
	if got := Default(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Default after reset = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

func TestPoolRunsBarriersAndCloses(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPool(4)
	for round := 0; round < 3; round++ {
		const n = 50
		counts := make([]int64, n)
		p.ForWorker(n, func(worker, i int) {
			if worker < 0 || worker >= 4 {
				t.Errorf("bad worker slot %d", worker)
			}
			atomic.AddInt64(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("round %d: index %d ran %d times", round, i, c)
			}
		}
	}
	p.Close()
	p.Close() // idempotent
	// The pool's goroutines must be gone after Close.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutine leak after Close: %d > %d", got, before)
	}
}

func TestPoolPanicPropagates(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("pool barrier did not re-raise task panic")
			}
		}()
		p.ForWorker(8, func(worker, i int) {
			if i == 3 {
				panic("pool boom")
			}
		})
	}()
	// The pool must still be usable after a panicking barrier.
	var ran atomic.Int64
	p.ForWorker(4, func(worker, i int) { ran.Add(1) })
	if ran.Load() != 4 {
		t.Fatalf("pool broken after panic: ran %d of 4", ran.Load())
	}
}
