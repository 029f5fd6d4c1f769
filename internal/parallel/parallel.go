// Package parallel provides the bounded worker pool behind every
// data-parallel pass in the repository: firing-rate profiling, suffix and
// full-network evaluation, and mini-batch gradient computation.
//
// The central contract is determinism. Work is decomposed into shards
// whose boundaries depend only on the problem size — never on the worker
// count — and callers merge per-shard partial results in shard order.
// Worker count therefore affects only wall-clock time: profiling rates,
// per-class accuracies, and post-step weights are bit-identical whether
// one goroutine or sixteen executed the shards. This is load-bearing for
// CAP'NN: pruning decisions compare firing rates and accuracies against
// thresholds, and must not drift between a 1-core device and a 32-core
// cloud box.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers holds the process-wide override installed by
// SetDefault; 0 means "use GOMAXPROCS".
var defaultWorkers atomic.Int64

// Default returns the worker count used when a caller does not specify
// one: the SetDefault override when set, otherwise runtime.GOMAXPROCS.
func Default() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetDefault installs a process-wide worker-count override (the -workers
// CLI flag lands here). n <= 0 restores the GOMAXPROCS default.
func SetDefault(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Shard is a contiguous index range [Lo, Hi).
type Shard struct{ Lo, Hi int }

// Len returns the number of indices in the shard.
func (s Shard) Len() int { return s.Hi - s.Lo }

// Shards splits [0, n) into ceil(n/size) contiguous ranges of at most
// size indices each. The decomposition depends only on n and size, so a
// reduction that merges per-shard partials in shard order yields the
// same bits regardless of how many workers ran the shards.
func Shards(n, size int) []Shard {
	if n <= 0 {
		return nil
	}
	if size <= 0 {
		size = 1
	}
	out := make([]Shard, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, Shard{Lo: lo, Hi: hi})
	}
	return out
}

// panicBox records the first panic raised by any task so the caller can
// re-raise it after the barrier.
type panicBox struct {
	once sync.Once
	val  any
}

func (b *panicBox) capture(v any) { b.once.Do(func() { b.val = v }) }

func (b *panicBox) rethrow() {
	if b.val != nil {
		panic(fmt.Sprintf("parallel: task panicked: %v", b.val))
	}
}

// For runs fn(i) for every i in [0, n) on up to workers goroutines and
// blocks until all calls return. workers <= 0 means Default(). With one
// worker (or n <= 1) everything runs inline on the calling goroutine.
// Index order of execution is unspecified; callers must keep per-index
// results independent and merge them in index order afterwards. A panic
// in fn is re-raised on the calling goroutine after all workers stop.
func For(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = Default()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		fail panicBox
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					fail.capture(r)
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	fail.rethrow()
}

// task is one unit of work queued on a Pool.
type task struct {
	fn   func(worker, i int)
	i    int
	done *sync.WaitGroup
	fail *panicBox
}

// Pool is a persistent bounded worker pool for callers that issue many
// barriers in a loop (the trainer runs one per mini-batch). Workers live
// until Close, and each keeps its slot, so per-slot state (the trainer's
// replicas) stays with one goroutine. The trainer measured faster on it
// than on per-barrier goroutines: on a 2-core Xeon, a
// BenchmarkTrainStep/workers-2 step took a median 27.1 ms here and
// 31.4 ms with fresh goroutines per barrier, slower in 10 of 10
// alternating pairs, the extra time inside the gradient kernels rather
// than in starting goroutines.
type Pool struct {
	workers int
	tasks   chan task
	stopped sync.WaitGroup
	closing sync.Once
}

// NewPool starts a pool with the given number of workers (<= 0 means
// Default()). Callers must Close the pool to release its goroutines.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = Default()
	}
	p := &Pool{workers: workers, tasks: make(chan task)}
	p.stopped.Add(workers)
	for w := 0; w < workers; w++ {
		go p.run(w)
	}
	return p
}

func (p *Pool) run(worker int) {
	defer p.stopped.Done()
	for t := range p.tasks {
		func() {
			defer t.done.Done()
			defer func() {
				if r := recover(); r != nil {
					t.fail.capture(r)
				}
			}()
			t.fn(worker, t.i)
		}()
	}
}

// ForWorker runs fn(worker, i) for every i in [0, n) on the pool's
// workers and blocks until all calls return, re-raising the first task
// panic. Not for concurrent use from multiple goroutines with
// order-sensitive expectations; barriers from different callers
// interleave arbitrarily but each still completes fully before
// returning. Must not be called after Close.
func (p *Pool) ForWorker(n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	var wg sync.WaitGroup
	var fail panicBox
	wg.Add(n)
	for i := 0; i < n; i++ {
		p.tasks <- task{fn: fn, i: i, done: &wg, fail: &fail}
	}
	wg.Wait()
	fail.rethrow()
}

// Close stops the workers and waits for them to exit. Idempotent.
func (p *Pool) Close() {
	p.closing.Do(func() { close(p.tasks) })
	p.stopped.Wait()
}
