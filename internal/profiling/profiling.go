// Package profiling wires the shared performance flags into the cmd
// binaries: -workers caps the data-parallel worker pool, and
// -cpuprofile / -memprofile write standard pprof profiles for
// `go tool pprof` (see README "Reproducing §V" and DESIGN row 17).
package profiling

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"capnn/internal/parallel"
)

// Flags holds the registered flag values between Start and Stop.
type Flags struct {
	workers *int
	cpu     *string
	mem     *string
	cpuOut  *os.File
}

// AddFlags registers -workers, -cpuprofile and -memprofile on the
// default flag set. Call before flag.Parse.
func AddFlags() *Flags {
	return &Flags{
		workers: flag.Int("workers", 0, "worker goroutines for profiling/evaluation/training (0 = GOMAXPROCS); results are identical for every value"),
		cpu:     flag.String("cpuprofile", "", "write a CPU profile to this file"),
		mem:     flag.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

// Start applies the worker override and begins CPU profiling when
// requested. Call after flag.Parse; pair with a deferred Stop.
func (f *Flags) Start() error {
	parallel.SetDefault(*f.workers)
	if *f.cpu == "" {
		return nil
	}
	out, err := os.Create(*f.cpu)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(out); err != nil {
		out.Close()
		return fmt.Errorf("cpuprofile: %w", err)
	}
	f.cpuOut = out
	return nil
}

// Stop finishes the CPU profile and writes the heap profile. Safe to
// call when neither was requested.
func (f *Flags) Stop() error {
	if f.cpuOut != nil {
		pprof.StopCPUProfile()
		if err := f.cpuOut.Close(); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		f.cpuOut = nil
	}
	if *f.mem == "" {
		return nil
	}
	out, err := os.Create(*f.mem)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	defer out.Close()
	runtime.GC() // up-to-date allocation statistics
	if err := pprof.WriteHeapProfile(out); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}
