package exp

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"capnn/internal/firing"
)

// MemoryRow is one prunable layer's contribution to the firing-rate
// storage overhead (paper §V-C).
type MemoryRow struct {
	Stage   int
	Units   int
	Classes int
	Bytes   int
}

// MemoryReport is the §V-C accounting for a fixture.
type MemoryReport struct {
	Bits     int
	PerLayer []MemoryRow
	Overhead firing.Overhead
}

// RunMemory computes the cloud-side overhead of storing the fixture's
// firing rates at the paper's 3-bit quantization.
func RunMemory(fx *Fixture) (MemoryReport, error) {
	const bits = 3
	rep := MemoryReport{Bits: bits}
	var stages []int
	for s := range fx.Rates.Layers {
		stages = append(stages, s)
	}
	sort.Ints(stages)
	for _, s := range stages {
		lr := fx.Rates.Layers[s]
		rep.PerLayer = append(rep.PerLayer, MemoryRow{Stage: s, Units: lr.Units, Classes: lr.Classes, Bytes: firing.PackedBytes(lr, bits)})
	}
	ov, err := firing.MemoryOverhead(fx.Rates, bits, fx.Net.ParamCount())
	if err != nil {
		return rep, err
	}
	rep.Overhead = ov
	return rep, nil
}

// PrintMemory renders the §V-C memory-overhead accounting.
func PrintMemory(w io.Writer, rep MemoryReport) {
	fmt.Fprintf(w, "Memory overhead of %d-bit firing rates (paper §V-C)\n", rep.Bits)
	fmt.Fprintf(w, "%-8s %-8s %-8s %-10s\n", "stage", "units", "classes", "bytes")
	fmt.Fprintln(w, strings.Repeat("-", 38))
	for _, r := range rep.PerLayer {
		fmt.Fprintf(w, "%-8d %-8d %-8d %-10d\n", r.Stage, r.Units, r.Classes, r.Bytes)
	}
	fmt.Fprintf(w, "total %d bytes vs %d bytes of 16-bit weights → %.2f%% overhead\n",
		rep.Overhead.RateBytes, rep.Overhead.ModelBytes, 100*rep.Overhead.Ratio)
}
