// Command benchmark is the repository's one benchmark: in one process it
// starts serve.Servers and a cluster.Gateway on loopback TCP over the
// checked-in cifar10 fixture, drives them closed-loop from two
// serve.Clients, checks the answers against the reference network, and
// prints end-to-end and per-layer metrics by name and unit. README.md in
// this directory is the manual.
//
//	bash benchmark/run.sh -seed 1                 every workload, untraced then traced
//	bash benchmark/run.sh -seed 1 -repeat 2       … twice, compared against the bounds
//	bash benchmark/run.sh --workload warm_zipf --seed 3 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload and print its result as one JSON line (default: all of them, as one document)")
	seed := fs.Int64("seed", 1, "workload seed: selects the trace window, the new users' weights and the input images")
	seconds := fs.Float64("seconds", 20, "length of the timed window")
	trace := fs.Int("trace", 0, "with -workload: 1 runs traced and prints the per-layer metrics instead of the end-to-end ones")
	repeat := fs.Int("repeat", 1, "without -workload: run the untraced set this many times and compare the runs against the bounds")
	basePort := fs.Int("base-port", 17870, "gateway listens here, shards on the next three ports")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := options{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), basePort: *basePort, setups: 3}
	if *workload != "" {
		sp, ok := specByName(*workload)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		o.trace = *trace == 1
		return one(sp, o, stdout, stderr)
	}
	return all(o, *repeat, stdout, stderr)
}

// one is the run contract's entry: one workload, one JSON line.
func one(sp spec, o options, stdout, stderr io.Writer) int {
	res, err := runWorkload(sp, o)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	table(stderr, []*result{res})
	metrics := res.PerLayer
	if !o.trace {
		metrics = map[string]value{}
		for _, d := range endToEnd { // the gated ones; res.EndToEnd also holds the ungated
			metrics[d.name] = res.EndToEnd[d.name]
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return exitCode(stderr, res)
}

func exitCode(stderr io.Writer, results ...*result) int {
	code := 0
	for _, res := range results {
		for _, v := range res.Violations {
			fmt.Fprintf(stderr, "benchmark: %s: VIOLATION: %s\n", res.Workload, v)
			code = 1
		}
	}
	return code
}

// header records where a document's numbers were taken.
type header struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GitCommit  string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	BasePort   int     `json:"base_port"`
	WindowS    float64 `json:"window_s"`
	Clients    int     `json:"clients"`
	Setups     int     `json:"setups_per_run"`
	// Scale records how the issue's request counts map onto the run
	// contract's fixed-length windows.
	Scale string `json:"scale"`
}

func newHeader(o options) header {
	h := header{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", GitCommit: "unknown", Seed: o.seed, BasePort: o.basePort,
		WindowS: o.window.Seconds(), Clients: clientCount, Setups: o.setups,
		Scale: fmt.Sprintf("windows are %gs long instead of fixed request counts; hot population %d users (issue: 32); churn_zipf is one hot and one new-user client on %d-entry caches (issue: 256 users, 8 entries)",
			o.window.Seconds(), hotUsers, churnCacheCap)}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	cmd := exec.Command("git", "describe", "--always", "--dirty")
	cmd.Dir = benchDir()
	if out, err := cmd.Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
	}
	return h
}

// document is what a full run prints: every workload untraced (the
// end-to-end numbers) and traced (the layer ledger), and with -repeat
// the further untraced sets and their comparison.
type document struct {
	Header  header      `json:"header"`
	Runs    [][]*result `json:"runs"` // Runs[k] is the k-th untraced set, workload order
	Traced  []*result   `json:"traced"`
	Compare []cell      `json:"compare,omitempty"`
}

// cell compares one (metric, workload) between the first and a later
// untraced set.
type cell struct {
	Metric   string  `json:"metric"`
	Workload string  `json:"workload"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	// Diff is |a−b| as a share of a (absolute for the ungated shares).
	Diff   float64 `json:"diff"`
	Bound  float64 `json:"bound"`
	Within bool    `json:"within"`
}

func all(o options, repeat int, stdout, stderr io.Writer) int {
	doc := document{Header: newHeader(o)}
	code := 0
	set := func(traced bool) ([]*result, bool) {
		var out []*result
		o.trace = traced
		for _, sp := range workloads {
			res, err := runWorkload(sp, o)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return nil, false
			}
			out = append(out, res)
		}
		table(stderr, out)
		code |= exitCode(stderr, out...)
		return out, true
	}
	for k := 0; k < repeat; k++ {
		results, ok := set(false)
		if !ok {
			return 1
		}
		doc.Runs = append(doc.Runs, results)
	}
	var ok bool
	if doc.Traced, ok = set(true); !ok {
		return 1
	}
	for k := 1; k < len(doc.Runs); k++ {
		for _, c := range compare(doc.Runs[0], doc.Runs[k]) {
			doc.Compare = append(doc.Compare, c)
			mark := "ok"
			if !c.Within {
				mark, code = "EXCEEDS BOUND", 1
			}
			fmt.Fprintf(stderr, "repeat %d: %-16s %-12s %12.4f %12.4f  diff %6.3f  bound %5.3f  %s\n",
				k, c.Metric, c.Workload, c.A, c.B, c.Diff, c.Bound, mark)
		}
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return code
}

func compare(a, b []*result) []cell {
	var out []cell
	for _, d := range allEndToEnd {
		for i := range a {
			c := cell{Metric: d.name, Workload: a[i].Workload, Bound: d.bound,
				A: a[i].EndToEnd[d.name].Value, B: b[i].EndToEnd[d.name].Value}
			c.Diff = c.A - c.B
			if c.Diff < 0 {
				c.Diff = -c.Diff
			}
			if d.unit != "share" {
				c.Diff = ratio(c.Diff, c.A)
			}
			c.Within = c.Diff <= c.Bound
			out = append(out, c)
		}
	}
	return out
}

// table prints results for people: one block per workload, metrics by
// name and unit.
func table(w io.Writer, results []*result) {
	for _, res := range results {
		fmt.Fprintf(w, "\n%s  seed %d  window %.2fs  sent %d  ok %d  failed %d  correct %v  (latency samples %d in %d chunks, p90 supported %v)\n",
			res.Workload, res.Seed, res.WindowS, res.WindowSent, res.WindowOK, res.WindowFailed, res.Correct, res.LatencySamples, res.Chunks, res.P90Supported)
		fmt.Fprintf(w, "  listening on %s\n", strings.Join(res.Addresses, " "))
		print := func(defs []metricDef, vals map[string]value) {
			for _, d := range defs {
				fmt.Fprintf(w, "  %-30s %14.4f %s\n", d.name, vals[d.name].Value, d.unit)
			}
		}
		print(allEndToEnd, res.EndToEnd)
		for _, d := range allEndToEnd {
			if series, ok := res.ChunkSeries[d.name]; ok {
				fmt.Fprintf(w, "  chunks %-23s %.4g\n", d.name, series)
			}
		}
		fmt.Fprintf(w, "  chunks %-23s %.5g\n", "end_s", res.ChunkSeries["end_s"])
		if res.PerLayer != nil {
			print(perLayer, res.PerLayer)
			fmt.Fprintf(w, "  spans written to %s\n", res.SpansFile)
		}
	}
}
