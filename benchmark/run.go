package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// options are the run-time inputs of one workload run.
type options struct {
	seed     int64
	window   time.Duration
	trace    bool
	basePort int
	// setups is how many times the set-up is done; setup_s is their
	// median and the last one's cluster is the one measured.
	setups int
}

// result is one run of one workload.
type result struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Traced     bool     `json:"traced"`
	Correct    bool     `json:"correct"`
	Attempted  int      `json:"attempted"` // window requests + correctness replays
	Failed     int      `json:"failed"`
	Violations []string `json:"violations,omitempty"`
	// Window counts are the timed window's alone.
	WindowSent   int     `json:"window_sent"`
	WindowOK     int     `json:"window_ok"`
	WindowFailed int     `json:"window_failed"`
	WindowS      float64 `json:"window_s"`
	// LatencySamples is the count behind the percentiles, cut into Chunks
	// chunks; P90Supported says whether ten or more of a chunk's samples
	// lie beyond its 90th percentile.
	LatencySamples int `json:"latency_samples"`
	Chunks         int `json:"chunks"`
	// ChunkSeries are the per-chunk values, in window order, whose best the
	// end-to-end figures are; "end_s" is when each chunk's last answer
	// arrived, in seconds since the window began.
	ChunkSeries  map[string][]float64 `json:"chunk_series"`
	P90Supported bool                 `json:"p90_supported"`
	SetupsS      []float64            `json:"setups_s"`
	Addresses    []string             `json:"addresses"`
	EndToEnd     map[string]value     `json:"end_to_end"`
	PerLayer     map[string]value     `json:"per_layer,omitempty"`
	SpansFile    string               `json:"spans_file,omitempty"`
}

// benchDir is the benchmark's own directory, located through this source
// file the way internal/exp locates the fixtures.
func benchDir() string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Dir(file)
}

func runWorkload(sp spec, o options) (*result, error) {
	res := &result{Workload: sp.name, Seed: o.seed, Traced: o.trace}
	var e *env
	for i := 0; i < o.setups; i++ {
		if e != nil {
			e.stop()
		}
		t := time.Now()
		var err error
		if e, err = setUp(sp, o.seed, o.basePort); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		res.SetupsS = append(res.SetupsS, time.Since(t).Seconds())
	}
	defer e.stop()
	res.Addresses = append(res.Addresses, e.addrs...)
	if e.gw != nil {
		res.Addresses = append([]string{e.gwAddr}, res.Addresses...)
	}

	stopPeak := goroutinePeak()
	epoch := time.Now()
	before := e.snapshot()
	d := drive(e.target, e.gen.feeds(), o.window)
	after := e.snapshot()
	goroutines := stopPeak()

	lat := latenciesMs(d.samples)
	counters := counterMetrics(before, after, d, goroutines)
	res.WindowSent, res.WindowOK, res.WindowFailed = len(d.samples), len(lat), d.failed()
	res.WindowS = d.wall.Seconds()
	res.ChunkSeries = d.chunkSeries(sp.pace, sp.chunk)
	res.LatencySamples, res.Chunks = len(lat), len(res.ChunkSeries["req_per_s"])
	res.P90Supported = res.Chunks > 0 && supported(len(lat)/res.Chunks, 90)
	figures := map[string]float64{
		"setup_s":      median(res.SetupsS),
		"top1_acc":     counters["client.top1_acc"],
		"failed_share": ratio(float64(d.failed()), float64(len(d.samples))),
	}
	for _, def := range allEndToEnd {
		if series, ok := res.ChunkSeries[def.name]; ok {
			figures[def.name] = quietest(def, series)
		}
	}
	res.EndToEnd = named(allEndToEnd, figures)

	if d.failed() > 0 {
		res.Violations = append(res.Violations, fmt.Sprintf("%d of %d requests failed, first: %s", d.failed(), len(d.samples), d.firstFailure))
	}
	if !sp.has(hot) && counters["serve.cache_misses"] != float64(len(d.samples)) {
		res.Violations = append(res.Violations, fmt.Sprintf("%v cache misses for %d never-seen keys", counters["serve.cache_misses"], len(d.samples)))
	}
	violations, replays, replayFailures := check(e, d)
	res.Violations = append(res.Violations, violations...)
	res.Attempted, res.Failed = len(d.samples)+replays, d.failed()+replayFailures
	res.Correct = len(res.Violations) == 0 && res.Failed == 0

	if o.trace {
		if err := traced(e, d, epoch, counters, res); err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
	}
	return res, nil
}

// traced fills in the per-layer ledger of a traced run: the window's
// counter diffs, the ladder on the window's cluster, the directly timed
// layers, and the spans file.
func traced(e *env, d *driven, epoch time.Time, counters map[string]float64, res *result) error {
	keys, users := map[string]bool{}, map[uint64]bool{}
	for _, s := range d.samples {
		r := e.gen.at(s.stream, s.idx)
		keys[r.prefs.Key()], users[r.user] = true, true
	}
	counters["workload.distinct_keys"], counters["workload.distinct_users"] = float64(len(keys)), float64(len(users))
	counters["proc.cpu_ms_per_req"] = res.EndToEnd["cpu_ms_per_req"].Value

	medians, spans, err := ladder(e, d, epoch)
	if err != nil {
		return err
	}
	layers, err := layerMetrics(e)
	if err != nil {
		return err
	}
	coldShares, missSpans, err := missLadder(e, epoch)
	if err != nil {
		return err
	}
	for _, m := range []map[string]float64{layers, ladderMetrics(medians, res.EndToEnd["lat_p50_ms"].Value, coldShares)} {
		for k, v := range m {
			counters[k] = v
		}
	}
	res.PerLayer = named(perLayer, counters)
	all := append(append(rootSpans(d, epoch), spans...), missSpans...)
	res.SpansFile, err = writeSpans(filepath.Join(benchDir(), "out"), e.sp.name, all)
	return err
}
