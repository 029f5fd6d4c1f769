package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"capnn/internal/serve"
)

// sample is one request as its client saw it. In a traced run it doubles
// as the request's root span (name "client.infer", no parent).
type sample struct {
	stream     stream
	idx        int // position in its stream
	start, end time.Time
	cpuEnd     time.Duration // process CPU time when the answer arrived
	ok         bool          // answered with CodeOK
	top1       bool          // … and Class equals the class the image was drawn from
}

// feed is a stream of requests one or more clients draw from: request i
// is at(i), and the feed ends after n requests when n > 0.
type feed struct {
	stream stream
	at     func(i int) request
	n      int
	// think makes a client pause after each answer for this share of the
	// time the answer took.
	think float64
	next  atomic.Int64
}

// driven is what one closed-loop drive produced: the samples in the
// order their answers arrived.
type driven struct {
	samples      []sample
	begin        time.Time
	cpuBegin     time.Duration
	wall         time.Duration
	firstFailure string
}

func (d *driven) failed() int {
	n := 0
	for _, s := range d.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// drive runs one closed-loop client per feed against target (a nil feed
// is an idle client): each takes its feed's next request, builds it,
// sends it with a dial-per-call serve.Client (what capnn-loadgen does)
// and waits for the answer. A client stops when its feed ends or once
// window has passed (window > 0).
func drive(target string, feeds []*feed, window time.Duration) *driven {
	var mu sync.Mutex
	d := &driven{begin: time.Now(), cpuBegin: cpuTime()}
	var wg sync.WaitGroup
	for _, f := range feeds {
		if f == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := serve.NewClient(target)
			var mine []sample
			fail := ""
			for {
				i := int(f.next.Add(1)) - 1
				if (f.n > 0 && i >= f.n) || (window > 0 && time.Since(d.begin) >= window) {
					break
				}
				req := f.at(i)
				s := sample{stream: f.stream, idx: i, start: time.Now()}
				resp, err := client.Infer(req.wire) // non-OK codes come back as errors
				s.end, s.cpuEnd = time.Now(), cpuTime()
				if err != nil {
					if fail == "" {
						fail = err.Error()
					}
				} else {
					s.ok, s.top1 = true, resp.Class == req.class
				}
				mine = append(mine, s)
				if f.think > 0 {
					time.Sleep(time.Duration(f.think * float64(s.end.Sub(s.start))))
				}
			}
			mu.Lock()
			d.samples = append(d.samples, mine...)
			if d.firstFailure == "" {
				d.firstFailure = fail
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	d.wall = time.Since(d.begin)
	sort.Slice(d.samples, func(a, b int) bool { return d.samples[a].end.Before(d.samples[b].end) })
	return d
}

// served returns the samples that were answered with CodeOK.
func (d *driven) served() []sample {
	var ok []sample
	for _, s := range d.samples {
		if s.ok {
			ok = append(ok, s)
		}
	}
	return ok
}

// chunkSeries cuts the window's OK answers, in arrival order, into
// chunks — a chunk ends with every chunk-th answer of the pace stream —
// and returns, per end-to-end metric, its value in each chunk. A window
// too short for one chunk is one.
func (d *driven) chunkSeries(pace stream, chunk int) map[string][]float64 {
	series := map[string][]float64{}
	add := func(part []sample, from time.Time, cpuFrom time.Duration) {
		last := part[len(part)-1]
		lat := latenciesMs(part)
		series["req_per_s"] = append(series["req_per_s"], float64(len(part))/last.end.Sub(from).Seconds())
		series["cpu_ms_per_req"] = append(series["cpu_ms_per_req"], ms(last.cpuEnd-cpuFrom)/float64(len(part)))
		series["lat_p50_ms"] = append(series["lat_p50_ms"], percentile(lat, 50))
		series["lat_p90_ms"] = append(series["lat_p90_ms"], percentile(lat, 90))
		series["end_s"] = append(series["end_s"], last.end.Sub(d.begin).Seconds())
	}
	ok := d.served()
	prevEnd, prevCPU := d.begin, d.cpuBegin
	first, paced := 0, 0
	for i, s := range ok {
		if s.stream == pace {
			paced++
		}
		if paced == chunk {
			add(ok[first:i+1], prevEnd, prevCPU)
			prevEnd, prevCPU, first, paced = s.end, s.cpuEnd, i+1, 0
		}
	}
	if first == 0 && len(ok) > 0 {
		add(ok, d.begin, d.cpuBegin)
	}
	return series
}

// quietest is the value a run reports for one end-to-end metric given its
// per-chunk series: the best chunk of the window — the lowest cost, the
// highest throughput. Interference is one-sided and comes in phases. A
// background repersonalisation stalls a warm window for about a second,
// and the shared 2-vCPU box runs CPU-bound work 1.4–1.8 times slower for
// seconds to minutes at a time; both slow chunks down and nothing speeds
// one up, so the best chunk is the figure they touch least. Over ten seeds
// on a restless host the latency and throughput figures of warm_zipf
// spread 4–8 % of their median as the best chunk, 10–16 % as the
// lower-quartile chunk and 10–21 % as the median chunk (README
// "Steadiness").
func quietest(def metricDef, series []float64) float64 {
	if len(series) == 0 {
		return 0
	}
	best := series[0]
	for _, v := range series[1:] {
		if (def.better == "higher") == (v > best) {
			best = v
		}
	}
	return best
}

// percentile is the nearest-rank p-th percentile (p in (0,100]) of an
// ascending slice: the smallest value with at least p % of the samples
// at or below it. Zero with no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supported reports whether n samples leave at least ten beyond the
// p-th percentile — the rule for which tail a sample may speak about.
func supported(n int, p float64) bool { return n > 0 && n-rank(n, p) >= 10 }

// median is the nearest-rank median of values in any order; zero with no
// values.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latenciesMs returns the ascending client latencies of the OK samples.
func latenciesMs(samples []sample) []float64 {
	var out []float64
	for _, s := range samples {
		if s.ok {
			out = append(out, ms(s.end.Sub(s.start)))
		}
	}
	sort.Float64s(out)
	return out
}

// cpuTime is the process's user + system CPU time (RUSAGE_SELF).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB reads VmHWM, the process's peak resident set, from /proc.
func rssPeakMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// goroutinePeak samples runtime.NumGoroutine every 20 ms until stop is
// called, which returns the highest count seen.
func goroutinePeak() (stop func() int) {
	done := make(chan struct{})
	result := make(chan int)
	go func() {
		peak := runtime.NumGoroutine()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				result <- peak
				return
			case <-tick.C:
				if n := runtime.NumGoroutine(); n > peak {
					peak = n
				}
			}
		}
	}()
	return func() int {
		close(done)
		return <-result
	}
}
