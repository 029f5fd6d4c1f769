// Package metrics is CAP'NN's dependency-free telemetry registry — the
// single source every serving-tier signal flows through. The serve and
// cluster stats accumulators publish into it, the /metrics HTTP surface
// exposes it in Prometheus text format, and the SIGINT stats dumps
// render it through one shared summary writer. Three instrument kinds
// cover the tier:
//
//   - Counter: a monotone uint64 (requests, sheds, heals),
//   - Gauge: an instantaneous float64 (queue depth, breaker state),
//     read from a func at gather time,
//   - Histogram: bounded buckets over float64 observations with exact
//     sum/count and p50/p95/p99 estimation (per-stage latencies).
//
// Counters also come as a labeled "vec" family (per-reason sheds,
// per-tenant admission) and as a func-backed variant; both func-backed
// kinds read an existing source at gather time so state that already
// lives elsewhere (a breaker, a cache) is exposed without duplicate
// accounting. Collectors emit whole label families from a foreign
// source (the gateway's per-node health map).
//
// Metric names are linted at registration: `[a-z][a-z0-9_]*`, and
// counters must end in `_total` — the test suite enforces the same
// rules over everything the serve and cluster tiers register.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind classifies an instrument for exposition.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Label is one name=value pair on a sample.
type Label struct {
	Name, Value string
}

// Labels is an ordered label set (family order, not sorted).
type Labels []Label

// Counter is a monotone event count. All methods are safe for
// concurrent use and never block (atomic increments off the hot path's
// critical sections).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram accumulates float64 observations into fixed buckets. The
// sum is a float64, which accumulates integer-valued observations (e.g.
// nanoseconds) exactly up to 2^53 — so a Stats snapshot derived from
// Sum() reproduces the old int64 accumulator bit-for-bit in practice.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf bucket is implicit

	mu     sync.Mutex
	counts []uint64 // per-bucket (not cumulative); len = len(bounds)+1
	count  uint64
	sum    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Sum is the observations' total.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Snapshot returns a consistent copy of the histogram state.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistSnapshot{
		Bounds: h.bounds,
		Counts: append([]uint64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
	}
}

// HistSnapshot is a point-in-time histogram state (per-bucket counts,
// not cumulative).
type HistSnapshot struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Quantile estimates the p-th quantile (p in [0,1]) by linear
// interpolation inside the bucket where the rank falls, the same
// estimate Prometheus' histogram_quantile computes server-side. Returns
// 0 with no observations; values in the overflow bucket clamp to the
// highest finite bound.
func (s HistSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(s.Count)
	cum := uint64(0)
	for i, c := range s.Counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) {
			// Overflow bucket: no finite upper bound to interpolate
			// toward; clamp to the highest finite bound.
			if len(s.Bounds) == 0 {
				return 0
			}
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-float64(prev))/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// CounterVec is a family of counters keyed by label values.
type CounterVec struct {
	labels []string
	mu     sync.Mutex
	kids   map[string]*Counter
	order  []string
}

// With returns (creating if needed) the child for the given label
// values, which must match the family's label names positionally.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: counter vec wants %d label values, got %d", len(v.labels), len(values)))
	}
	k := joinKey(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.kids[k]
	if !ok {
		c = &Counter{}
		v.kids[k] = c
		v.order = append(v.order, k)
	}
	return c
}

// Each visits every child in creation order.
func (v *CounterVec) Each(f func(values []string, value uint64)) {
	v.mu.Lock()
	keys := append([]string(nil), v.order...)
	kids := make([]*Counter, len(keys))
	for i, k := range keys {
		kids[i] = v.kids[k]
	}
	v.mu.Unlock()
	for i, k := range keys {
		f(splitKey(k, len(v.labels)), kids[i].Value())
	}
}

// Label values never contain \x00 in this codebase (addresses, reasons,
// tenant names from the wire are validated upstream); the joined key is
// internal only.
func joinKey(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := len(values) - 1
	for _, v := range values {
		n += len(v)
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, 0)
		}
		b = append(b, v...)
	}
	return string(b)
}

func splitKey(k string, n int) []string {
	if n <= 1 {
		return []string{k}
	}
	out := make([]string, 0, n)
	start := 0
	for i := 0; i < len(k); i++ {
		if k[i] == 0 {
			out = append(out, k[start:i])
			start = i + 1
		}
	}
	return append(out, k[start:])
}

// Emit publishes one sample from a Collector at gather time.
type Emit func(name, help string, kind Kind, labels Labels, value float64)

// entry is one registered instrument plus its exposition metadata.
type entry struct {
	name, help string
	kind       Kind

	counter     *Counter
	hist        *Histogram
	counterVec  *CounterVec
	counterFunc func() uint64
	gaugeFunc   func() float64
}

// Registry holds a process's instruments. Registration methods panic on
// an invalid or duplicate name — both are programmer errors the naming
// lint test catches before they ship.
type Registry struct {
	mu         sync.Mutex
	entries    []*entry
	byName     map[string]*entry
	collectors []func(Emit)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*entry{}}
}

// ValidName reports whether name satisfies the lint: lowercase
// [a-z][a-z0-9_]* — the subset of Prometheus-legal names this codebase
// standardizes on.
func ValidName(name string) bool {
	if len(name) == 0 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c == '_' && i > 0:
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

func (r *Registry) register(e *entry) {
	if !ValidName(e.name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", e.name))
	}
	if e.kind == KindCounter && !hasSuffix(e.name, "_total") {
		panic(fmt.Sprintf("metrics: counter %q must end in _total", e.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[e.name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric name %q", e.name))
	}
	r.byName[e.name] = e
	r.entries = append(r.entries, e)
}

func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&entry{name: name, help: help, kind: KindCounter, counter: c})
	return c
}

// CounterVec registers and returns a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{labels: labels, kids: map[string]*Counter{}}
	r.register(&entry{name: name, help: help, kind: KindCounter, counterVec: v})
	return v
}

// GaugeFunc registers a gauge whose value is read from fn at gather
// time — for instantaneous state that already lives elsewhere (queue
// depth, cache residency, breaker state).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&entry{name: name, help: help, kind: KindGauge, gaugeFunc: fn})
}

// CounterFunc registers a counter whose value is read from fn at gather
// time — for monotone counts owned by another component (breaker
// transition counters).
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(&entry{name: name, help: help, kind: KindCounter, counterFunc: fn})
}

// Histogram registers and returns a histogram over the given ascending
// bucket upper bounds (an implicit +Inf bucket is always added).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q bounds not ascending", name))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]uint64, len(h.bounds)+1)
	r.register(&entry{name: name, help: help, kind: KindHistogram, hist: h})
	return h
}

// Collector registers a gather-time callback that emits samples from a
// foreign source (e.g. per-node health snapshots). Names emitted must
// pass the same lint as registered instruments; the naming test gathers
// and checks them.
func (r *Registry) Collector(fn func(Emit)) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// Sample is one gathered time series point.
type Sample struct {
	Labels Labels
	Value  float64
	// Hist is set for histogram samples (Value is unused then).
	Hist *HistSnapshot
}

// Family is one gathered metric: every sample sharing a name.
type Family struct {
	Name, Help string
	Kind       Kind
	Samples    []Sample
}

// Gather resolves every instrument, func metric, and collector into an
// ordered family list — the input to exposition, the summary renderer,
// and the lint test.
func (r *Registry) Gather() []Family {
	r.mu.Lock()
	entries := append([]*entry(nil), r.entries...)
	collectors := append([]func(Emit){}, r.collectors...)
	r.mu.Unlock()

	var fams []Family
	index := map[string]int{}
	add := func(name, help string, kind Kind, s Sample) {
		i, ok := index[name]
		if !ok {
			i = len(fams)
			index[name] = i
			fams = append(fams, Family{Name: name, Help: help, Kind: kind})
		}
		fams[i].Samples = append(fams[i].Samples, s)
	}

	for _, e := range entries {
		switch {
		case e.counter != nil:
			add(e.name, e.help, e.kind, Sample{Value: float64(e.counter.Value())})
		case e.counterFunc != nil:
			add(e.name, e.help, e.kind, Sample{Value: float64(e.counterFunc())})
		case e.gaugeFunc != nil:
			add(e.name, e.help, e.kind, Sample{Value: e.gaugeFunc()})
		case e.hist != nil:
			snap := e.hist.Snapshot()
			add(e.name, e.help, e.kind, Sample{Hist: &snap})
		case e.counterVec != nil:
			e.counterVec.Each(func(values []string, v uint64) {
				add(e.name, e.help, e.kind, Sample{Labels: zip(e.counterVec.labels, values), Value: float64(v)})
			})
		}
	}
	for _, fn := range collectors {
		fn(func(name, help string, kind Kind, labels Labels, value float64) {
			add(name, help, kind, Sample{Labels: labels, Value: value})
		})
	}
	return fams
}

func zip(names, values []string) Labels {
	ls := make(Labels, len(names))
	for i := range names {
		ls[i] = Label{Name: names[i], Value: values[i]}
	}
	return ls
}

// LatencyBucketsNs is the standard per-stage latency bucket layout in
// nanoseconds: 10µs → 30s, roughly 1-2.5-5 per decade. Nanosecond
// observations keep histogram sums exact in float64 (integers < 2^53),
// so Stats snapshots derived from Sum() match the old int64 accumulators.
func LatencyBucketsNs() []float64 {
	return []float64{
		1e4, 2.5e4, 5e4, // 10µs..50µs
		1e5, 2.5e5, 5e5, // 100µs..500µs
		1e6, 2.5e6, 5e6, // 1ms..5ms
		1e7, 2.5e7, 5e7, // 10ms..50ms
		1e8, 2.5e8, 5e8, // 100ms..500ms
		1e9, 2.5e9, 5e9, // 1s..5s
		1e10, 3e10, // 10s, 30s
	}
}
