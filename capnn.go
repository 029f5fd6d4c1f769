// Package capnn is the public API of this CAP'NN reproduction: class-aware
// personalized neural-network inference (Hemmat, San Miguel, Davoodi,
// DAC 2020).
//
// CAP'NN takes an already-trained CNN and personalizes it for a user who
// only encounters a subset of the output classes: it prunes ineffectual
// units (rarely firing for the user's classes) and miseffectual units
// (firing toward confusing wrong classes) without retraining, while
// guaranteeing per-class accuracy degradation stays within ε. Three
// variants are provided: CAP'NN-B (per-class matrices + online
// intersection), CAP'NN-W (usage-weighted effective firing rates) and
// CAP'NN-M (miseffectual pruning on top of W).
//
// A typical flow:
//
//	net, _ := capnn.BuildVGG(capnn.DefaultVGGConfig(20))      // or load one
//	capnn.Train(net, trainSet, valSet, capnn.DefaultTrainConfig())
//	sys, _ := capnn.NewSystem(net, valSet, profileSet, nil, capnn.DefaultParams())
//	prefs := capnn.Uniform([]int{3, 7})                        // user's classes
//	res, _ := sys.Personalize(capnn.VariantM, prefs, testSet)  // prune + measure
//	fmt.Println(res.RelativeSize, res.Top1, res.BaseTop1)
//
// The heavy lifting lives in internal packages (tensor math, the NN
// substrate, firing-rate profiling, the pruning algorithms, the TPU-like
// device simulator, the analytical energy model, the class-unaware
// baselines, and the cloud personalization service); this package
// re-exports the surface a downstream user needs.
package capnn

import (
	"io"
	"net"
	"net/http"
	"time"

	"capnn/internal/baselines"
	"capnn/internal/cloud"
	"capnn/internal/cluster"
	"capnn/internal/core"
	"capnn/internal/data"
	"capnn/internal/energy"
	"capnn/internal/faults"
	"capnn/internal/firing"
	"capnn/internal/hw"
	"capnn/internal/metrics"
	"capnn/internal/nn"
	"capnn/internal/parallel"
	"capnn/internal/qos"
	"capnn/internal/serve"
	"capnn/internal/store"
	"capnn/internal/train"
	"capnn/internal/workload"
)

// --- parallelism --------------------------------------------------------------

// SetWorkers installs a process-wide worker-count cap for every
// data-parallel pass (firing-rate profiling, evaluation, data-parallel
// training). n <= 0 restores the GOMAXPROCS default. Results are
// bit-identical for every worker count — the knob trades goroutines for
// wall-clock only. The cmd binaries expose it as -workers.
func SetWorkers(n int) { parallel.SetDefault(n) }

// Workers reports the worker count data-parallel passes currently use.
func Workers() int { return parallel.Default() }

// --- model substrate ------------------------------------------------------

// Network is a feed-forward CNN with prunable units.
type Network = nn.Network

// VGGConfig describes a VGG-16-style classifier (13 conv + 3 FC).
type VGGConfig = nn.VGGConfig

// Builder assembles custom sequential networks.
type Builder = nn.Builder

// BuildVGG constructs a VGG-16-style network.
func BuildVGG(cfg VGGConfig) (*Network, error) { return nn.BuildVGG(cfg) }

// DefaultVGGConfig returns the reference VGG-16-mini for a class count.
func DefaultVGGConfig(classes int) VGGConfig { return nn.DefaultVGGConfig(classes) }

// NewBuilder starts a custom network for [c,h,w] inputs with a seed.
func NewBuilder(c, h, w int, seed int64) *Builder { return nn.NewBuilder(c, h, w, seed) }

// SaveModel / LoadModel serialize networks (weights + prune masks).
func SaveModel(w io.Writer, net *Network) error { return nn.Save(w, net) }

// LoadModel reads a network written by SaveModel.
func LoadModel(r io.Reader) (*Network, error) { return nn.Load(r) }

// SaveModelFile / LoadModelFile are the file-path variants.
func SaveModelFile(path string, net *Network) error { return nn.SaveFile(path, net) }

// LoadModelFile reads a network from a file.
func LoadModelFile(path string) (*Network, error) { return nn.LoadFile(path) }

// Compact physically removes the units pruned by the masks installed on
// net (SetPruning) — the form fine-tuned baselines leave them in.
func Compact(net *Network) (*Network, error) { return nn.Compact(net) }

// CompactMasked removes the units masks prune, producing the deployable
// model; net is only read, so it is safe beside serving and pruning.
func CompactMasked(net *Network, masks map[int][]bool) (*Network, error) {
	return nn.CompactMasked(net, masks)
}

// Compiled is a compacted network lowered to a flat op plan with pooled
// scratch; its Infer is bit-identical to the masked forward it replaces.
type Compiled = nn.Compiled

// Compile builds a Compiled for a (network, masks) pair, verifying
// bit-identity against the masked path before returning it.
func Compile(net *Network, masks map[int][]bool) (*Compiled, error) { return nn.Compile(net, masks) }

// --- data -----------------------------------------------------------------

// Dataset is a labeled image set.
type Dataset = data.Dataset

// SynthConfig parameterizes the synthetic class-prototype generator.
type SynthConfig = data.SynthConfig

// Generator produces synthetic datasets with confusion-group structure.
type Generator = data.Generator

// Sets bundles train/val/test/profile splits.
type Sets = data.Sets

// SetSizes gives per-class sample counts per split.
type SetSizes = data.SetSizes

// DefaultSynthConfig returns the harness generator settings for a class count.
func DefaultSynthConfig(classes int) SynthConfig { return data.DefaultSynthConfig(classes) }

// NewGenerator builds class prototypes for cfg.
func NewGenerator(cfg SynthConfig) (*Generator, error) { return data.NewGenerator(cfg) }

// MakeSets draws the four disjoint splits from a generator.
func MakeSets(gen *Generator, sz SetSizes) *Sets { return data.MakeSets(gen, sz) }

// --- training -------------------------------------------------------------

// TrainConfig controls a training run.
type TrainConfig = train.Config

// Eval summarizes classification quality.
type Eval = train.Eval

// DefaultTrainConfig returns the reference training settings.
func DefaultTrainConfig() TrainConfig { return train.DefaultConfig() }

// Train fits net on trainSet; valSet may be nil.
func Train(net *Network, trainSet, valSet *Dataset, cfg TrainConfig) error {
	_, err := train.Train(net, trainSet, valSet, cfg)
	return err
}

// Evaluate reports top-1/top-5/per-class accuracy of net under masks
// (nil = unpruned) on ds.
func Evaluate(net *Network, masks map[int][]bool, ds *Dataset) Eval {
	return train.Evaluate(net, masks, ds)
}

// FineTune briefly retrains a (possibly masked) network.
func FineTune(net *Network, trainSet, valSet *Dataset, epochs int, seed int64) error {
	return train.FineTune(net, trainSet, valSet, epochs, seed)
}

// --- CAP'NN core ------------------------------------------------------------

// Preferences is the user's class subset with usage weights.
type Preferences = core.Preferences

// Params are the ε / Tstart / step knobs of Algorithms 1–2.
type Params = core.Params

// Variant selects CAP'NN-B, -W or -M.
type Variant = core.Variant

// System bundles a trained model with its cloud-side pruning assets.
type System = core.System

// Result reports a pruning run's size and accuracy outcome.
type Result = core.Result

// Monitor tracks on-device predictions to derive preferences.
type Monitor = core.Monitor

// Rates holds class-specific firing-rate matrices.
type Rates = firing.Rates

// The three pruning variants.
const (
	VariantB = core.VariantB
	VariantW = core.VariantW
	VariantM = core.VariantM
)

// DefaultParams returns the paper's settings (ε=3%, Tstart=0.4, step=0.025).
func DefaultParams() Params { return core.DefaultParams() }

// Uniform builds equal-usage preferences over the given classes.
func Uniform(classes []int) Preferences { return core.Uniform(classes) }

// Weighted builds preferences from classes and (normalized) usage weights.
func Weighted(classes []int, weights []float64) (Preferences, error) {
	return core.Weighted(classes, weights)
}

// NewMonitor creates a prediction monitor over numClasses.
func NewMonitor(numClasses int) (*Monitor, error) { return core.NewMonitor(numClasses) }

// SlidingMonitor is a Monitor over only the most recent window
// observations — the view the serving tier's runtime ε-guard uses, so
// old usage cannot mask fresh drift.
type SlidingMonitor = core.SlidingMonitor

// NewSlidingMonitor creates a sliding monitor over numClasses classes
// keeping the most recent window observations.
func NewSlidingMonitor(numClasses, window int) (*SlidingMonitor, error) {
	return core.NewSlidingMonitor(numClasses, window)
}

// NewSystem profiles net (when rates is nil) and prepares it for pruning.
func NewSystem(net *Network, valSet, profileSet *Dataset, rates *Rates, params Params) (*System, error) {
	return core.NewSystem(net, valSet, profileSet, rates, params)
}

// ProfileRates computes class-specific firing rates over the given stages
// (nil stages = the paper's last-6-layers rule).
func ProfileRates(net *Network, profileSet *Dataset, stages []int) (*Rates, error) {
	if stages == nil {
		stages = firing.PrunableStages(net)
	}
	return firing.Compute(net, profileSet, stages)
}

// PrunableStages returns the paper's prunable stage indices for net.
func PrunableStages(net *Network) []int { return firing.PrunableStages(net) }

// --- hardware & energy ------------------------------------------------------

// DeviceConfig describes the TPU-like local device (Fig. 2).
type DeviceConfig = hw.Config

// HWCounts are per-inference operation and memory-access totals.
type HWCounts = hw.Counts

// EnergyComponents are per-operation energies (Table I).
type EnergyComponents = energy.Components

// DefaultDevice returns the edge-scale device used by the experiments.
func DefaultDevice() DeviceConfig { return hw.DefaultConfig() }

// PaperEnergies returns the component energies of the paper's Table I.
func PaperEnergies() EnergyComponents { return energy.PaperTable1() }

// SimulateDevice counts one inference's operations and accesses.
func SimulateDevice(net *Network, dev DeviceConfig) (HWCounts, error) {
	counts, _, err := hw.Simulate(net, dev)
	return counts, err
}

// EnergyOf estimates one inference's energy in picojoules.
func EnergyOf(net *Network, dev DeviceConfig, comp EnergyComponents) (float64, error) {
	return energy.OfNetwork(net, dev, comp)
}

// RelativeEnergy returns the energy of net compacted under masks over
// the unpruned network's.
func RelativeEnergy(net *Network, masks map[int][]bool, dev DeviceConfig, comp EnergyComponents) (float64, error) {
	return energy.RelativeOfMasks(net, masks, dev, comp)
}

// --- baselines ---------------------------------------------------------------

// PruneCriterion selects a class-unaware pruning rule.
type PruneCriterion = baselines.Criterion

// Class-unaware criteria (He et al. [5]-style, Network Trimming [6]-style,
// ThiNet [9]-style).
const (
	ByWeightNorm     = baselines.ByWeightNorm
	ByMeanFiringRate = baselines.ByMeanFiringRate
	ByThiNet         = baselines.ByThiNet
)

// PruneUnaware applies a class-unaware baseline at the given fraction.
func PruneUnaware(net *Network, stages []int, fraction float64, crit PruneCriterion,
	rates *Rates, sampleSet *Dataset) (map[int][]bool, error) {
	return baselines.PruneUnaware(net, stages, fraction, crit, rates, sampleSet)
}

// --- cloud service -----------------------------------------------------------

// CloudServer personalizes models over TCP (Fig. 1a's pruning process).
type CloudServer = cloud.Server

// CloudClient fetches personalized models from a CloudServer, retrying
// transient failures with exponential backoff + full jitter.
type CloudClient = cloud.Client

// CloudRequest / CloudStats are the wire types.
type (
	CloudRequest = cloud.Request
	CloudStats   = cloud.Stats
)

// CloudConfig bounds a CloudServer's exposure to slow, dead or abusive
// peers (read/write deadlines, request size cap, in-flight limit).
type CloudConfig = cloud.Config

// CloudRetry is the client's retry policy.
type CloudRetry = cloud.Retry

// CloudError is the typed error CloudClient.Fetch returns; its Code and
// Retryable distinguish transient faults from permanent request errors.
type CloudError = cloud.Error

// CloudCode classifies a cloud response (ok / bad-request / busy /
// internal).
type CloudCode = cloud.Code

// NewCloudServer wraps a prepared System with default limits.
func NewCloudServer(sys *System) *CloudServer { return cloud.NewServer(sys) }

// NewCloudServerWith wraps a prepared System with explicit limits.
func NewCloudServerWith(sys *System, cfg CloudConfig) *CloudServer {
	return cloud.NewServerWith(sys, cfg)
}

// NewCloudClient builds a client for the given address.
func NewCloudClient(addr string) *CloudClient { return cloud.NewClient(addr) }

// --- inference serving --------------------------------------------------------

// ServeServer is the multi-user inference server: it deduplicates
// personalization work with a mask cache (singleflight-filled, LRU) and
// answers each request with one forward on its entry's compiled plan,
// interactive lane before bulk.
type ServeServer = serve.Server

// ServeClient requests inferences from a ServeServer over TCP.
type ServeClient = serve.Client

// ServeConfig tunes the worker pool, the mask cache, and the admission
// limits.
type ServeConfig = serve.Config

// ServeStats is a snapshot of the serving metrics: cache hits/misses/
// evictions, queue depth, per-stage latency.
type ServeStats = serve.Stats

// ServeResult is one served inference: logits, argmax class, and
// whether its masks were cached.
type ServeResult = serve.Result

// ServeError is the typed serving failure; it reuses CloudCode so
// clients share one retry policy across both services.
type ServeError = serve.Error

// ServeRequest / ServeResponse are the wire types.
type (
	ServeRequest  = serve.WireRequest
	ServeResponse = serve.WireResponse
)

// NewServeServer wraps a prepared System with default serving limits.
func NewServeServer(sys *System) *ServeServer { return serve.NewServer(sys) }

// NewServeServerWith wraps a prepared System with explicit limits.
func NewServeServerWith(sys *System, cfg ServeConfig) *ServeServer {
	return serve.NewServerWith(sys, cfg)
}

// NewServeClient builds an inference client for the given address.
func NewServeClient(addr string) *ServeClient { return serve.NewClient(addr) }

// DefaultServeConfig returns the production serving defaults.
func DefaultServeConfig() ServeConfig { return serve.DefaultConfig() }

// ServeQoS is a request's quality-of-service envelope: deadline,
// priority lane, and tenant. The zero value (no deadline, interactive
// lane, default tenant) reproduces pre-QoS behavior.
type ServeQoS = serve.QoS

// Lane is a request's priority class: interactive traffic is served
// first and may use the full queue; bulk traffic yields under pressure.
type Lane = qos.Lane

// The two priority lanes.
const (
	LaneInteractive = qos.LaneInteractive
	LaneBulk        = qos.LaneBulk
)

// QuotaLimit is one token bucket's shape (rate/s, burst); QuotaLimits a
// tenant's per-lane pair; AdmissionConfig the gateway's full quota set.
type (
	QuotaLimit      = qos.Limit
	QuotaLimits     = qos.LaneLimits
	AdmissionConfig = qos.LimiterConfig
)

// ParseQuotaLimit parses "rate[:burst]" quota flag syntax.
func ParseQuotaLimit(s string) (QuotaLimit, error) { return qos.ParseLimit(s) }

// BreakerState is the repersonalization circuit breaker's state
// (closed / open / half-open), reported in ServeStats.
type BreakerState = serve.BreakerState

// The circuit breaker states.
const (
	BreakerClosed   = serve.BreakerClosed
	BreakerOpen     = serve.BreakerOpen
	BreakerHalfOpen = serve.BreakerHalfOpen
)

// --- cluster tier -------------------------------------------------------------

// Gateway is the sharded serving tier's front door: it routes each
// request's placement key (variant + Preferences.Key) to the serve
// node that owns it on a consistent-hash ring, over pooled persistent
// connections, failing over to the key's next ring replica when a node
// dies and health-checking every node through a closed/open/half-open
// breaker.
type Gateway = cluster.Gateway

// GatewayConfig tunes placement (Seed/VirtualNodes/Replication),
// failover budgets, health probing, and the client-facing limits.
type GatewayConfig = cluster.Config

// GatewayStats snapshots a gateway's routing metrics: ring version,
// request/failover/retry counters, and per-node breaker states with
// probe latencies.
type GatewayStats = cluster.Stats

// GatewayNodeStats is one serve node as the gateway sees it.
type GatewayNodeStats = cluster.NodeStats

// Ring is the immutable consistent-hash ring: placement is a pure
// function of (seed, virtual-node count, member set), so independent
// gateways agree on routing without coordination.
type Ring = cluster.Ring

// NewRing builds a consistent-hash ring over the given member nodes.
func NewRing(seed int64, vnodes int, nodes []string) (*Ring, error) {
	return cluster.NewRing(seed, vnodes, nodes)
}

// NewGateway builds a gateway over the given serve-node addresses and
// starts its health prober.
func NewGateway(nodes []string, cfg GatewayConfig) (*Gateway, error) {
	return cluster.NewGateway(nodes, cfg)
}

// DefaultGatewayConfig returns the production gateway defaults.
func DefaultGatewayConfig() GatewayConfig { return cluster.DefaultConfig() }

// ScrapeGatewayStats fetches a remote gateway's routing stats over the
// wire (the OpStats scrape).
func ScrapeGatewayStats(addr string, timeout time.Duration) (GatewayStats, error) {
	return cluster.ScrapeStats(addr, timeout)
}

// Wire operations a ServeRequest can carry: inference (the zero value),
// a remote stats scrape, or a health probe.
const (
	OpInfer  = serve.OpInfer
	OpStats  = serve.OpStats
	OpHealth = serve.OpHealth
)

// --- observability ------------------------------------------------------------

// MetricsRegistry is the dependency-free metrics registry behind every
// serving-tier stat: counters, gauges, labeled families, and latency
// histograms with Prometheus text exposition (WritePrometheus) and a
// human summary (WriteSummary). serve.Server and cluster.Gateway each
// own one, reachable via their Metrics() accessors.
type MetricsRegistry = metrics.Registry

// EventLog is the bounded structured event ring (sheds, guard trips,
// heals, failovers, breaker transitions) behind
// /debug/events; Events() on a server or gateway returns its log.
type EventLog = metrics.EventLog

// MetricsEvent is one structured observability event.
type MetricsEvent = metrics.Event

// NewMetricsMux mounts the standard observability surface — /metrics,
// /debug/events, and a /debug index — over a registry and event log;
// mount extra endpoints on it before serving.
func NewMetricsMux(reg *MetricsRegistry, log *EventLog) *metrics.Mux {
	return metrics.NewMux(reg, log)
}

// ServeMetrics serves an observability mux on addr in the background,
// returning the bound address and a stop function.
func ServeMetrics(addr string, h http.Handler) (string, func() error, error) {
	return metrics.Serve(addr, h)
}

// ClusterView is the gateway's /debug/cluster document: membership,
// rebalancing totals and per-node health.
type ClusterView = cluster.ClusterView

// --- workload modeling ---------------------------------------------------------

// WorkloadConfig parameterizes the deterministic streaming workload
// model: zipf user popularity over a (possibly huge) population,
// preferences correlated with the dataset's confusion groups, and
// class-skew drift.
type WorkloadConfig = workload.Config

// WorkloadModel compiles a WorkloadConfig into a replayable trace:
// event i is a pure function of (config, i), so million-user traces
// stream in O(1) memory and are bit-identical regardless of access
// order or worker count.
type WorkloadModel = workload.Model

// WorkloadEvent is one trace event: the drawn user, the preferences
// their device claims on the wire, the class of the input they send,
// and whether the event sits in a drift window (claimed preferences
// lagging the actual mix).
type WorkloadEvent = workload.Event

// WorkloadStream is a sequential cursor over a model's trace.
type WorkloadStream = workload.Stream

// WorkloadDrift shapes per-user preference drift: diurnal sway, usage
// bursts, and sudden skew flips whose claimed preferences lag behind
// the actual mix.
type WorkloadDrift = workload.DriftConfig

// NewWorkloadModel validates cfg and compiles the workload model.
func NewWorkloadModel(cfg WorkloadConfig) (*WorkloadModel, error) { return workload.NewModel(cfg) }

// ParseWorkloadDrift parses a -drift flag spec like
// "flip=5000,lag=1000,diurnal=20000,burst-len=64" ("" or "off" =
// stationary).
func ParseWorkloadDrift(spec string) (WorkloadDrift, error) { return workload.ParseDrift(spec) }

// --- crash-safe state store ---------------------------------------------------

// StateStore is the atomic, versioned, CRC-checksummed checkpoint store
// the binaries use to survive kill -9: each commit is an all-or-nothing
// generation, corruption is detected on read and rolled back to the
// newest good generation, and old generations are pruned by retention.
type StateStore = store.Store

// StateTxn stages one generation's artifacts before an atomic commit.
type StateTxn = store.Txn

// StateGeneration is a committed, verified checkpoint generation.
type StateGeneration = store.Generation

// TrainMeta records training progress inside a checkpoint so
// capnn-train resumes instead of starting over.
type TrainMeta = store.TrainMeta

// Canonical artifact names used by the CAP'NN binaries.
const (
	ArtifactModel      = store.ArtifactModel
	ArtifactRates      = store.ArtifactRates
	ArtifactMaskCache  = store.ArtifactMaskCache
	ArtifactTrainMeta  = store.ArtifactTrainMeta
	ArtifactRingConfig = store.ArtifactRingConfig
)

// RingConfig is the persisted cluster-ring configuration (seed,
// virtual nodes, replication, version, members) a Gateway restores at
// startup so placement survives restarts.
type RingConfig = store.RingConfig

// OpenStateStore opens (or creates) a checkpoint store with the default
// retention of DefaultKeep generations.
func OpenStateStore(dir string) (*StateStore, error) { return store.Open(dir) }

// OpenStateStoreKeep opens a checkpoint store retaining the newest keep
// generations.
func OpenStateStoreKeep(dir string, keep int) (*StateStore, error) { return store.OpenKeep(dir, keep) }

// --- fault injection ----------------------------------------------------------

// ChaosPlan configures deterministic, seedable transport fault
// injection (connection drops, mid-stream closes, latency, payload
// corruption) for resilience testing.
type ChaosPlan = faults.Plan

// ParseChaosPlan parses a -chaos style spec, e.g.
// "seed=7,drop=0.1,close=0.2,corrupt=0.2,latency=20ms".
func ParseChaosPlan(spec string) (ChaosPlan, error) { return faults.ParsePlan(spec) }

// WrapChaosListener injects the plan's faults into every connection the
// listener accepts; serve it with CloudServer.Serve.
func WrapChaosListener(ln net.Listener, plan ChaosPlan) net.Listener {
	return faults.WrapListener(ln, plan)
}

// --- cloud device lifecycle ---------------------------------------------------

// CloudDevice models the device-side lifecycle: local inference, the
// monitoring period, drift detection, and repersonalization when the
// user's class usage changes (paper §II).
type CloudDevice = cloud.Device

// NewCloudDevice wraps a client and the initial (commodity) model.
func NewCloudDevice(client *CloudClient, initial *Network, numClasses int, variant string) (*CloudDevice, error) {
	return cloud.NewDevice(client, initial, numClasses, variant)
}

// --- energy breakdown / packed rates -----------------------------------------

// LayerEnergy is one layer's energy contribution by component family.
type LayerEnergy = energy.LayerEnergy

// EnergyBreakdown returns per-layer energies and the total for one
// inference on the device.
func EnergyBreakdown(net *Network, dev DeviceConfig, comp EnergyComponents) ([]LayerEnergy, float64, error) {
	return energy.Breakdown(net, dev, comp)
}

// PackedRates is the bit-packed cloud storage format for firing rates
// (paper §V-C, 3-bit by default).
type PackedRates = firing.PackedRates

// PackRates quantizes and bit-packs firing rates for cloud storage.
func PackRates(r *Rates, bits int) (*PackedRates, error) { return firing.Pack(r, bits) }

// RateOverhead reports the §V-C memory overhead of storing rates at the
// given bit width against a model with paramCount 16-bit parameters.
func RateOverhead(r *Rates, bits, paramCount int) (firing.Overhead, error) {
	return firing.MemoryOverhead(r, bits, paramCount)
}

// ThiNetGreedy runs the faithful greedy ThiNet [9] channel selection for
// one stage (PruneUnaware's ByThiNet is its cheap one-shot form).
func ThiNetGreedy(net *Network, stage int, fraction float64, sampleSet *Dataset, locations int, seed int64) ([]bool, error) {
	return baselines.ThiNetGreedy(net, stage, fraction, sampleSet, locations, seed)
}
