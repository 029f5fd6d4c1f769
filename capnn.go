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
// A typical flow (examples/quickstart runs it end to end):
//
//	net := capnn.NewBuilder(1, 12, 12, 1).Conv(8).ReLU().Pool().Flatten().Dense(8).MustBuild()
//	capnn.Train(net, sets.Train, sets.Val, capnn.DefaultTrainConfig())
//	sys, _ := capnn.NewSystem(net, sets.Val, sets.Profile, nil, capnn.DefaultParams())
//	prefs := capnn.Uniform([]int{3, 7})                        // user's classes
//	res, _ := sys.Personalize(capnn.VariantM, prefs, sets.Test) // prune + measure
//	fmt.Println(res.RelativeSize, res.Top1, res.BaseTop1)
//
// The heavy lifting lives in internal packages (tensor math, the NN
// substrate, firing-rate profiling, the pruning algorithms, the TPU-like
// device simulator, the analytical energy model, the class-unaware
// baselines, the cloud personalization service, and the serving and
// cluster tiers the cmd binaries run); this package re-exports what the
// examples use.
package capnn

import (
	"io"
	"net"

	"capnn/internal/baselines"
	"capnn/internal/cloud"
	"capnn/internal/core"
	"capnn/internal/data"
	"capnn/internal/energy"
	"capnn/internal/faults"
	"capnn/internal/firing"
	"capnn/internal/hw"
	"capnn/internal/nn"
	"capnn/internal/train"
	"capnn/internal/workload"
)

// --- model substrate ------------------------------------------------------

// Network is a feed-forward CNN with prunable units.
type Network = nn.Network

// NewBuilder starts a custom network for [c,h,w] inputs with a seed.
func NewBuilder(c, h, w int, seed int64) *nn.Builder { return nn.NewBuilder(c, h, w, seed) }

// SaveModel serializes a network (configuration + weights).
func SaveModel(w io.Writer, net *Network) error { return nn.Save(w, net) }

// LoadModel reads a network written by SaveModel.
func LoadModel(r io.Reader) (*Network, error) { return nn.Load(r) }

// CompactMasked removes the units masks prune, producing the deployable
// (or fine-tunable) model; net is only read, so it is safe beside
// serving and pruning.
func CompactMasked(net *Network, masks map[int][]bool) (*Network, error) {
	return nn.CompactMasked(net, masks)
}

// --- data -----------------------------------------------------------------

// SetSizes gives per-class sample counts per split.
type SetSizes = data.SetSizes

// DefaultSynthConfig returns the harness generator settings for a class count.
func DefaultSynthConfig(classes int) data.SynthConfig { return data.DefaultSynthConfig(classes) }

// NewGenerator builds class prototypes for cfg.
func NewGenerator(cfg data.SynthConfig) (*data.Generator, error) { return data.NewGenerator(cfg) }

// MakeSets draws the four disjoint splits from a generator.
func MakeSets(gen *data.Generator, sz SetSizes) *data.Sets { return data.MakeSets(gen, sz) }

// --- training -------------------------------------------------------------

// DefaultTrainConfig returns the reference training settings.
func DefaultTrainConfig() train.Config { return train.DefaultConfig() }

// Train fits net on trainSet; valSet may be nil.
func Train(net *Network, trainSet, valSet *data.Dataset, cfg train.Config) error {
	_, err := train.Train(net, trainSet, valSet, cfg)
	return err
}

// Evaluate reports top-1/top-5/per-class accuracy of net under masks
// (nil = unpruned) on ds.
func Evaluate(net *Network, masks map[int][]bool, ds *data.Dataset) train.Eval {
	return train.Evaluate(net, masks, ds)
}

// FineTune briefly retrains a network; fine-tune a pruned model by
// passing it through CompactMasked first.
func FineTune(net *Network, trainSet, valSet *data.Dataset, epochs int, seed int64) error {
	return train.FineTune(net, trainSet, valSet, epochs, seed)
}

// --- CAP'NN core ------------------------------------------------------------

// Variant selects CAP'NN-B, -W or -M.
type Variant = core.Variant

// The three pruning variants.
const (
	VariantB = core.VariantB
	VariantW = core.VariantW
	VariantM = core.VariantM
)

// DefaultParams returns the paper's settings (ε=3%, Tstart=0.4, step=0.025).
func DefaultParams() core.Params { return core.DefaultParams() }

// Uniform builds equal-usage preferences over the given classes.
func Uniform(classes []int) core.Preferences { return core.Uniform(classes) }

// Weighted builds preferences from classes and (normalized) usage weights.
func Weighted(classes []int, weights []float64) (core.Preferences, error) {
	return core.Weighted(classes, weights)
}

// NewMonitor creates a prediction monitor over numClasses.
func NewMonitor(numClasses int) (*core.Monitor, error) { return core.NewMonitor(numClasses) }

// NewSystem profiles net (when rates is nil) and prepares it for pruning.
func NewSystem(net *Network, valSet, profileSet *data.Dataset, rates *firing.Rates, params core.Params) (*core.System, error) {
	return core.NewSystem(net, valSet, profileSet, rates, params)
}

// ProfileRates computes class-specific firing rates over the given stages
// (nil stages = the paper's last-6-layers rule).
func ProfileRates(net *Network, profileSet *data.Dataset, stages []int) (*firing.Rates, error) {
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

// DefaultDevice returns the edge-scale device used by the experiments.
func DefaultDevice() DeviceConfig { return hw.DefaultConfig() }

// PaperEnergies returns the component energies of the paper's Table I.
func PaperEnergies() energy.Components { return energy.PaperTable1() }

// SimulateDevice counts one inference's operations and accesses.
func SimulateDevice(net *Network, dev DeviceConfig) (hw.Counts, error) {
	counts, _, err := hw.Simulate(net, dev)
	return counts, err
}

// EnergyOf estimates one inference's energy in picojoules.
func EnergyOf(net *Network, dev DeviceConfig, comp energy.Components) (float64, error) {
	return energy.OfNetwork(net, dev, comp)
}

// RelativeEnergy returns the energy of net compacted under masks over
// the unpruned network's.
func RelativeEnergy(net *Network, masks map[int][]bool, dev DeviceConfig, comp energy.Components) (float64, error) {
	return energy.RelativeOfMasks(net, masks, dev, comp)
}

// LayerEnergy is one layer's energy contribution by component family.
type LayerEnergy = energy.LayerEnergy

// EnergyBreakdown returns per-layer energies and the total for one
// inference on the device.
func EnergyBreakdown(net *Network, dev DeviceConfig, comp energy.Components) ([]LayerEnergy, float64, error) {
	return energy.Breakdown(net, dev, comp)
}

// PackRates quantizes and bit-packs firing rates for cloud storage
// (paper §V-C, 3-bit by default).
func PackRates(r *firing.Rates, bits int) (*firing.PackedRates, error) { return firing.Pack(r, bits) }

// RateOverhead reports the §V-C memory overhead of storing rates at the
// given bit width against a model with paramCount 16-bit parameters.
func RateOverhead(r *firing.Rates, bits, paramCount int) (firing.Overhead, error) {
	return firing.MemoryOverhead(r, bits, paramCount)
}

// --- baselines ---------------------------------------------------------------

// Class-unaware criteria (He et al. [5]-style, ThiNet [9]-style).
const (
	ByWeightNorm = baselines.ByWeightNorm
	ByThiNet     = baselines.ByThiNet
)

// PruneUnaware applies a class-unaware baseline at the given fraction.
func PruneUnaware(net *Network, stages []int, fraction float64, crit baselines.Criterion,
	rates *firing.Rates, sampleSet *data.Dataset) (map[int][]bool, error) {
	return baselines.PruneUnaware(net, stages, fraction, crit, rates, sampleSet)
}

// --- cloud service -----------------------------------------------------------

// CloudRequest is the cloud personalization request.
type CloudRequest = cloud.Request

// NewCloudServer wraps a prepared System with default limits; it
// personalizes models over TCP (Fig. 1a's pruning process).
func NewCloudServer(sys *core.System) *cloud.Server { return cloud.NewServer(sys) }

// NewCloudClient builds a client for the given address that fetches
// personalized models, retrying transient failures with exponential
// backoff + full jitter.
func NewCloudClient(addr string) *cloud.Client { return cloud.NewClient(addr) }

// --- fault injection ----------------------------------------------------------

// ParseChaosPlan parses a -chaos style spec, e.g.
// "seed=7,drop=0.1,close=0.2,corrupt=0.2,latency=20ms": deterministic,
// seedable transport fault injection for resilience testing.
func ParseChaosPlan(spec string) (faults.Plan, error) { return faults.ParsePlan(spec) }

// WrapChaosListener injects the plan's faults into every connection the
// listener accepts; serve it with the cloud server's Serve.
func WrapChaosListener(ln net.Listener, plan faults.Plan) net.Listener {
	return faults.WrapListener(ln, plan)
}

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

// NewWorkloadModel validates cfg and compiles the workload model.
func NewWorkloadModel(cfg WorkloadConfig) (*WorkloadModel, error) { return workload.NewModel(cfg) }

// ParseWorkloadDrift parses a -drift flag spec like
// "flip=5000,lag=1000,diurnal=20000,burst-len=64" ("" or "off" =
// stationary).
func ParseWorkloadDrift(spec string) (workload.DriftConfig, error) { return workload.ParseDrift(spec) }
