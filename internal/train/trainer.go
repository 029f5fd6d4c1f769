package train

import (
	"fmt"
	"math/rand"

	"capnn/internal/data"
	"capnn/internal/nn"
)

// Config controls a training run. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	Epochs      int
	BatchSize   int
	LR          float64
	Momentum    float64
	WeightDecay float64
	// Optimizer selects "sgd" (default) or "adam". Adam ignores
	// Momentum and uses the standard β parameters.
	Optimizer string
	// LRDecayEvery halves the learning rate every this many epochs
	// (0 disables decay).
	LRDecayEvery int
	// Seed drives shuffling.
	Seed int64
	// Logf, when non-nil, receives one progress line per epoch.
	Logf func(format string, args ...any)

	// StartEpoch resumes an interrupted run at this epoch (1-based).
	// Epochs before it are skipped, but the shuffle RNG and LR decay
	// still advance through them so the resumed schedule lines up with
	// the uninterrupted one. Note the optimizer state (momentum/Adam
	// moments) restarts cold — the resumed run is schedule-aligned, not
	// bit-identical to an uninterrupted one. 0 or 1 trains from scratch.
	StartEpoch int
	// Checkpoint, when non-nil, runs after every CheckpointEvery-th
	// completed epoch (and always after the final one) with the network
	// in inference mode. Returning an error aborts training, preserving
	// the history accumulated so far.
	Checkpoint func(epoch int, net *nn.Network) error
	// CheckpointEvery gates Checkpoint; 0 or negative means every epoch.
	CheckpointEvery int
}

// DefaultConfig returns the settings used to train the reference models.
func DefaultConfig() Config {
	return Config{
		Epochs:       18,
		BatchSize:    16,
		LR:           0.05,
		Momentum:     0.9,
		WeightDecay:  5e-4,
		LRDecayEvery: 6,
		Seed:         1,
	}
}

// EpochStat records one epoch's outcome.
type EpochStat struct {
	Epoch    int
	Loss     float64
	ValTop1  float64
	LearnRat float64
}

// Train fits net on trainSet, reporting validation top-1 each epoch.
// It returns the per-epoch history.
func Train(net *nn.Network, trainSet, valSet *data.Dataset, cfg Config) ([]EpochStat, error) {
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 || cfg.LR <= 0 {
		return nil, fmt.Errorf("train: bad config %+v", cfg)
	}
	if err := trainSet.Validate(); err != nil {
		return nil, err
	}
	var opt Stepper
	var lr *float64
	switch cfg.Optimizer {
	case "", "sgd":
		o := NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay)
		opt, lr = o, &o.LR
	case "adam":
		o := NewAdam(cfg.LR, cfg.WeightDecay)
		opt, lr = o, &o.LR
	default:
		return nil, fmt.Errorf("train: unknown optimizer %q", cfg.Optimizer)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, trainSet.Len())
	for i := range order {
		order[i] = i
	}
	var history []EpochStat
	trainer := NewTrainer(net, opt, 0)
	defer trainer.Close()
	checkpointEvery := cfg.CheckpointEvery
	if checkpointEvery <= 0 {
		checkpointEvery = 1
	}
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		if cfg.LRDecayEvery > 0 && epoch > 1 && (epoch-1)%cfg.LRDecayEvery == 0 {
			*lr /= 2
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		if epoch < cfg.StartEpoch {
			// Resume: this epoch ran before the interruption. The shuffle
			// and LR decay above still happened, so epoch StartEpoch sees
			// the same order and learning rate it would have originally.
			continue
		}
		epochLoss, batches := 0.0, 0
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			loss, err := trainer.Step(trainSet, order[start:end])
			if err != nil {
				return nil, err
			}
			epochLoss += loss
			batches++
		}
		stat := EpochStat{Epoch: epoch, Loss: epochLoss / float64(batches), LearnRat: *lr}
		if valSet != nil && valSet.Len() > 0 {
			stat.ValTop1 = Evaluate(net, nil, valSet).Top1
		}
		history = append(history, stat)
		if cfg.Logf != nil {
			cfg.Logf("epoch %2d/%d  loss %.4f  val-top1 %.3f  lr %.4f",
				epoch, cfg.Epochs, stat.Loss, stat.ValTop1, stat.LearnRat)
		}
		if cfg.Checkpoint != nil && (epoch%checkpointEvery == 0 || epoch == cfg.Epochs) {
			if err := cfg.Checkpoint(epoch, net); err != nil {
				return history, fmt.Errorf("train: checkpoint at epoch %d: %w", epoch, err)
			}
		}
	}
	return history, nil
}

// FineTune runs a brief training pass (used by the class-unaware
// baselines of Table II to recover accuracy after pruning, mirroring the
// "already-pruned, retrained models" the paper stacks CAP'NN onto).
// A pruned model is fine-tuned compacted — nn.CompactMasked first, then
// FineTune on the result — so pruned units are absent, not silenced.
//
// That is the arithmetic of fine-tuning the full network with the pruned
// units held at zero, to the bit (TestFineTuneCompactedMatchesMasked).
func FineTune(net *nn.Network, trainSet, valSet *data.Dataset, epochs int, seed int64) error {
	cfg := DefaultConfig()
	cfg.Epochs = epochs
	cfg.LR = 0.01
	cfg.LRDecayEvery = 0
	cfg.Seed = seed
	_, err := Train(net, trainSet, valSet, cfg)
	return err
}
