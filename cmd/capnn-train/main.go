// Command capnn-train trains (or loads from the fixture cache) a CAP'NN
// reference model and reports its test accuracy.
//
// With -state it trains crash-safely: every -checkpoint-every epochs it
// commits an atomic, CRC-checksummed checkpoint (model + progress) to
// the given store directory, and on startup it resumes from the latest
// good generation — a kill -9 loses at most the epochs since the last
// commit, and a corrupted checkpoint rolls back to the previous one
// instead of crashing:
//
//	capnn-train -model cifar10 -epochs 8 -state /var/lib/capnn/train
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"capnn/internal/data"
	"capnn/internal/exp"
	"capnn/internal/nn"
	"capnn/internal/profiling"
	"capnn/internal/store"
	"capnn/internal/train"
)

func main() {
	model := flag.String("model", "imagenet20", "fixture to train: imagenet20 or cifar10")
	noise := flag.Float64("noise", 0, "override generator NoiseStd (0 = fixture default)")
	groupMix := flag.Float64("groupmix", 0, "override generator GroupMix (0 = fixture default)")
	epochs := flag.Int("epochs", 0, "override training epochs (0 = fixture default)")
	stateDir := flag.String("state", "", "checkpoint store directory: commit crash-safe checkpoints and resume from the latest good generation (empty = fixture cache only)")
	ckptEvery := flag.Int("checkpoint-every", 1, "with -state, commit a checkpoint every N completed epochs")
	perf := profiling.AddFlags()
	flag.Parse()
	// Negated in-range tests, so NaN is refused with the rest.
	if !(*noise >= 0 && *noise <= math.MaxFloat64) || !(*groupMix >= 0 && *groupMix < 1) {
		fmt.Fprintln(os.Stderr, "capnn-train: -noise must be finite and non-negative, -groupmix in [0,1)")
		os.Exit(2)
	}
	if err := perf.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var cfg exp.FixtureConfig
	switch *model {
	case "imagenet20":
		cfg = exp.ImageNet20Config()
	case "cifar10":
		cfg = exp.CIFAR10Config()
	default:
		fmt.Fprintf(os.Stderr, "unknown model %q\n", *model)
		os.Exit(2)
	}
	if *noise > 0 {
		cfg.Synth.NoiseStd = *noise
	}
	if *groupMix > 0 {
		cfg.Synth.GroupMix = *groupMix
	}
	if *epochs > 0 {
		cfg.Train.Epochs = *epochs
	}
	start := time.Now()
	var net *nn.Network
	var testSet *data.Dataset
	if *stateDir != "" {
		n, sets, err := trainCheckpointed(cfg, *stateDir, *ckptEvery)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		net, testSet = n, sets.Test
	} else {
		fx, err := exp.Load(cfg, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		net, testSet = fx.Net, fx.Sets.Test
	}
	ev := train.Evaluate(net, nil, testSet)
	fmt.Printf("%s ready in %v: test top-1 %.3f  top-5 %.3f  params %d\n",
		cfg.Name, time.Since(start).Round(time.Second), ev.Top1, ev.Top5, net.ParamCount())
	if err := perf.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// trainCheckpointed runs the training loop against a crash-safe store:
// it resumes from the newest good generation (rolling past any corrupt
// one) and commits model+progress every `every` completed epochs.
func trainCheckpointed(cfg exp.FixtureConfig, dir string, every int) (*nn.Network, *data.Sets, error) {
	gen, err := data.NewGenerator(cfg.Synth)
	if err != nil {
		return nil, nil, err
	}
	sets := data.MakeSets(gen, cfg.Sizes)
	st, err := store.Open(dir)
	if err != nil {
		return nil, nil, err
	}

	tc := cfg.Train
	tc.Logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	tc.CheckpointEvery = every

	var net *nn.Network
	if g, err := st.Latest(); err == nil && g.Has(store.ArtifactTrainMeta) {
		meta, err := g.TrainMeta()
		if err != nil {
			return nil, nil, err
		}
		if meta.Seed != tc.Seed || meta.TotalEpochs != tc.Epochs {
			return nil, nil, fmt.Errorf(
				"capnn-train: checkpoint generation %d was written by a run with seed=%d epochs=%d, current flags give seed=%d epochs=%d; use a fresh -state directory",
				g.Number, meta.Seed, meta.TotalEpochs, tc.Seed, tc.Epochs)
		}
		net, err = g.Network(store.ArtifactModel)
		if err != nil {
			return nil, nil, err
		}
		tc.StartEpoch = meta.EpochsDone + 1
		if meta.EpochsDone >= tc.Epochs {
			fmt.Printf("capnn-train: recovered generation %d: training already complete (%d/%d epochs)\n",
				g.Number, meta.EpochsDone, tc.Epochs)
			return net, sets, nil
		}
		fmt.Printf("capnn-train: recovered generation %d: resuming at epoch %d/%d\n",
			g.Number, tc.StartEpoch, tc.Epochs)
	} else {
		if net, err = nn.BuildVGG(cfg.VGG); err != nil {
			return nil, nil, err
		}
		fmt.Printf("capnn-train: no usable checkpoint in %s, training from scratch\n", dir)
	}

	tc.Checkpoint = func(epoch int, n *nn.Network) error {
		txn, err := st.Begin()
		if err != nil {
			return err
		}
		defer txn.Abort()
		if err := txn.PutNetwork(store.ArtifactModel, n); err != nil {
			return err
		}
		if err := txn.PutTrainMeta(store.TrainMeta{EpochsDone: epoch, TotalEpochs: tc.Epochs, Seed: tc.Seed}); err != nil {
			return err
		}
		if err := txn.Commit(); err != nil {
			return err
		}
		fmt.Printf("capnn-train: committed checkpoint generation %d (epoch %d/%d)\n",
			txn.Generation(), epoch, tc.Epochs)
		return nil
	}
	if _, err := train.Train(net, sets.Train, sets.Val, tc); err != nil {
		return nil, nil, err
	}
	return net, sets, nil
}
