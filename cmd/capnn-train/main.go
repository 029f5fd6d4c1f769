// Command capnn-train trains (or loads from the fixture cache) a CAP'NN
// reference model and reports its test accuracy.
//
// With -state it trains crash-safely: every -checkpoint-every epochs it
// atomically replaces the directory's CRC-checksummed checkpoint file
// (progress + model), and on startup it resumes from it — a kill -9
// loses at most the epochs since the last checkpoint, and a corrupted
// checkpoint rolls back to checkpoint.prev, the one before it, instead
// of crashing:
//
//	capnn-train -model cifar10 -epochs 8 -state /var/lib/capnn/train
package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
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
	epochs := flag.Int("epochs", 0, "override training epochs (0 = fixture default)")
	stateDir := flag.String("state", "", "state directory: write crash-safe checkpoints there and resume from the last good one (empty = fixture cache only)")
	ckptEvery := flag.Int("checkpoint-every", 1, "with -state, commit a checkpoint every N completed epochs")
	perf := profiling.AddFlags()
	flag.Parse()
	if err := perf.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg, err := exp.FixtureByName(*model)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
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

// trainMeta is how far training had progressed at a checkpoint: the
// completed epochs (a resumed run starts at EpochsDone+1), and the
// run's epoch count and seed, so a resumed run detects changed flags.
// A checkpoint body is its three fields as little-endian 64-bit
// integers, then the nn.Save bytes of the model.
type trainMeta struct {
	EpochsDone, TotalEpochs int
	Seed                    int64
}

const metaSize = 24

func encodeCheckpoint(m trainMeta, net *nn.Network) ([]byte, error) {
	b := binary.LittleEndian.AppendUint64(nil, uint64(m.EpochsDone))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.TotalEpochs))
	buf := bytes.NewBuffer(binary.LittleEndian.AppendUint64(b, uint64(m.Seed)))
	err := nn.Save(buf, net)
	return buf.Bytes(), err
}

// loadCheckpoint reads and decodes the checkpoint file at path.
func loadCheckpoint(path string) (trainMeta, *nn.Network, error) {
	body, err := store.ReadFile(path)
	if err != nil {
		return trainMeta{}, nil, err
	}
	if len(body) < metaSize {
		return trainMeta{}, nil, fmt.Errorf("%s: %d-byte body holds no progress record", path, len(body))
	}
	m := trainMeta{
		EpochsDone:  int(binary.LittleEndian.Uint64(body)),
		TotalEpochs: int(binary.LittleEndian.Uint64(body[8:])),
		Seed:        int64(binary.LittleEndian.Uint64(body[16:])),
	}
	net, err := nn.Load(bytes.NewReader(body[metaSize:]))
	if err != nil {
		return trainMeta{}, nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, net, nil
}

// trainCheckpointed runs the training loop against the checkpoint file
// in dir: it resumes from the file (from checkpoint.prev when the file
// fails its check) and rewrites it every `every` completed epochs.
func trainCheckpointed(cfg exp.FixtureConfig, dir string, every int) (*nn.Network, *data.Sets, error) {
	gen, err := data.NewGenerator(cfg.Synth)
	if err != nil {
		return nil, nil, err
	}
	sets := data.MakeSets(gen, cfg.Sizes)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	path := filepath.Join(dir, "checkpoint")

	tc := cfg.Train
	tc.Logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	tc.CheckpointEvery = every

	meta, net, err := loadCheckpoint(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		fmt.Printf("capnn-train: %v; rolling back to checkpoint.prev\n", err)
		meta, net, err = loadCheckpoint(path + ".prev")
	}
	switch {
	case err == nil:
		if meta.Seed != tc.Seed || meta.TotalEpochs != tc.Epochs {
			return nil, nil, fmt.Errorf(
				"capnn-train: the checkpoint in %s was written by a run with seed=%d epochs=%d, current flags give seed=%d epochs=%d; use a fresh -state directory",
				dir, meta.Seed, meta.TotalEpochs, tc.Seed, tc.Epochs)
		}
		tc.StartEpoch = meta.EpochsDone + 1
		if meta.EpochsDone >= tc.Epochs {
			fmt.Printf("capnn-train: recovered checkpoint: training already complete (%d/%d epochs)\n",
				meta.EpochsDone, tc.Epochs)
			return net, sets, nil
		}
		fmt.Printf("capnn-train: recovered checkpoint: resuming at epoch %d/%d\n", tc.StartEpoch, tc.Epochs)
	default:
		if !errors.Is(err, fs.ErrNotExist) {
			fmt.Printf("capnn-train: %v\n", err)
		}
		if net, err = nn.BuildVGG(cfg.VGG); err != nil {
			return nil, nil, err
		}
		fmt.Printf("capnn-train: no usable checkpoint in %s, training from scratch\n", dir)
	}

	tc.Checkpoint = func(epoch int, n *nn.Network) error {
		body, err := encodeCheckpoint(trainMeta{EpochsDone: epoch, TotalEpochs: tc.Epochs, Seed: tc.Seed}, n)
		if err != nil {
			return err
		}
		if err := store.WriteFile(path, body); err != nil {
			return err
		}
		fmt.Printf("capnn-train: committed checkpoint (epoch %d/%d)\n", epoch, tc.Epochs)
		return nil
	}
	if _, err := train.Train(net, sets.Train, sets.Val, tc); err != nil {
		return nil, nil, err
	}
	return net, sets, nil
}
