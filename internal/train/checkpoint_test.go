package train

import (
	"bytes"
	"errors"
	"testing"

	"capnn/internal/data"
	"capnn/internal/nn"
)

func checkpointFixture(t *testing.T) (*data.Dataset, func() *nn.Network) {
	t.Helper()
	gen, err := data.NewGenerator(data.SynthConfig{
		Classes: 3, Groups: 3, H: 8, W: 8, GroupMix: 0, NoiseStd: 0.1, MaxShift: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	trainSet := gen.Generate(18, 1)
	build := func() *nn.Network {
		return nn.NewBuilder(1, 8, 8, 7).
			Conv(4).ReLU().Pool().
			Flatten().Dense(16).ReLU().Dense(3).MustBuild()
	}
	return trainSet, build
}

func TestCheckpointCallbackCadence(t *testing.T) {
	trainSet, build := checkpointFixture(t)
	var at []int
	cfg := Config{Epochs: 7, BatchSize: 8, LR: 0.05, Seed: 3, CheckpointEvery: 3,
		Checkpoint: func(epoch int, net *nn.Network) error {
			at = append(at, epoch)
			return nil
		}}
	if _, err := Train(build(), trainSet, nil, cfg); err != nil {
		t.Fatal(err)
	}
	// Every third epoch, plus the final epoch unconditionally.
	want := []int{3, 6, 7}
	if len(at) != len(want) {
		t.Fatalf("checkpoints at %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("checkpoints at %v, want %v", at, want)
		}
	}
}

func TestCheckpointErrorAbortsWithHistory(t *testing.T) {
	trainSet, build := checkpointFixture(t)
	boom := errors.New("disk full")
	cfg := Config{Epochs: 6, BatchSize: 8, LR: 0.05, Seed: 3, CheckpointEvery: 2,
		Checkpoint: func(epoch int, net *nn.Network) error {
			if epoch == 4 {
				return boom
			}
			return nil
		}}
	hist, err := Train(build(), trainSet, nil, cfg)
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v, want wrapped %v", err, boom)
	}
	if len(hist) != 4 {
		t.Fatalf("history has %d epochs, want the 4 completed before the failed checkpoint", len(hist))
	}
}

// TestResumeMatchesUninterruptedRun is the crash-recovery contract for
// training: a run killed after epoch 3 and resumed with StartEpoch=4
// must land on bit-identical weights to the uninterrupted run, because
// the shuffle RNG and LR decay advance through the skipped epochs.
// Momentum is zero so the optimizer is stateless and exact equality is
// achievable (with momentum the schedules still align but the moment
// buffers restart cold).
func TestResumeMatchesUninterruptedRun(t *testing.T) {
	trainSet, build := checkpointFixture(t)
	base := Config{Epochs: 6, BatchSize: 8, LR: 0.05, Momentum: 0, LRDecayEvery: 2, Seed: 3}

	full := build()
	fullHist, err := Train(full, trainSet, nil, base)
	if err != nil {
		t.Fatal(err)
	}

	// "Crash" after epoch 3: train the same prefix as a 3-epoch run
	// (identical shuffles and LR schedule for epochs 1–3), then resume.
	resumed := build()
	prefix := base
	prefix.Epochs = 3
	if _, err := Train(resumed, trainSet, nil, prefix); err != nil {
		t.Fatal(err)
	}
	cont := base
	cont.StartEpoch = 4
	contHist, err := Train(resumed, trainSet, nil, cont)
	if err != nil {
		t.Fatal(err)
	}

	if len(contHist) != 3 {
		t.Fatalf("resumed history %+v, want exactly epochs 4-6", contHist)
	}
	for i, stat := range contHist {
		if want := fullHist[3+i]; stat.LearnRat != want.LearnRat {
			t.Fatalf("epoch %d resumed lr %v, want %v (schedule misaligned)", 4+i, stat.LearnRat, want.LearnRat)
		}
		if want := fullHist[3+i]; stat.Loss != want.Loss {
			t.Fatalf("epoch %d resumed loss %v, want %v (shuffle misaligned)", 4+i, stat.Loss, want.Loss)
		}
	}

	var a, b bytes.Buffer
	if err := nn.Save(&a, full); err != nil {
		t.Fatal(err)
	}
	if err := nn.Save(&b, resumed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("resumed weights differ from the uninterrupted run")
	}
}

func TestStartEpochPastEndTrainsNothing(t *testing.T) {
	trainSet, build := checkpointFixture(t)
	net := build()
	var before bytes.Buffer
	if err := nn.Save(&before, net); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Epochs: 3, BatchSize: 8, LR: 0.05, Seed: 3, StartEpoch: 4}
	hist, err := Train(net, trainSet, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 0 {
		t.Fatalf("history %+v, want empty when every epoch is already done", hist)
	}
	var after bytes.Buffer
	if err := nn.Save(&after, net); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("fully-resumed run still mutated the network")
	}
}
