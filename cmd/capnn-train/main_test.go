package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"capnn/internal/nn"
	"capnn/internal/store"
)

// A checkpoint reads back with its progress and its model bit for bit,
// a negative seed included, and one whose body is too short for the
// progress record is refused.
func TestCheckpointRoundTrip(t *testing.T) {
	net, err := nn.NewBuilder(1, 6, 6, 5).Conv(3).ReLU().Flatten().Dense(4).Build()
	if err != nil {
		t.Fatal(err)
	}
	want := trainMeta{EpochsDone: 3, TotalEpochs: 10, Seed: -42}
	body, err := encodeCheckpoint(want, net)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "checkpoint")
	if err := store.WriteFile(path, body); err != nil {
		t.Fatal(err)
	}
	got, loaded, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("progress %+v, want %+v", got, want)
	}
	var a, b bytes.Buffer
	if err := nn.Save(&a, net); err != nil {
		t.Fatal(err)
	}
	if err := nn.Save(&b, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("model changed through the checkpoint")
	}

	if err := store.WriteFile(path, body[:metaSize-1]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadCheckpoint(path); err == nil {
		t.Fatal("a body without a whole progress record loaded")
	}
}
