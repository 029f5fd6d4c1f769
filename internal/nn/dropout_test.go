package nn

import (
	"bytes"
	"math"
	"testing"
)

func TestDropoutIdentityAtInference(t *testing.T) {
	d, err := NewDropout("d", []int{4}, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput([]int{3, 4}, 1)
	out := d.Forward(x)
	for i, v := range x.Data() {
		if out.Data()[i] != v {
			t.Fatal("inference-mode dropout not identity")
		}
	}
	// Backward is identity too.
	g := randInput([]int{3, 4}, 2)
	back := d.Backward(g)
	for i, v := range g.Data() {
		if back.Data()[i] != v {
			t.Fatal("inference-mode backward not identity")
		}
	}
}

func TestDropoutTrainingDropsAndRescales(t *testing.T) {
	d, err := NewDropout("d", []int{1000}, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	d.SetTraining(true)
	x := randInput([]int{1, 1000}, 3)
	x.Fill(1)
	out := d.Forward(x)
	zeros, scaled := 0, 0
	for _, v := range out.Data() {
		switch {
		case v == 0:
			zeros++
		case math.Abs(v-2) < 1e-12: // 1/(1-0.5)
			scaled++
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Fatalf("dropped %d of 1000 at p=0.5", zeros)
	}
	// Expectation preserved: mean ≈ 1.
	mean := out.Sum() / 1000
	if math.Abs(mean-1) > 0.15 {
		t.Fatalf("inverted dropout mean %v, want ≈1", mean)
	}
	if zeros+scaled != 1000 {
		t.Fatal("outputs not partitioned into dropped/rescaled")
	}
}

func TestDropoutBackwardUsesForwardMask(t *testing.T) {
	d, _ := NewDropout("d", []int{50}, 0.4, 9)
	d.SetTraining(true)
	x := randInput([]int{1, 50}, 4)
	out := d.Forward(x)
	g := randInput([]int{1, 50}, 5)
	back := d.Backward(g)
	for i := range out.Data() {
		if out.Data()[i] == 0 && back.Data()[i] != 0 {
			t.Fatal("gradient flowed through dropped unit")
		}
	}
}

func TestDropoutValidation(t *testing.T) {
	if _, err := NewDropout("d", []int{4}, 1.0, 1); err == nil {
		t.Fatal("p=1 accepted")
	}
	if _, err := NewDropout("d", []int{4}, -0.1, 1); err == nil {
		t.Fatal("negative p accepted")
	}
}

func TestDropoutInNetworkTrainToggle(t *testing.T) {
	net := NewBuilder(1, 4, 4, 11).Flatten().Dense(8).ReLU().Dropout(0.5).Dense(3).MustBuild()
	x := randInput([]int{1, 1, 4, 4}, 6)
	a := net.Forward(x).Clone()
	b := net.Forward(x)
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("inference passes differ with dropout off")
		}
	}
	net.SetTraining(true)
	c := net.Forward(x)
	diff := false
	for i := range a.Data() {
		if a.Data()[i] != c.Data()[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("training-mode dropout changed nothing (p=0.5, 8 units — astronomically unlikely)")
	}
	net.SetTraining(false)
	d := net.Forward(x)
	for i := range a.Data() {
		if a.Data()[i] != d.Data()[i] {
			t.Fatal("SetTraining(false) did not restore determinism")
		}
	}
}

func TestDropoutSerializeAndCompact(t *testing.T) {
	net := NewBuilder(1, 4, 4, 12).Conv(4).ReLU().Flatten().Dropout(0.3).Dense(3).MustBuild()
	var buf bytes.Buffer
	if err := Save(&buf, net); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput([]int{2, 1, 4, 4}, 7)
	a, b := net.Forward(x), loaded.Forward(x)
	for i := range a.Data() {
		if math.Abs(a.Data()[i]-b.Data()[i]) > 1e-12 {
			t.Fatal("dropout round trip diverges")
		}
	}
	masks := map[int][]bool{0: {true, false, false, false}}
	masked := net.Infer(x, masks)
	cnet, err := CompactMasked(net, masks)
	if err != nil {
		t.Fatal(err)
	}
	cOut := cnet.Forward(x)
	for i := range masked.Data() {
		if math.Abs(masked.Data()[i]-cOut.Data()[i]) > 1e-9 {
			t.Fatal("compacted dropout net diverges")
		}
	}
}
