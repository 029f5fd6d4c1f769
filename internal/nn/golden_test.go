package nn

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"maps"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"capnn/internal/data"
	"capnn/internal/tensor"
)

// forwardGolden is one reference fixture's recorded forward pass: the
// checked-in model, the generator settings of its test split (those of
// exp.CIFAR10Config / exp.ImageNet20Config — this package cannot import
// exp), one real CAP'NN-M mask set, and the FNV-64a of every test
// image's logits bits under no masks, pruneRatioMasks 40 % and that M
// mask set.
type forwardGolden struct {
	name      string
	classes   int
	synthSeed int64
	mMasks    map[int]string // stage → mask bits, '1' = pruned
	mMaskHash string         // the M column of internal/exp's golden row for the same preferences
	hashes    map[string]string
}

// The hashes below were recorded on the Go loops alone (the generic rung)
// when the multiply-accumulate became one fused multiply-add, and every
// assembly rung then hashed the same: any change to them means a forward
// now rounds differently, which no kernel optimisation may do.
var forwardGoldens = []forwardGolden{
	{
		name: "cifar10", classes: 10, synthSeed: 2,
		// Prune(M, {0: 0.62, 3: 0.38}) — the benchmark's first newUsers key.
		mMasks: map[int]string{
			10: "00100110010100101100010000000000",
			11: "00101000000010000010000110000000",
			12: "11011111111111111111110111111011",
			13: "01111011000101010000010111110010011010001100001101101100010110110101110000100110000101101101000100010001011000001110001001001011",
			14: "10111001111111111111111101111101111111111110101111011111111011101111111111101111111110111111110111111111111101111111011111110110",
		},
		mMaskHash: "4d845a78e22bb910",
		hashes:    map[string]string{"unpruned": "dd78a6b06504b257", "ratio-40": "eddb5be9c6397472", "prune-M": "c0097c5d5aa453f5"},
	},
	{
		name: "imagenet20", classes: 20, synthSeed: 1,
		// Prune(M, Uniform{0, 3, 7, 11}).
		mMasks: map[int]string{
			10: "11010011000101100110011111100111",
			11: "00100000010000010000011010001011",
			12: "00101100000000000101011001001010",
			13: "10101101011001110000001001111111111011110000001110100011010000101011001100000010111010101011010110011000111101000000011001010011",
			14: "11110100110111100111111111110110011111111110101011101111101110101011011010111000111101010111011111011110010111111111101111011111",
		},
		mMaskHash: "1fa3acbdfffde6bd",
		hashes:    map[string]string{"unpruned": "505cbef8d36c3c0b", "ratio-40": "37851ea5e4350c6c", "prune-M": "b277fec230f17046"},
	},
}

// parseMasks turns the recorded bit strings into Infer's mask map and
// returns internal/exp's maskHash of them, which ties the literal to the
// masks TestPruneMasksGolden pins.
func parseMasks(bits map[int]string) (map[int][]bool, string) {
	stages := make([]int, 0, len(bits))
	for l := range bits {
		stages = append(stages, l)
	}
	sort.Ints(stages)
	masks := map[int][]bool{}
	var sb strings.Builder
	for _, l := range stages {
		m := make([]bool, len(bits[l]))
		for i, c := range bits[l] {
			m[i] = c == '1'
		}
		masks[l] = m
		fmt.Fprintf(&sb, "%d:%s;", l, bits[l])
	}
	// internal/exp's fnv: FNV-1a with its own (non-standard) offset basis.
	h := uint64(1469598103934665603)
	for _, b := range []byte(sb.String()) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return masks, fmt.Sprintf("%016x", h)
}

// ratioMasks prunes the first ratio of every stage's units, the output
// stage's too, at least one survivor each: masks masked Infer takes and
// Compile refuses.
func ratioMasks(net *Network, ratio float64) map[int][]bool {
	masks := map[int][]bool{}
	for s, st := range net.Stages() {
		units := st.Unit.Units()
		k := min(int(float64(units)*ratio), units-1)
		m := make([]bool, units)
		for j := 0; j < k; j++ {
			m[j] = true
		}
		masks[s] = m
	}
	return masks
}

// loadFixtureNet loads the named reference fixture's checked-in model.
func loadFixtureNet(t testing.TB, name string) *Network {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "fixtures", name+"-*.model"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("%s: want one checked-in model, found %v (%v)", name, paths, err)
	}
	net, err := LoadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestForwardGolden pins "same arithmetic" as a tier-1 fact on both
// reference models: it hashes the logits bits of every test image, in
// order, through masked Infer (batches of 25) and through the compiled
// plan (one image per call, as a request runs), and compares both with
// the recorded value. ratio-40 also prunes output units, which no plan
// may: its plan is compiled without the output stage's mask, and the
// logits that mask prunes are set to the +0 masked Infer gives them.
// TestGenericKernels re-runs it on the Go fallback.
func TestForwardGolden(t *testing.T) {
	for _, g := range forwardGoldens {
		net := loadFixtureNet(t, g.name)
		synth := data.DefaultSynthConfig(g.classes)
		synth.NoiseStd, synth.GroupMix, synth.Seed = 1.5, 0.75, g.synthSeed
		gen, err := data.NewGenerator(synth)
		if err != nil {
			t.Fatal(err)
		}
		test := data.MakeSets(gen, data.SetSizes{TestPerClass: 25}).Test

		mMasks, mHash := parseMasks(g.mMasks)
		if mHash != g.mMaskHash {
			t.Fatalf("%s: recorded M masks hash to %s, internal/exp's golden row says %s", g.name, mHash, g.mMaskHash)
		}
		for label, masks := range map[string]map[int][]bool{
			"unpruned": nil, "ratio-40": ratioMasks(net, 0.4), "prune-M": mMasks,
		} {
			stages := len(net.Stages())
			outMask := masks[stages-1]
			planMasks := maps.Clone(masks)
			delete(planMasks, stages-1)
			plan, err := Compile(net, planMasks)
			if err != nil {
				t.Fatalf("%s/%s: %v", g.name, label, err)
			}
			masked, compiled := fnv.New64a(), fnv.New64a()
			hashLogits := func(h hash.Hash64, out *tensor.Tensor) {
				var b [8]byte
				for _, v := range out.Data() {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
					h.Write(b[:])
				}
			}
			for lo := 0; lo < test.Len(); lo += 25 {
				idx := make([]int, 25)
				for i := range idx {
					idx[i] = lo + i
				}
				x, _ := test.Batch(idx)
				hashLogits(masked, net.Infer(x, masks))
				for _, i := range idx {
					x1, _ := test.Batch([]int{i})
					logits := plan.Infer(x1)
					for o, pruned := range outMask {
						if pruned {
							logits.Data()[o] = 0
						}
					}
					hashLogits(compiled, logits)
				}
			}
			want := g.hashes[label]
			for path, h := range map[string]uint64{"masked Infer": masked.Sum64(), "compiled plan": compiled.Sum64()} {
				if got := fmt.Sprintf("%016x", h); got != want {
					t.Errorf("%s/%s: %s logits hash %s, golden %s", g.name, label, path, got, want)
				}
			}
		}
	}
}
