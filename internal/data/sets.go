package data

import "capnn/internal/parallel"

// Sets bundles the four disjoint datasets every CAP'NN experiment needs.
type Sets struct {
	// Train drives SGD.
	Train *Dataset
	// Val is the held-out split the pruning algorithms use for their
	// ε-degradation checks (paper Algorithms 1–2, lines "Measure accuracy
	// degradation").
	Val *Dataset
	// Test reports final accuracies (Figs. 5–6, Table II).
	Test *Dataset
	// Profile computes class-specific firing rates and confusion
	// matrices with an equal number of samples per class (paper §III:
	// "we run the network using the training dataset with equal number
	// of samples for each class"; we keep it disjoint from Train so the
	// rates are not tied to memorized samples).
	Profile *Dataset
}

// SetSizes gives the per-class sample counts for each split.
type SetSizes struct {
	TrainPerClass, ValPerClass, TestPerClass, ProfilePerClass int
}

// MakeSets draws the four disjoint splits from a single generator. Each
// split has its own random source, so they are drawn concurrently, on
// parallel.Default() workers, with the same bits as one after another.
func MakeSets(gen *Generator, sz SetSizes) *Sets {
	perClass := []int{sz.TrainPerClass, sz.ValPerClass, sz.TestPerClass, sz.ProfilePerClass}
	splits := make([]*Dataset, len(perClass))
	parallel.For(0, len(splits), func(i int) {
		splits[i] = gen.Generate(perClass[i], int64(101*(i+1)))
	})
	return &Sets{Train: splits[0], Val: splits[1], Test: splits[2], Profile: splits[3]}
}
