package core

import (
	"fmt"
	"slices"

	"capnn/internal/firing"
	"capnn/internal/nn"
	"capnn/internal/tensor"
)

// ConfusionMatrix holds, for each user class k ∈ K, the fraction of
// class-k profiling inputs for which each output class was the top-1
// prediction — the |K|×|C| matrix of paper §III-C step 1.
type ConfusionMatrix struct {
	K       []int
	Classes int
	// Rows[i][c] is the trigger fraction of class c on inputs of K[i].
	Rows [][]float64
}

// confusionMatrix returns the confusion rows of the classes in K from
// the profiling pass's top-1 counts, adding 1/n once per image of the
// class as a per-image measurement would.
func confusionMatrix(rates *firing.Rates, K []int) (*ConfusionMatrix, error) {
	if len(K) == 0 {
		return nil, fmt.Errorf("core: empty class subset")
	}
	cm := &ConfusionMatrix{K: append([]int(nil), K...), Classes: rates.Classes, Rows: make([][]float64, len(K))}
	for i, k := range K {
		if k < 0 || k >= rates.Classes {
			return nil, fmt.Errorf("core: class %d outside [0,%d)", k, rates.Classes)
		}
		n := profiled(rates, k)
		if n == 0 {
			return nil, fmt.Errorf("core: profiling set has no samples of class %d", k)
		}
		cm.Rows[i] = make([]float64, len(rates.Confusion[k]))
		for c, m := range rates.Confusion[k] {
			for ; m > 0; m-- {
				cm.Rows[i][c] += 1.0 / float64(n)
			}
		}
	}
	return cm, nil
}

// checkConfusion refuses rates whose confusion counts are missing or are
// not one row per class of one count per output unit of net.
func checkConfusion(net *nn.Network, rates *firing.Rates) error {
	stages := net.Stages()
	outputs := stages[len(stages)-1].Unit.Units()
	for k := 0; k < rates.Classes; k++ {
		if len(rates.Confusion) != rates.Classes || len(rates.Confusion[k]) != outputs {
			return fmt.Errorf("core: rates lack confusion counts of class %d over the network's %d output units", k, outputs)
		}
	}
	return nil
}

// profiled is the number of class-k profiling images behind the counts.
func profiled(rates *firing.Rates, k int) (n int) {
	for _, m := range rates.Confusion[k] {
		n += m
	}
	return n
}

// TopConfusing returns the topN classes c ≠ k most frequently triggered
// by inputs of class k (paper §III-C uses top-5, tied to the top-5
// accuracy metric). Classes never triggered are still eligible but rank
// last; ties break toward lower class indices.
func (cm *ConfusionMatrix) TopConfusing(k int, topN int) ([]int, error) {
	ki := slices.Index(cm.K, k)
	if ki < 0 {
		return nil, fmt.Errorf("core: class %d not in confusion matrix", k)
	}
	row := append([]float64(nil), cm.Rows[ki]...)
	row[k] = -1 // exclude k itself
	out := slices.DeleteFunc(tensor.ArgTopK(row, topN+1), func(c int) bool { return c == k })
	return out[:min(max(topN, 0), len(out))], nil
}
