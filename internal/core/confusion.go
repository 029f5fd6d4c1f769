package core

import (
	"fmt"
	"sync"

	"capnn/internal/data"
	"capnn/internal/nn"
	"capnn/internal/parallel"
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

// ConfusionProfile measures rows of the unpruned model's confusion
// matrix over a profiling set. A row depends on the weights and the
// profiling images alone, not on the user, so each class is pushed
// through the network once, when a user first names it, and kept. Safe
// for concurrent use.
type ConfusionProfile struct {
	net     *nn.Network
	profile *data.Dataset
	byClass [][]int
	once    []sync.Once // once[k] measures rows[k]
	rows    [][]float64
}

// NewConfusionProfile prepares the (lazy) confusion rows of net over
// profile. The weights must not change afterwards.
func NewConfusionProfile(net *nn.Network, profile *data.Dataset) *ConfusionProfile {
	return &ConfusionProfile{net: net, profile: profile, byClass: profile.ByClass(),
		once: make([]sync.Once, profile.Classes), rows: make([][]float64, profile.Classes)}
}

// confusionBatch shards one class's profiling images finely enough that
// a 40-image class still occupies every worker.
const confusionBatch = 8

// Matrix returns the confusion rows of the classes in K.
func (cp *ConfusionProfile) Matrix(K []int) (*ConfusionMatrix, error) {
	if len(K) == 0 {
		return nil, fmt.Errorf("core: empty class subset")
	}
	cm := &ConfusionMatrix{K: append([]int(nil), K...), Classes: cp.profile.Classes, Rows: make([][]float64, len(K))}
	for i, k := range K {
		row, err := cp.row(k)
		if err != nil {
			return nil, err
		}
		cm.Rows[i] = row
	}
	return cm, nil
}

// row returns the fraction of class-k profiling images each class is the
// top-1 prediction for, measuring it on first use with no prune mask.
func (cp *ConfusionProfile) row(k int) ([]float64, error) {
	if k < 0 || k >= cp.profile.Classes {
		return nil, fmt.Errorf("core: class %d outside [0,%d)", k, cp.profile.Classes)
	}
	idx := cp.byClass[k]
	if len(idx) == 0 {
		return nil, fmt.Errorf("core: profiling set has no samples of class %d", k)
	}
	cp.once[k].Do(func() { cp.rows[k] = cp.measure(idx) })
	return cp.rows[k], nil
}

// measure pushes the profiling images idx (one class's) through the
// unpruned network and returns their top-1 prediction frequencies.
func (cp *ConfusionProfile) measure(idx []int) []float64 {
	row := make([]float64, cp.profile.Classes)
	preds := make([]int, len(idx))
	shards := parallel.Shards(len(idx), confusionBatch)
	parallel.For(0, len(shards), func(i int) {
		sh := shards[i]
		x, _ := cp.profile.Batch(idx[sh.Lo:sh.Hi])
		logits := cp.net.Infer(x, nil)
		c := logits.Dim(1)
		for s := 0; s < sh.Len(); s++ {
			preds[sh.Lo+s] = tensor.Argmax(logits.Data()[s*c : (s+1)*c])
		}
	})
	for _, p := range preds {
		row[p] += 1.0 / float64(len(preds))
	}
	return row
}

// TopConfusing returns the topN classes c ≠ k most frequently triggered
// by inputs of class k (paper §III-C uses top-5, tied to the top-5
// accuracy metric). Classes never triggered are still eligible but rank
// last; ties break toward lower class indices.
func (cm *ConfusionMatrix) TopConfusing(k int, topN int) ([]int, error) {
	ki := -1
	for i, c := range cm.K {
		if c == k {
			ki = i
			break
		}
	}
	if ki < 0 {
		return nil, fmt.Errorf("core: class %d not in confusion matrix", k)
	}
	row := append([]float64(nil), cm.Rows[ki]...)
	row[k] = -1 // exclude k itself
	order := tensor.ArgTopK(row, topN+1)
	var out []int
	for _, c := range order {
		if c == k {
			continue
		}
		out = append(out, c)
		if len(out) == topN {
			break
		}
	}
	return out, nil
}
