package core

import (
	"reflect"
	"sync"
	"testing"
)

// DESIGN.md invariant 17: Prune is reentrant and its masks do not depend
// on what runs beside it. Twelve goroutines prune four preference sets
// under every variant on one fresh system — so the baseline, the
// Algorithm 1 matrices and the confusion rows are each built by
// whichever goroutine gets there first — beside a looping Infer, and
// every result equals the serial run's. Meaningful under -race.
func TestPruneConcurrent(t *testing.T) {
	f := getFixture(t)
	weighted, err := Weighted([]int{1, 4}, []float64{0.9, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	prefSets := []Preferences{Uniform([]int{0, 5}), weighted, Uniform([]int{2}), Uniform([]int{0, 1, 3, 5})}
	variants := []Variant{VariantB, VariantW, VariantM}

	type answer struct {
		masks    map[int][]bool
		share, n float64
	}
	run := func(sys *System, p Preferences, v Variant) (answer, error) {
		masks, err := sys.Prune(v, p)
		if err != nil {
			return answer{}, err
		}
		share, n, err := sys.OffPreferenceShare(p)
		return answer{masks, share, n}, err
	}
	want := make([][]answer, len(prefSets))
	for i, p := range prefSets {
		for _, v := range variants {
			a, err := run(f.sys, p, v)
			if err != nil {
				t.Fatalf("serial %s %v: %v", v, p.Classes, err)
			}
			want[i] = append(want[i], a)
		}
	}

	sys, err := NewSystem(f.net, f.sets.Val, f.sets.Profile, f.sys.Rates, f.sys.Params)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := f.sets.Test.Batch([]int{0, 1, 2})
	logits := f.net.Infer(x, nil).Data()
	stop, inferDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(inferDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got := f.net.Infer(x, nil).Data(); !reflect.DeepEqual(got, logits) {
				t.Error("Infer beside Prune changed its answer")
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range prefSets {
				i := (g + j) % len(prefSets)
				for k, v := range variants {
					got, err := run(sys, prefSets[i], v)
					if err != nil {
						t.Errorf("goroutine %d %s %v: %v", g, v, prefSets[i].Classes, err)
						return
					}
					if !reflect.DeepEqual(got, want[i][k]) {
						t.Errorf("goroutine %d %s %v: concurrent result differs from the serial run", g, v, prefSets[i].Classes)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-inferDone
}
