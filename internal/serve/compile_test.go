package serve

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"capnn/internal/cloud"
	"capnn/internal/core"
	"capnn/internal/nn"
	"capnn/internal/tensor"
)

// planConfig is the config the plan tests share: variant W on tiny
// batches, no guard unless a test turns it back on.
func planConfig() Config {
	return Config{DisableGuard: true}
}

// sameBits fails unless got is bit-for-bit the reference forward of x
// under masks (nil = unpruned) on the base network — masked Infer is the
// oracle every served answer is judged against (DESIGN invariant 13).
func sameBits(t *testing.T, f *fixture, what string, got []float64, x *tensor.Tensor, masks map[int][]bool) {
	t.Helper()
	want := f.sys.Net.Infer(x.MustReshape(append([]int{1}, x.Shape()...)...), masks).Data()
	if len(got) != len(want) {
		t.Fatalf("%s: %d logits, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: logit %d is %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// forceTrip puts a guard into the tripped (fallback-serving) state
// without a judgement.
func forceTrip(t *testing.T, g *entryGuard) {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.tripped {
		t.Fatal("entry already tripped")
	}
	g.tripped = true
}

// Invariant 13 on all three ways a request is answered: on its entry's
// plan, as a guard shadow sample, and as a tripped entry's fallback.
func TestServedAnswersBitIdentical(t *testing.T) {
	f := getFixture(t)
	cfg := planConfig()
	// Every 2nd request per entry is a shadow sample; one observation is
	// below guardMinObs, so the only trip is the forced one below.
	cfg.DisableGuard = false
	cfg.GuardSampleEvery, cfg.GuardWindow = 2, 1024
	srv := NewServerWith(f.sys, cfg)
	defer srv.Close()

	prefs := core.Uniform([]int{0, 1})
	x := f.sample(t, 0)
	serve := func() Result {
		t.Helper()
		res, err := srv.InferVariant(core.VariantW, prefs, x)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	personalised := serve()
	entry := srv.cache.snapshot()[0]
	pruned := false
	for _, m := range entry.masks {
		pruned = pruned || slices.Contains(m, true)
	}
	if !pruned {
		t.Fatal("personalization pruned nothing: masked and unpruned references would coincide")
	}
	sameBits(t, f, "personalised", personalised.Logits, x, entry.masks)
	if got := srv.Stats().CompiledDispatched; got != 1 {
		t.Fatalf("CompiledDispatched=%d after one personalised request, want 1", got)
	}

	shadow := serve()
	if shadow.Fallback {
		t.Fatal("shadow sample reported as fallback")
	}
	sameBits(t, f, "shadow sample", shadow.Logits, x, nil)

	forceTrip(t, entry.guard)
	fallback := serve()
	if !fallback.Fallback {
		t.Fatal("tripped entry did not serve as fallback")
	}
	sameBits(t, f, "fallback", fallback.Logits, x, nil)
	if got := srv.Stats().CompiledDispatched; got != 1 {
		t.Fatalf("CompiledDispatched=%d, want 1 (unpruned traffic is not counted)", got)
	}
}

// The plan is built inside the singleflight fill: the filling request
// and every joiner already dispatch compiled, one compile per
// personalization, nothing to wait for.
func TestFillCompilesInline(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, planConfig())
	defer srv.Close()

	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := srv.InferVariant(core.VariantW, core.Uniform([]int{0, 1}), f.sample(t, i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	st := srv.Stats()
	if st.PersonalizeRuns != 1 || st.Compiles != 1 || st.CompileErrors != 0 {
		t.Fatalf("personalize-runs=%d compiles=%d errors=%d, want 1/1/0", st.PersonalizeRuns, st.Compiles, st.CompileErrors)
	}
	if st.CompiledDispatched != n {
		t.Fatalf("CompiledDispatched=%d, want %d (first request and joiners included)", st.CompiledDispatched, n)
	}
	if st.CompiledEntries != 1 || st.CompiledBytes <= 0 {
		t.Fatalf("resident entries=%d bytes=%d, want 1 and >0", st.CompiledEntries, st.CompiledBytes)
	}

	if _, err := srv.InferVariant(core.VariantW, core.Uniform([]int{2, 3}), f.sample(t, 0)); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Compiles != st.PersonalizeRuns || st.Compiles != 2 {
		t.Fatalf("compiles=%d personalize-runs=%d, want 2/2", st.Compiles, st.PersonalizeRuns)
	}
}

// Masks nn.Compile rejects (a whole layer pruned) degrade to the
// unpruned answer: counted, logged, pinned — never a client-visible error.
// The entry is built by the constructor a fill publishes through.
func TestCompileFailureServesUnpruned(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, planConfig())
	defer srv.Close()
	prefs := core.Uniform([]int{0, 1})
	x := f.sample(t, 1)
	broken, err := f.sys.Prune(core.VariantW, prefs)
	if err != nil {
		t.Fatal(err)
	}
	for stage, m := range broken {
		all := make([]bool, len(m))
		for i := range all {
			all[i] = true
		}
		broken[stage] = all
		break
	}
	e, err := srv.newEntry(core.VariantW, prefs, prefs.KeyUnder(string(core.VariantW)), broken)
	if err != nil {
		t.Fatal(err)
	}
	srv.hookPersonalize = func(core.Preferences) { t.Error("a request re-personalized the installed entry") }
	srv.cache.install(e)
	for hit := 0; hit < 2; hit++ { // the failure is pinned: no hit recompiles
		res, err := srv.InferVariant(core.VariantW, prefs, x)
		if err != nil {
			t.Fatalf("compile failure reached the client: %v", err)
		}
		sameBits(t, f, "stand-in", res.Logits, x, nil)
		st := srv.Stats()
		if st.Compiles != 1 || st.CompileErrors != 1 || st.CompiledDispatched != 0 || st.CompiledBytes != 0 {
			t.Fatalf("hit %d: compiles=%d errors=%d dispatched=%d bytes=%d, want 1/1/0/0",
				hit, st.Compiles, st.CompileErrors, st.CompiledDispatched, st.CompiledBytes)
		}
	}
	failed := 0
	for _, ev := range srv.Events().Snapshot(0) {
		if ev.Type == "compile-failed" {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("%d compile-failed events, want 1", failed)
	}
	// A device is told what the key is served with: nothing pruned.
	resp := srv.Handle(WireRequest{Op: OpPersonalize, Variant: "W", Classes: prefs.Classes})
	var p MaskPayload
	if err := p.DecodeWire(resp.Payload); err != nil || resp.Code != cloud.CodeOK || resp.Fallback || len(p.Masks) != len(broken) {
		t.Fatalf("personalize: [%s] fallback=%v %d stages %v", resp.Code, resp.Fallback, len(p.Masks), err)
	}
	for stage, m := range p.Masks {
		if len(m) != len(broken[stage]) || slices.Contains(m, true) {
			t.Fatalf("stage %d of an entry pinned to the unpruned plan: %v", stage, m)
		}
	}
}

// Every plan the server runs is compiled on its one prefix: each cache
// entry's and the unpruned one share it by pointer, and compiled_bytes
// counts it once beside each entry's suffix. The fixture's system prunes
// from its first stage on, so this one is built on the same network
// prunable from stage 1: its prefix is the first conv block, and every
// answer on a split plan is still the masked reference's, bit for bit.
func TestPlansShareOnePrefix(t *testing.T) {
	f := getFixture(t)
	params := f.sys.Params
	params.Stages = []int{1, 2}
	sys, err := core.NewSystem(f.sys.Net, f.sets.Val, f.sets.Profile, nil, params)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(sys, planConfig())
	defer srv.Close()

	if srv.prefix.Bytes() <= 0 {
		t.Fatal("the server's prefix holds no plan")
	}
	if prefixOf(srv.unpruned) != srv.prefix {
		t.Fatal("the unpruned plan is not compiled on the server's prefix")
	}
	for i, classes := range [][]int{{0, 1}, {2, 3}, {1, 2, 3}} {
		x := f.sample(t, i)
		res, err := srv.InferVariant(core.VariantW, core.Uniform(classes), x)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, f, fmt.Sprint(classes), res.Logits, x, srv.cache.snapshot()[len(srv.cache.snapshot())-1].masks)
	}
	entries := srv.cache.snapshot()
	want, pruned := srv.prefix.Bytes(), false
	for _, e := range entries {
		for _, m := range e.masks {
			pruned = pruned || slices.Contains(m, true)
		}
		if e.plan == srv.unpruned {
			t.Fatalf("entry %s is pinned to the unpruned plan", e.key)
		}
		if prefixOf(e.plan) != srv.prefix {
			t.Fatalf("entry %s's plan is compiled on another prefix", e.key)
		}
		want += e.plan.Bytes()
	}
	if !pruned {
		t.Fatal("no personalization pruned anything: the suffixes are the unpruned one")
	}
	if st := srv.Stats(); st.CompiledEntries != len(entries) || st.CompiledBytes != want {
		t.Fatalf("compiled entries=%d bytes=%d, want %d and %d (the prefix once plus each suffix)",
			st.CompiledEntries, st.CompiledBytes, len(entries), want)
	}
}

// prefixOf is the prefix a plan was compiled on, read from its
// unexported field: nn exports no accessor that only a test would call.
func prefixOf(c *nn.Compiled) *nn.Prefix {
	return (*nn.Prefix)(reflect.ValueOf(c).Elem().FieldByName("prefix").UnsafePointer())
}
