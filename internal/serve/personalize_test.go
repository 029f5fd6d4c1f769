package serve

import (
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"capnn/internal/cloud"
	"capnn/internal/core"
)

// personalizeMasks sends OpPersonalize for (variant, classes) and decodes
// its payload, failing the test on anything but CodeOK.
func personalizeMasks(t *testing.T, srv *Server, variant string, classes []int) (*WireResponse, MaskPayload) {
	t.Helper()
	resp := srv.Handle(WireRequest{Op: OpPersonalize, Variant: variant, Classes: classes})
	if resp.Code != cloud.CodeOK {
		t.Fatalf("personalize %s %v: [%s] %s", variant, classes, resp.Code, resp.Err)
	}
	var p MaskPayload
	if err := p.DecodeWire(resp.Payload); err != nil {
		t.Fatalf("personalize %s %v: payload: %v", variant, classes, err)
	}
	return resp, p
}

// OpPersonalize answers from the same cache entry an inference of the key
// runs on: the masks System.Prune computes, under the base network's
// checksum, and an inference of the key afterwards is a cache hit — the
// shard personalized once for both.
func TestPersonalizeThenInferOneFill(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{})
	defer srv.Close()
	var fills atomic.Int32
	srv.hookPersonalize = func(core.Preferences) { fills.Add(1) }

	classes := []int{0, 2}
	resp, p := personalizeMasks(t, srv, "M", classes)
	if resp.CacheHit || resp.Fallback {
		t.Fatalf("first personalization: cacheHit=%v fallback=%v", resp.CacheHit, resp.Fallback)
	}
	want, err := f.sys.Prune(core.VariantM, core.Uniform(classes))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Masks, want) {
		t.Fatalf("payload masks %v, System.Prune %v", p.Masks, want)
	}
	if sum, err := BaseSum(f.sys.Net); err != nil || p.Base != sum {
		t.Fatalf("payload base %08x, the network's %08x (%v)", p.Base, sum, err)
	}

	x := f.sample(t, 0)
	infer := srv.Handle(WireRequest{Variant: "M", Classes: classes, Input: x.Data()})
	if infer.Code != cloud.CodeOK || !infer.CacheHit {
		t.Fatalf("inference after personalization: [%s] cacheHit=%v %s", infer.Code, infer.CacheHit, infer.Err)
	}
	if again, _ := personalizeMasks(t, srv, "M", classes); !again.CacheHit {
		t.Fatal("second personalization of a resident key missed the cache")
	}
	if n := fills.Load(); n != 1 {
		t.Fatalf("%d personalizations for one key, want 1", n)
	}

	// No forward ran for the personalizations, so none fed the guard.
	entry := srv.cache.snapshot()[0]
	entry.guard.mu.Lock()
	seq, seen := entry.guard.seq, entry.guard.win.Total()
	entry.guard.mu.Unlock()
	if seq != 1 || seen != 0 {
		t.Fatalf("guard saw seq=%d observations=%d after one inference, want 1 and 0", seq, seen)
	}
}

// A key whose guard has tripped is served unpruned, and OpPersonalize
// says so: the same stages with no unit pruned, and Fallback set, as an
// inference of the key reports it.
func TestPersonalizeTrippedKeyIsUnpruned(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{})
	defer srv.Close()
	classes := []int{1, 3}
	_, pruned := personalizeMasks(t, srv, "W", classes)
	forceTrip(t, srv.cache.snapshot()[0].guard)

	resp, p := personalizeMasks(t, srv, "W", classes)
	if !resp.Fallback || !resp.CacheHit {
		t.Fatalf("tripped key: fallback=%v cacheHit=%v", resp.Fallback, resp.CacheHit)
	}
	if len(p.Masks) != len(pruned.Masks) {
		t.Fatalf("tripped key answered %d stages, entry has %d", len(p.Masks), len(pruned.Masks))
	}
	for stage, m := range pruned.Masks {
		if got := p.Masks[stage]; len(got) != len(m) || slices.Contains(got, true) {
			t.Fatalf("stage %d of a tripped key: %v", stage, got)
		}
	}
	infer := srv.Handle(WireRequest{Variant: "W", Classes: classes, Input: f.sample(t, 1).Data()})
	if infer.Code != cloud.CodeOK || !infer.Fallback {
		t.Fatalf("inference of the tripped key: [%s] fallback=%v", infer.Code, infer.Fallback)
	}
}

// OpPersonalize refuses what an inference refuses, before any fill: bad
// variants and preferences as permanent bad requests, and any request
// once the server drains as a retryable busy.
func TestPersonalizeRejectsBadRequests(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{})
	srv.hookPersonalize = func(core.Preferences) { t.Error("a refused request personalized") }
	for i, req := range []WireRequest{
		{Variant: "X", Classes: []int{0}},
		{Variant: "W", Classes: nil},
		{Variant: "W", Classes: []int{99}},
		{Variant: "W", Classes: []int{0, 0}},
		{Variant: "W", Classes: []int{0}, Weights: []float64{1, 2}},
	} {
		req.Op = OpPersonalize
		if resp := srv.Handle(req); resp.Code != cloud.CodeBadRequest || resp.Code.Retryable() {
			t.Errorf("case %d: [%s] %s, want a permanent bad request", i, resp.Code, resp.Err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if resp := srv.Handle(WireRequest{Op: OpPersonalize, Variant: "W", Classes: []int{0}}); resp.Code != cloud.CodeBusy {
		t.Fatalf("personalization while drained: [%s] %s, want busy", resp.Code, resp.Err)
	}
}

// A panic mid-prune — here Algorithm 1 matrices that name a stage they
// hold no column for — is answered as a retryable CodeInternal, is not
// cached, and the next request for the key is served.
func TestPanicRecovery(t *testing.T) {
	f := getFixture(t)
	good, err := f.sys.BMatrices()
	if err != nil {
		t.Fatal(err)
	}
	defer f.sys.SetBMatrices(good)
	f.sys.SetBMatrices(&core.BMatrices{Classes: good.Classes, Stages: good.Stages, Units: good.Units})
	srv := NewServerWith(f.sys, Config{})
	defer srv.Close()
	req := WireRequest{Op: OpPersonalize, Variant: "B", Classes: []int{0, 1}}
	if resp := srv.Handle(req); resp.Code != cloud.CodeInternal || !resp.Code.Retryable() || resp.Err == "" {
		t.Fatalf("panic answered [%s] %q, want a retryable internal error", resp.Code, resp.Err)
	}
	f.sys.SetBMatrices(good)
	if resp := srv.Handle(req); resp.Code != cloud.CodeOK || resp.CacheHit {
		t.Fatalf("after the panic: [%s] cacheHit=%v %s", resp.Code, resp.CacheHit, resp.Err)
	}
}
