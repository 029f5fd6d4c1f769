package serve

import (
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/core"
	"capnn/internal/faults"
	"capnn/internal/tensor"
)

// The TCP protocol round-trips: a serve.Client against a listening
// server returns exactly the logits of a reference masked forward.
func TestWireRoundTrip(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	prefs := core.Uniform([]int{1, 3})
	resp, err := NewClient(addr).Infer(WireRequest{
		Variant: "W", Classes: prefs.Classes, Input: f.sample(t, 5).Data(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != cloud.CodeOK || resp.Batch != 1 {
		t.Fatalf("response: %+v", resp)
	}

	masks, err := f.sys.Prune(core.VariantW, prefs)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := f.sets.Test.Batch([]int{5})
	want := f.sys.Net.Infer(x, masks).Data()
	if len(resp.Logits) != len(want) {
		t.Fatalf("logit count %d, want %d", len(resp.Logits), len(want))
	}
	for i, w := range want {
		if math.Abs(w-resp.Logits[i]) > 1e-12 {
			t.Fatalf("logit %d: wire %v, reference %v", i, resp.Logits[i], w)
		}
	}
	if resp.Class != tensor.Argmax(want) {
		t.Fatalf("class %d, want %d", resp.Class, tensor.Argmax(want))
	}

	// A second identical request reports the cache hit on the wire.
	resp, err = NewClient(addr).Infer(WireRequest{
		Variant: "W", Classes: prefs.Classes, Input: f.sample(t, 5).Data(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Fatal("repeat request did not report a mask-cache hit")
	}
}

// Malformed wire requests come back as typed, non-retryable bad
// requests — never as hangs or internal errors.
func TestWireBadRequests(t *testing.T) {
	f := getFixture(t)
	srv := NewServer(f.sys)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	input := f.sample(t, 0).Data()

	cases := []struct {
		name string
		req  WireRequest
	}{
		{"unknown variant", WireRequest{Variant: "X", Classes: []int{0}, Input: input}},
		{"future protocol version", WireRequest{Version: cloud.ProtocolVersion + 1, Classes: []int{0}, Input: input}},
		{"no classes", WireRequest{Variant: "W", Input: input}},
		{"class out of range", WireRequest{Variant: "W", Classes: []int{99}, Input: input}},
		{"weight count mismatch", WireRequest{Variant: "W", Classes: []int{0, 1}, Weights: []float64{1}, Input: input}},
		{"wrong input length", WireRequest{Variant: "W", Classes: []int{0}, Input: input[:3]}},
		{"NaN input", WireRequest{Variant: "W", Classes: []int{0}, Input: withValue(input, 7, math.NaN())}},
		{"infinite input", WireRequest{Variant: "W", Classes: []int{0}, Input: withValue(input, 7, math.Inf(-1))}},
	}
	cl := NewClient(addr)
	for _, tc := range cases {
		// NewClient stamps Version; the version case must keep its own.
		resp, err := func() (*WireResponse, error) {
			if tc.req.Version != 0 {
				return srv.Handle(tc.req), nil
			}
			return cl.Infer(tc.req)
		}()
		if tc.req.Version != 0 {
			if resp.Code != cloud.CodeBadRequest {
				t.Errorf("%s: code %v, want bad request", tc.name, resp.Code)
			}
			continue
		}
		var te *Error
		if !errors.As(err, &te) {
			t.Errorf("%s: error not typed: %v", tc.name, err)
			continue
		}
		if te.Code != cloud.CodeBadRequest || te.Retryable() {
			t.Errorf("%s: code=%v retryable=%v, want non-retryable bad request", tc.name, te.Code, te.Retryable())
		}
	}
}

func withValue(x []float64, i int, v float64) []float64 {
	out := append([]float64(nil), x...)
	out[i] = v
	return out
}

// A request carrying NaN or ±Inf is refused by name before it costs
// anything: no cache lookup (so no entry whose drift window a shadow
// sample could feed a meaningless prediction), no personalisation, no
// forward.
func TestNonFiniteInputRejectedBeforeAnyWork(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{GuardSampleEvery: 1})
	defer srv.Close()
	input := f.sample(t, 0).Data()
	bad := withValue(withValue(input, 7, math.NaN()), 9, math.Inf(1))
	resp := srv.Handle(WireRequest{Version: cloud.ProtocolVersion, Variant: "W", Classes: []int{0, 1}, Input: bad})
	if resp.Code != cloud.CodeBadRequest || !strings.Contains(resp.Err, "input[7]") {
		t.Fatalf("non-finite input: [%s] %q, want bad-request naming input[7]", resp.Code, resp.Err)
	}
	if st := srv.Stats(); st.CacheHits+st.CacheMisses != 0 || st.PersonalizeRuns != 0 || st.ForwardFlushes != 0 {
		t.Errorf("rejected request did work: lookups=%d personalize=%d forwards=%d",
			st.CacheHits+st.CacheMisses, st.PersonalizeRuns, st.ForwardFlushes)
	}
	if resp := srv.Handle(WireRequest{Version: cloud.ProtocolVersion, Variant: "W", Classes: []int{0, 1}, Input: input}); resp.Code != cloud.CodeOK {
		t.Fatalf("finite input after the rejection: [%s] %s", resp.Code, resp.Err)
	}
}

// Satellite: the serve path under internal/faults chaos. Hostile peers —
// connections that drop writes, close mid-stream, hang silently, or
// send garbage — must not wedge the dispatcher or starve healthy clients,
// and the server must shut down cleanly afterwards.
func TestChaosSlowAndDroppingClientsCannotWedgeBatcher(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{
		ReadTimeout: 300 * time.Millisecond, WriteTimeout: 300 * time.Millisecond,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.Plan{
		Seed: 23, Latency: time.Millisecond,
		DropProb: 0.10, DropAfter: 128,
		CloseProb: 0.15, CloseAfter: 256,
		CorruptProb: 0.15,
	}
	addr := srv.Serve(faults.WrapListener(ln, plan))
	defer srv.Close()

	// Hostile peers: connect-and-hang (server read deadline must free the
	// handler) and garbage-then-hang (decode error path, peer never reads
	// the error response).
	var hostile []net.Conn
	defer func() {
		for _, c := range hostile {
			c.Close()
		}
	}()
	for i := 0; i < 4; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		hostile = append(hostile, c)
	}
	gc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = gc.Write([]byte("definitely not gob"))
	hostile = append(hostile, gc)

	// Healthy traffic alongside the hostiles. Chaos faults hit these
	// connections too, so each request retries until it lands; the
	// assertion is that every one eventually does.
	const workers, perWorker, maxAttempts = 4, 4, 10
	var attempts atomic.Int64
	errCh := make(chan error, workers*perWorker)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := NewClient(addr)
			cl.DialTimeout = time.Second
			cl.RequestTimeout = time.Second
			for m := 0; m < perWorker; m++ {
				req := WireRequest{
					Variant: "W",
					Classes: []int{g % 4, (g + 1) % 4},
					Input:   f.sample(t, (g*perWorker+m)%16).Data(),
				}
				var resp *WireResponse
				var err error
				for a := 0; a < maxAttempts; a++ {
					attempts.Add(1)
					if resp, err = cl.Infer(req); err == nil {
						break
					}
				}
				if err != nil {
					errCh <- fmt.Errorf("worker %d req %d never landed: %w", g, m, err)
					return
				}
				if len(resp.Logits) != 4 {
					errCh <- fmt.Errorf("worker %d req %d: %d logits", g, m, len(resp.Logits))
					return
				}
				for _, v := range resp.Logits {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						errCh <- fmt.Errorf("worker %d req %d: non-finite logits", g, m)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// The chaos must have actually bitten: with 40% of connections
	// faulted, a fully clean run means the plan injected nothing.
	if attempts.Load() == int64(workers*perWorker) {
		t.Log("warning: no retries were needed — chaos plan injected no observable faults")
	}

	// The dispatcher drained: no admitted request is stranded in the
	// queue, and an in-process request still flows end to end.
	waitFor(t, 5*time.Second, func() bool { return srv.Stats().QueueDepth == 0 }, "queue to drain after chaos")
	if _, err := srv.Infer(core.Uniform([]int{0, 1}), f.sample(t, 1)); err != nil {
		t.Fatalf("server wedged after chaos: %v", err)
	}
	st := srv.Stats()
	t.Logf("chaos: %d wire attempts for %d requests; stats: %s", attempts.Load(), workers*perWorker, st.String())
}
