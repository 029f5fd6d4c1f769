package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/core"
	"capnn/internal/faults"
	"capnn/internal/rpc"
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
		{"class out of range: 99", WireRequest{Variant: "W", Classes: []int{99}, Input: input}},
		{"class out of range: -1", WireRequest{Variant: "W", Classes: []int{0, -1}, Input: input}},
		{"class out of range: 9999", WireRequest{Variant: "W", Classes: []int{9999}, Input: input}},
		{"class out of range: the class count", WireRequest{Variant: "W", Classes: []int{f.sys.Rates.Classes}, Input: input}},
		{"weight count mismatch", WireRequest{Variant: "W", Classes: []int{0, 1}, Weights: []float64{1}, Input: input}},
		{"wrong input length", WireRequest{Variant: "W", Classes: []int{0}, Input: input[:3]}},
		{"NaN input", WireRequest{Variant: "W", Classes: []int{0}, Input: withValue(input, 7, math.NaN())}},
		{"infinite input", WireRequest{Variant: "W", Classes: []int{0}, Input: withValue(input, 7, math.Inf(-1))}},
	}
	// On the wire the version leads the frame: a later one is refused by
	// the decoder, typed, before the rest is read. (Client.Infer would
	// restamp it.)
	future := WireRequest{Version: cloud.ProtocolVersion + 1, Classes: []int{0}, Input: input}
	raw := rpc.NewClient[WireRequest, WireResponse](addr, time.Second, 0)
	if resp, err := raw.Do(&future, time.Now().Add(2*time.Second)); err != nil || resp.Code != cloud.CodeBadRequest || !strings.Contains(resp.Err, "protocol version 4 not supported") {
		t.Errorf("future-version frame: resp=%+v err=%v, want a typed bad request naming the version", resp, err)
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

// A Go caller's preferences skip the wire decoder's NewPreferences, so
// Validate alone must refuse a NaN or infinite weight — before the key is
// hashed from it and before a Prune runs on it — on every entry point.
func TestNonFiniteWeightsRejectedBeforeAnyWork(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{GuardSampleEvery: 1})
	defer srv.Close()
	x := f.sample(t, 0)
	for _, w := range [][]float64{{math.NaN(), 0.5}, {0.5, math.Inf(1)}, {math.Inf(1), math.Inf(-1)}} {
		prefs := core.Preferences{Classes: []int{0, 1}, Weights: w}
		for name, infer := range map[string]func() (Result, error){
			"Infer":        func() (Result, error) { return srv.Infer(prefs, x) },
			"InferVariant": func() (Result, error) { return srv.InferVariant(core.VariantM, prefs, x) },
			"InferQoS":     func() (Result, error) { return srv.InferQoS(core.VariantW, prefs, x, QoS{}) },
		} {
			var te *Error
			if _, err := infer(); !errors.As(err, &te) || te.Code != cloud.CodeBadRequest {
				t.Errorf("%s with weights %v: %v, want a typed bad request", name, w, err)
			}
		}
	}
	if st := srv.Stats(); st.CacheHits+st.CacheMisses != 0 || st.PersonalizeRuns != 0 || st.ForwardFlushes != 0 {
		t.Errorf("rejected requests did work: lookups=%d personalizations=%d forwards=%d",
			st.CacheHits+st.CacheMisses, st.PersonalizeRuns, st.ForwardFlushes)
	}
}

// Satellite: the serve path under internal/faults chaos. Hostile peers —
// connections that drop writes, close mid-stream, flip bytes, hang
// silently, or send frames the server must refuse — must not wedge the
// dispatcher or starve healthy clients, no corrupted frame may ever be
// served as an answer, and the server must shut down cleanly afterwards.
func TestChaosSlowAndDroppingClientsCannotWedgeBatcher(t *testing.T) {
	f := getFixture(t)
	// No guard: its shadow samples answer from the unpruned plan, and
	// every accepted answer below is held to the personalized one.
	srv := NewServerWith(f.sys, Config{
		Variant: core.VariantW, DisableGuard: true,
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

	// Hostile peers, none of which ever reads its answer: connect-and-hang
	// and a length prefix whose bytes never arrive (the read deadline must
	// free both handlers), a prefix over the size cap and a frame with a
	// bad checksum (refused on sight).
	good := frameOf((&WireRequest{Variant: "W", Classes: []int{0, 1}, Input: f.sample(t, 0).Data()}).AppendWire(nil))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x08
	var hostile []net.Conn
	defer func() {
		for _, c := range hostile {
			c.Close()
		}
	}()
	for _, sends := range [][]byte{nil, nil, nil, nil, good[:40],
		binary.LittleEndian.AppendUint32(nil, uint32(DefaultConfig().MaxRequestBytes)+1), flipped} {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		hostile = append(hostile, c)
		if _, err := c.Write(sends); err != nil {
			t.Fatal(err)
		}
	}

	// Healthy traffic alongside the hostiles. Chaos faults hit these
	// connections too, so each request retries until it lands; the
	// assertions are that every one eventually does, and that what lands
	// is the answer — under gob a flipped mantissa byte decoded fine and
	// was delivered; the checksum turns it into one more retry.
	type landed struct {
		classes []int
		sample  int
		logits  []float64
	}
	const workers, perWorker, maxAttempts = 4, 4, 10
	var attempts atomic.Int64
	errCh := make(chan error, workers*perWorker)
	accepted := make(chan landed, workers*perWorker)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := NewClient(addr)
			defer cl.Close()
			cl.DialTimeout = time.Second
			cl.RequestTimeout = time.Second
			for m := 0; m < perWorker; m++ {
				got := landed{classes: []int{g % 4, (g + 1) % 4}, sample: (g*perWorker + m) % 16}
				req := WireRequest{Variant: "W", Classes: got.classes, Input: f.sample(t, got.sample).Data()}
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
				got.logits = resp.Logits
				accepted <- got
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	close(accepted)
	for err := range errCh {
		t.Error(err)
	}
	for got := range accepted {
		want, err := srv.Infer(core.Uniform(got.classes), f.sample(t, got.sample))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bits(got.logits), bits(want.Logits)) {
			t.Errorf("classes %v sample %d: the wire delivered %v, the server computes %v", got.classes, got.sample, got.logits, want.Logits)
		}
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
	// Every hostile peer's handler is gone within a read timeout: the
	// drain has nothing to wait for.
	begin := time.Now()
	if err := srv.Shutdown(10 * time.Second); err != nil || time.Since(begin) > 3*time.Second {
		t.Fatalf("Shutdown after chaos: %v in %v", err, time.Since(begin))
	}
}

// A frame with a flipped bit is never served, in either direction, and
// is retryable in both: every response from a listener that corrupts
// each write, and every request from a client whose connection corrupts
// each write, is a retryable transport error at the client, never an
// answer and never a bad-request, and no damaged request reaches
// Server.infer.
func TestCorruptedFramesAreNeverServed(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{DisableGuard: true, ReadTimeout: 200 * time.Millisecond})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	corrupting := srv.Serve(faults.WrapListener(ln, faults.Plan{Seed: 5, CorruptProb: 1}))
	clean, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	req := WireRequest{Variant: "W", Classes: []int{0, 2}, Input: f.sample(t, 6).Data()}

	responses := NewClient(corrupting)
	defer responses.Close()
	responses.RequestTimeout = 200 * time.Millisecond // a flip that lengthens the prefix leaves the client waiting
	for i := 0; i < 30; i++ {
		resp, err := responses.Infer(req)
		var te *Error
		if !errors.As(err, &te) || te.Code != cloud.CodeInternal || !te.Retryable() {
			t.Fatalf("corrupted response %d was delivered: resp=%+v err=%v", i, resp, err)
		}
	}
	served := srv.Stats().Requests

	requests := NewClient(clean)
	defer requests.Close()
	requests.RequestTimeout = time.Second
	var seed atomic.Int64
	requests.transport().Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return faults.WrapConn(c, faults.Plan{}, faults.Corrupt, seed.Add(1)), nil
	}
	misSized := 0
	for i := 0; i < 30; i++ {
		resp, err := requests.Infer(req)
		var te *Error
		switch {
		case errors.As(err, &te) && te.Code == cloud.CodeInternal && te.Retryable():
		case errors.As(err, &te) && te.Code == cloud.CodeBadRequest && strings.Contains(te.Error(), "size cap"):
			// The flip hit the length prefix, which no checksum covers, and
			// announced a frame over the cap: the server cannot tell that
			// from an oversized request (4 bytes of an 8 KiB frame).
			misSized++
		default:
			t.Fatalf("corrupted request %d: resp=%+v err=%v, want a retryable transport error", i, resp, err)
		}
	}
	if misSized > 1 {
		t.Fatalf("%d of 30 flips landed in a 4-byte length prefix", misSized)
	}
	if now := srv.Stats().Requests; now != served {
		t.Fatalf("%d corrupted requests reached Server.infer", now-served)
	}
}
