package cloud

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"capnn/internal/core"
	"capnn/internal/faults"
	"capnn/internal/nn"
)

// writeFrame and readFrame speak internal/rpc's framing — [u32 body
// length][body][u32 CRC-32C of body], little-endian — on a raw
// connection, for the tests that play a peer that is not a Client or a
// Server.
func writeFrame(conn net.Conn, body []byte) error {
	f := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	f = append(f, body...)
	_, err := conn.Write(binary.LittleEndian.AppendUint32(f, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))))
	return err
}

func readFrame(conn net.Conn) ([]byte, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(conn, prefix[:]); err != nil {
		return nil, err
	}
	frame := make([]byte, binary.LittleEndian.Uint32(prefix[:])+4)
	if _, err := io.ReadFull(conn, frame); err != nil {
		return nil, err
	}
	body := frame[:len(frame)-4]
	if crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)) != binary.LittleEndian.Uint32(frame[len(body):]) {
		return nil, errors.New("frame checksum mismatch")
	}
	return body, nil
}

// waitFor polls cond until it holds or the window elapses.
func waitFor(t *testing.T, window time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for: %s", msg)
}

// modelCopy round-trips a network through its serialized form so tests
// can hand a device a model that shares no memory with the server's.
func modelCopy(t *testing.T, net *nn.Network) *nn.Network {
	t.Helper()
	var buf bytes.Buffer
	if err := nn.Save(&buf, net); err != nil {
		t.Fatal(err)
	}
	m, err := nn.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Satellite regression: a peer that connects and then hangs (or sends
// garbage and never reads the error response) must not hold a handler
// goroutine past the server's deadlines.
func TestHungClientCannotHoldHandler(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{ReadTimeout: 150 * time.Millisecond, WriteTimeout: 150 * time.Millisecond})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	time.Sleep(50 * time.Millisecond) // let the accept loop settle
	base := runtime.NumGoroutine()

	var conns []net.Conn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < 4; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c) // connect and say nothing
	}
	// The decode-error path: garbage request, then hang without reading
	// the error response the server writes back.
	gc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gc.Write([]byte("definitely not gob")); err != nil {
		t.Fatal(err)
	}
	conns = append(conns, gc)

	waitFor(t, 5*time.Second, func() bool {
		return runtime.NumGoroutine() <= base+1 && srv.Inflight() == 0
	}, fmt.Sprintf("handler goroutines to drain (base %d, now %d, inflight %d)",
		base, runtime.NumGoroutine(), srv.Inflight()))

	// The server must still serve real clients afterwards.
	if _, _, err := NewClient(addr).Fetch(Request{Variant: "B", Classes: []int{0, 1}}); err != nil {
		t.Fatalf("server unusable after hung clients: %v", err)
	}
}

// The in-flight limit sheds excess load with a typed, retryable busy
// error instead of queuing without bound.
func TestServerShedsLoadWhenBusy(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{MaxInflight: 1})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Occupy the one in-flight slot the way an admitted request does.
	srv.inflight <- struct{}{}
	cl := NewClient(addr)
	cl.Retry.MaxAttempts = 1
	_, _, err = cl.Fetch(Request{Variant: "B", Classes: []int{0}})
	<-srv.inflight
	var ce *Error
	if !errors.As(err, &ce) {
		t.Fatalf("overload error not typed: %v", err)
	}
	if ce.Code != CodeBusy || !ce.Retryable() {
		t.Fatalf("want retryable busy, got code=%v retryable=%v (%v)", ce.Code, ce.Retryable(), ce)
	}
	if _, _, err := cl.Fetch(Request{Variant: "B", Classes: []int{0}}); err != nil {
		t.Fatalf("request after the slot freed failed: %v", err)
	}
}

// A panic mid-prune — here Algorithm 1 matrices that name a stage they
// hold no column for — is recovered into a retryable CodeInternal
// response, and the next request is served.
func TestPanicRecovery(t *testing.T) {
	f := getFixture(t)
	good, err := f.sys.BMatrices()
	if err != nil {
		t.Fatal(err)
	}
	defer f.sys.SetBMatrices(good)
	f.sys.SetBMatrices(&core.BMatrices{Classes: good.Classes, Stages: good.Stages, Units: good.Units})
	srv := NewServer(f.sys)
	resp := srv.Personalize(Request{Variant: "B", Classes: []int{0, 1}})
	if resp.Code != CodeInternal || resp.Err == "" {
		t.Fatalf("panic not surfaced as internal error: %+v", resp)
	}
	if !resp.Code.Retryable() {
		t.Fatal("internal errors must be retryable")
	}
	f.sys.SetBMatrices(good)
	if resp := srv.Personalize(Request{Variant: "B", Classes: []int{0, 1}}); resp.Code != CodeOK {
		t.Fatalf("server did not recover after panic: %+v", resp)
	}
}

// Oversized requests are cut off at the decode limit instead of being
// buffered without bound.
func TestOversizeRequestRejected(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{MaxRequestBytes: 256})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(addr)
	cl.Retry.MaxAttempts = 1
	_, _, err = cl.Fetch(Request{Variant: "W", Classes: []int{0}, Weights: make([]float64, 4096)})
	if err == nil {
		t.Fatal("oversized request accepted")
	}
	// A normal request still fits.
	if _, _, err := NewClient(addr).Fetch(Request{Variant: "B", Classes: []int{0, 1}}); err != nil {
		t.Fatalf("normal request rejected by size limit: %v", err)
	}
}

// Fetch errors carry enough structure to separate retryable transport
// faults from permanent validation failures, and the retry loop honors
// the distinction.
func TestClientErrorTyping(t *testing.T) {
	cl := NewClient("127.0.0.1:1") // nothing listens here
	cl.DialTimeout = 500 * time.Millisecond
	cl.Retry = Retry{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	_, _, err := cl.Fetch(Request{Variant: "W", Classes: []int{0}})
	var ce *Error
	if !errors.As(err, &ce) {
		t.Fatalf("dial failure not typed: %v", err)
	}
	if ce.Op != "dial" || !ce.Retryable() || ce.Attempts != 3 {
		t.Fatalf("dial failure: op=%q retryable=%v attempts=%d", ce.Op, ce.Retryable(), ce.Attempts)
	}

	f := getFixture(t)
	srv := NewServer(f.sys)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl = NewClient(addr)
	cl.Retry = Retry{MaxAttempts: 5, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	_, _, err = cl.Fetch(Request{Variant: "X", Classes: []int{0}})
	if !errors.As(err, &ce) {
		t.Fatalf("validation failure not typed: %v", err)
	}
	if ce.Code != CodeBadRequest || ce.Retryable() {
		t.Fatalf("validation failure: code=%v retryable=%v", ce.Code, ce.Retryable())
	}
	if ce.Attempts != 1 {
		t.Fatalf("validation failure was retried %d times", ce.Attempts)
	}
}

// Satellite: N goroutines × M requests against one server under -race;
// every response must be a valid, loadable, runnable model.
func TestConcurrentFetchRace(t *testing.T) {
	f := getFixture(t)
	srv := NewServer(f.sys)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	x, _ := f.sets.Test.Batch([]int{0, 5})
	const N, M = 6, 4
	errCh := make(chan error, N*M)
	var wg sync.WaitGroup
	for g := 0; g < N; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := NewClient(addr)
			for m := 0; m < M; m++ {
				model, st, err := cl.Fetch(Request{Variant: "W",
					Classes: []int{g % 4, (g + 1) % 4}, Weights: []float64{0.7, 0.3}})
				if err != nil {
					errCh <- fmt.Errorf("goroutine %d req %d: %w", g, m, err)
					return
				}
				if model.ParamCount() <= 0 || st.RelativeSize <= 0 || st.RelativeSize > 1 {
					errCh <- fmt.Errorf("goroutine %d req %d: degenerate model (%d params, rel %v)",
						g, m, model.ParamCount(), st.RelativeSize)
					return
				}
				logits := model.Forward(x)
				if logits.Dim(1) != 4 {
					errCh <- fmt.Errorf("goroutine %d req %d: model emits %d classes", g, m, logits.Dim(1))
					return
				}
				for _, v := range logits.Data() {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						errCh <- fmt.Errorf("goroutine %d req %d: non-finite logits", g, m)
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
}

// Satellite: after repeated fetch failures the device suppresses
// drift-triggered refetches with exponential backoff, keeps serving its
// last-good model, and recovers cleanly once the cloud is back.
func TestDeviceBacksOffAfterFailures(t *testing.T) {
	f := getFixture(t)
	cl := NewClient("127.0.0.1:1") // dead cloud
	cl.DialTimeout = 300 * time.Millisecond
	cl.Retry.MaxAttempts = 1
	dev, err := NewDevice(cl, modelCopy(t, f.sys.Net), 4, "W")
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(1000, 0)
	dev.now = func() time.Time { return clock }

	// Drive drift above threshold: the user only sees class 1.
	byClass := f.sets.Test.ByClass()
	for i := 0; i < 8; i++ {
		x, _ := f.sets.Test.Batch([]int{byClass[1][i%len(byClass[1])]})
		if _, err := dev.Classify(x); err != nil {
			t.Fatal(err)
		}
	}
	if dev.Drift() <= dev.DriftThreshold {
		t.Fatalf("drift %v not above threshold", dev.Drift())
	}

	changed, _, err := dev.Repersonalize(false)
	if err == nil || changed {
		t.Fatalf("fetch against dead cloud: changed=%v err=%v", changed, err)
	}
	if dev.ConsecutiveFailures() != 1 || dev.Model() == nil {
		t.Fatalf("after 1 failure: failures=%d", dev.ConsecutiveFailures())
	}
	firstRetry := dev.NextRetry()
	if !firstRetry.After(clock) {
		t.Fatal("no backoff recorded after failure")
	}

	// While backing off, drift-triggered refetches are suppressed
	// without error and the old model keeps serving.
	changed, _, err = dev.Repersonalize(false)
	if err != nil || changed {
		t.Fatalf("suppressed refetch: changed=%v err=%v", changed, err)
	}
	if dev.ConsecutiveFailures() != 1 {
		t.Fatal("suppressed refetch counted as a failure")
	}
	x, _ := f.sets.Test.Batch([]int{byClass[1][0]})
	if _, err := dev.Classify(x); err != nil {
		t.Fatalf("device lost its working model during outage: %v", err)
	}

	// Past the backoff the device tries again; the second failure
	// doubles the suppression window.
	clock = firstRetry.Add(time.Millisecond)
	if changed, _, err = dev.Repersonalize(false); err == nil || changed {
		t.Fatalf("second fetch against dead cloud: changed=%v err=%v", changed, err)
	}
	if dev.ConsecutiveFailures() != 2 {
		t.Fatalf("failures=%d after second attempt", dev.ConsecutiveFailures())
	}
	if got, want := dev.NextRetry().Sub(clock), 2*dev.RefetchBackoff; got != want {
		t.Fatalf("second backoff %v, want %v", got, want)
	}

	// Cloud recovers: the next permitted refetch succeeds, resets the
	// failure streak, and opens a fresh monitoring window.
	srv := NewServer(f.sys)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl.Addr = addr
	clock = dev.NextRetry().Add(time.Millisecond)
	changed, stats, err := dev.Repersonalize(false)
	if err != nil || !changed {
		t.Fatalf("recovery fetch: changed=%v err=%v", changed, err)
	}
	if dev.ConsecutiveFailures() != 0 || !dev.NextRetry().IsZero() {
		t.Fatalf("failure state not reset: failures=%d retryAt=%v", dev.ConsecutiveFailures(), dev.NextRetry())
	}
	if stats.RelativeSize >= 1 {
		t.Fatalf("recovered model not personalized: %+v", stats)
	}
	if dev.Current().K() == 0 {
		t.Fatal("preferences not recorded on recovery")
	}
	if total := len(dev.monitor.Counts()); total == 0 {
		t.Fatal("monitor vanished")
	}
	if dev.monitor.Total() != 0 {
		t.Fatalf("monitoring window not reset after success: %d observations", dev.monitor.Total())
	}
}

// A model payload corrupted where the frame's checksum cannot see it —
// before the frame was built: a bad disk block or a flipped bit in the
// server's memory — must be rejected by the model's own CRC-32 as a
// retryable fault, never installed.
func TestCorruptPayloadDetected(t *testing.T) {
	f := getFixture(t)
	srv := NewServer(f.sys)
	resp := srv.Personalize(Request{Variant: "B", Classes: []int{0, 1}})
	if resp.Code != CodeOK {
		t.Fatalf("personalize: %+v", resp)
	}
	// Flip one bit mid-payload but keep the original model checksum; the
	// frame is then built, honestly, around the damaged response.
	resp.Model[len(resp.Model)/2] ^= 0x40

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				_, _ = readFrame(c)
				_ = writeFrame(c, resp.AppendWire(nil))
			}(conn)
		}
	}()

	cl := NewClient(ln.Addr().String())
	cl.Retry = Retry{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	_, _, err = cl.Fetch(Request{Variant: "B", Classes: []int{0, 1}})
	var ce *Error
	if !errors.As(err, &ce) {
		t.Fatalf("corrupt payload not rejected: %v", err)
	}
	if ce.Op != "payload" || !strings.Contains(ce.Err.Error(), "checksum") {
		t.Fatalf("want checksum mismatch, got op=%q err=%v", ce.Op, ce.Err)
	}
	if !ce.Retryable() || ce.Attempts != 2 {
		t.Fatalf("corruption must be retried: retryable=%v attempts=%d", ce.Retryable(), ce.Attempts)
	}
}

// Acceptance: the full device↔cloud loop under injected connection
// drops, mid-stream closes, latency, and corrupt payloads. The device
// must retry with backoff, never panic, never install a corrupt model,
// and keep classifying with its last-good model throughout.
func TestChaosDeviceNeverLosesModel(t *testing.T) {
	f := getFixture(t)
	srv := NewServerWith(f.sys, Config{ReadTimeout: 2 * time.Second, WriteTimeout: 2 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.Plan{
		Seed: 11, Latency: time.Millisecond,
		DropProb: 0.10, DropAfter: 256,
		CloseProb: 0.20, CloseAfter: 512,
		CorruptProb: 0.25,
	}
	addr := srv.Serve(faults.WrapListener(ln, plan))
	defer srv.Close()

	cl := NewClient(addr)
	cl.DialTimeout = 2 * time.Second
	cl.RequestTimeout = 2 * time.Second
	cl.Retry = Retry{MaxAttempts: 6, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond}
	retries := 0
	cl.OnRetry = func(attempt int, err error) {
		retries++
		t.Logf("retry after attempt %d: %v", attempt, err)
	}
	dev, err := NewDevice(cl, modelCopy(t, f.sys.Net), 4, "W")
	if err != nil {
		t.Fatal(err)
	}
	dev.RefetchBackoff = time.Millisecond

	probe, _ := f.sets.Test.Batch([]int{0, 3, 7})
	assertWorkingModel := func(stage string) {
		t.Helper()
		m := dev.Model()
		if m == nil {
			t.Fatalf("%s: device has no model", stage)
		}
		logits := m.Forward(probe)
		if logits.Dim(1) != 4 {
			t.Fatalf("%s: deployed model emits %d classes", stage, logits.Dim(1))
		}
		for _, v := range logits.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: deployed model produces non-finite logits (corrupt install?)", stage)
			}
		}
	}
	assertWorkingModel("initial")

	byClass := f.sets.Test.ByClass()
	successes, failedRounds := 0, 0
	for i := 0; i < 12; i++ {
		// User traffic: mostly class 1, some class 3.
		for j := 0; j < 6; j++ {
			cls := 1
			if j%3 == 2 {
				cls = 3
			}
			x, _ := f.sets.Test.Batch([]int{byClass[cls][(i*6+j)%len(byClass[cls])]})
			if _, err := dev.Classify(x); err != nil {
				t.Fatalf("round %d: classify failed — device lost its model: %v", i, err)
			}
		}
		changed, _, err := dev.Repersonalize(i%4 == 0)
		switch {
		case err != nil:
			failedRounds++
		case changed:
			successes++
		}
		// Whatever happened on the wire, the device must still hold a
		// working model.
		assertWorkingModel(fmt.Sprintf("round %d (err=%v)", i, err))
	}
	if successes == 0 {
		t.Fatalf("no repersonalization ever succeeded under chaos (%d failed rounds)", failedRounds)
	}
	if dev.Current().K() == 0 {
		t.Fatal("device never recorded personalized preferences")
	}
	// With seed 11 over half the connections are faulty; the loop must
	// have survived through actual retries, not a lucky clean run.
	if retries == 0 {
		t.Fatal("chaos plan injected no faults — test exercised nothing")
	}
	t.Logf("chaos: %d personalizations succeeded, %d rounds failed transiently, %d transport retries",
		successes, failedRounds, retries)
}
