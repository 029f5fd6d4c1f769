package device

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/core"
	"capnn/internal/faults"
	"capnn/internal/nn"
	"capnn/internal/rpc"
	"capnn/internal/serve"
)

// After repeated fetch failures the device suppresses drift-triggered
// refetches with exponential backoff, keeps serving its last-good model,
// and recovers cleanly once the shard is back.
func TestDeviceBacksOffAfterFailures(t *testing.T) {
	f := getFixture(t)
	dead := serve.NewClient("127.0.0.1:1") // nothing listens here
	dead.DialTimeout = 300 * time.Millisecond
	dev, err := New(dead, modelCopy(t, f.sys.Net), 4, "W")
	if err != nil {
		t.Fatal(err)
	}
	dev.Retry.MaxAttempts = 1
	clock := time.Unix(1000, 0)
	dev.now = func() time.Time { return clock }

	// Drive drift above threshold: the user only sees class 1.
	observe(t, f, dev, 1, 8)
	if dev.Drift() <= driftThreshold {
		t.Fatalf("drift %v not above threshold", dev.Drift())
	}

	changed, _, err := dev.Repersonalize(false)
	if err == nil || changed {
		t.Fatalf("fetch against a dead shard: changed=%v err=%v", changed, err)
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
	observe(t, f, dev, 1, 1)

	// Past the backoff the device tries again; the second failure
	// doubles the suppression window.
	clock = firstRetry.Add(time.Millisecond)
	if changed, _, err = dev.Repersonalize(false); err == nil || changed {
		t.Fatalf("second fetch against a dead shard: changed=%v err=%v", changed, err)
	}
	if dev.ConsecutiveFailures() != 2 {
		t.Fatalf("failures=%d after second attempt", dev.ConsecutiveFailures())
	}
	if got, want := dev.NextRetry().Sub(clock), 2*dev.RefetchBackoff; got != want {
		t.Fatalf("second backoff %v, want %v", got, want)
	}

	// The shard recovers: the next permitted refetch succeeds, resets
	// the failure streak, and opens a fresh monitoring window.
	_, addr := startShard(t, f.sys, serve.Config{})
	dev.client = serve.NewClient(addr)
	defer dev.client.Close()
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
	if dev.monitor.Total() != 0 {
		t.Fatalf("monitoring window not reset after success: %d observations", dev.monitor.Total())
	}
}

// A payload damaged where the frame's checksum cannot see it — before
// the frame was built — is never installed. One that does not decode, or
// names a stage the base does not have, is a retryable internal fault;
// masks for another base network are a BaseMismatchError, not retried.
// Whatever was refused, the device keeps the model it had.
func TestCorruptPayloadDetected(t *testing.T) {
	f := getFixture(t)
	srv := serve.NewServerWith(f.sys, serve.Config{})
	defer srv.Close()
	resp := srv.Handle(serve.WireRequest{Op: serve.OpPersonalize, Variant: "W", Classes: []int{0, 1}})
	if resp.Code != cloud.CodeOK {
		t.Fatalf("personalize: [%s] %s", resp.Code, resp.Err)
	}
	var good serve.MaskPayload
	if err := good.DecodeWire(resp.Payload); err != nil {
		t.Fatal(err)
	}
	foreignStage := serve.MaskPayload{Base: good.Base, Masks: map[int][]bool{99: {true}}}
	foreignBase := serve.MaskPayload{Base: good.Base ^ 1, Masks: good.Masks}

	for _, tc := range []struct {
		name      string
		payload   []byte
		retryable bool
		want      string
	}{
		{"truncated", resp.Payload[:len(resp.Payload)-1], true, "mask payload"},
		{"stage outside the base", foreignStage.AppendWire(nil), true, "stage 99"},
		{"another base", foreignBase.AppendWire(nil), false, "base network"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			answer := &serve.WireResponse{Version: cloud.ProtocolVersion, Code: cloud.CodeOK, Payload: tc.payload}
			shard := rpc.NewServer(rpc.Limits{ReadTimeout: time.Second, WriteTimeout: time.Second, MaxRequestBytes: 1 << 20},
				func(*serve.WireRequest) *serve.WireResponse { return answer },
				func(msg string) *serve.WireResponse { return serve.Refuse(cloud.CodeBadRequest, "%s", msg) })
			addr, err := shard.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer shard.Shutdown(time.Second)
			dev := newDevice(t, addr, f.sys.Net, "W")
			dev.Retry = Retry{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
			retries := 0
			dev.OnRetry = func(int, error) { retries++ }
			observe(t, f, dev, 0, 1)

			changed, _, err := dev.Repersonalize(true)
			if changed || err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("changed=%v err=%v, want a refusal naming %q", changed, err, tc.want)
			}
			var se *serve.Error
			var mismatch *BaseMismatchError
			switch {
			case tc.retryable && (!errors.As(err, &se) || se.Code != cloud.CodeInternal || retries != 1):
				t.Fatalf("err=%v retries=%d, want an internal fault retried once", err, retries)
			case !tc.retryable && (!errors.As(err, &mismatch) || retries != 0):
				t.Fatalf("err=%v retries=%d, want a BaseMismatchError tried once", err, retries)
			}
			if dev.Model() != dev.base {
				t.Fatal("a refused payload replaced the model")
			}
		})
	}
}

// A device whose base network is not the shard's gets a typed refusal
// and keeps serving its own model.
func TestDeviceRefusesForeignBase(t *testing.T) {
	f := getFixture(t)
	_, addr := startShard(t, f.sys, serve.Config{})
	other := modelCopy(t, f.sys.Net)
	w := other.Params()[0].W.Data()
	w[0] = math.Nextafter(w[0], math.Inf(1)) // one ulp of one weight
	cl := serve.NewClient(addr)
	defer cl.Close()
	dev, err := New(cl, other, 4, "M")
	if err != nil {
		t.Fatal(err)
	}
	observe(t, f, dev, 2, 4)
	changed, _, err := dev.Repersonalize(true)
	var mismatch *BaseMismatchError
	if changed || !errors.As(err, &mismatch) || mismatch.Device == mismatch.Payload {
		t.Fatalf("foreign base: changed=%v err=%v", changed, err)
	}
	if dev.Model() != other || dev.ConsecutiveFailures() != 1 {
		t.Fatalf("after the refusal: model replaced=%v failures=%d", dev.Model() != other, dev.ConsecutiveFailures())
	}
}

// Acceptance: the full device↔shard loop under injected connection
// drops, mid-stream closes, latency, and corrupt frames. The device must
// retry with backoff, never panic, never install a corrupt model, and
// keep classifying with its last-good model throughout.
func TestChaosDeviceNeverLosesModel(t *testing.T) {
	f := getFixture(t)
	srv := serve.NewServerWith(f.sys, serve.Config{ReadTimeout: 2 * time.Second, WriteTimeout: 2 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// A mask payload answer is a few dozen bytes, so the drop and close
	// budgets end inside the first response on their connection.
	plan := faults.Plan{
		Seed: 11, Latency: time.Millisecond,
		DropProb: 0.10, DropAfter: 16,
		CloseProb: 0.20, CloseAfter: 24,
		CorruptProb: 0.25,
	}
	addr := srv.Serve(faults.WrapListener(ln, plan))
	defer srv.Close()

	// A device refetches rarely, and the shard reaps an idle connection
	// at ReadTimeout, so every round starts on a fresh client: each
	// round's first connection, like each retry's, draws its own fault.
	reconnect := func() *serve.Client {
		cl := serve.NewClient(addr)
		cl.DialTimeout = 2 * time.Second
		cl.RequestTimeout = 2 * time.Second
		return cl
	}
	dev, err := New(reconnect(), modelCopy(t, f.sys.Net), 4, "W")
	if err != nil {
		t.Fatal(err)
	}
	dev.Retry = Retry{MaxAttempts: 6, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond}
	retries := 0
	dev.OnRetry = func(attempt int, err error) {
		retries++
		t.Logf("retry after attempt %d: %v", attempt, err)
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

	successes, failedRounds := 0, 0
	for i := 0; i < 12; i++ {
		dev.client.Close()
		dev.client = reconnect()
		// User traffic: mostly class 1, some class 3.
		observe(t, f, dev, 1, 4)
		observe(t, f, dev, 3, 2)
		changed, _, err := dev.Repersonalize(i%2 == 0)
		switch {
		case err != nil:
			failedRounds++
		case changed:
			successes++
		}
		// Whatever happened on the wire, the device must still hold a
		// working model, and only ever one its base compacts to.
		assertWorkingModel(fmt.Sprintf("round %d (err=%v)", i, err))
		if changed {
			masks, perr := f.sys.Prune(core.VariantW, dev.Current())
			want, cerr := nn.CompactMasked(f.sys.Net, masks)
			if perr != nil || cerr != nil || !bytes.Equal(saved(t, dev.Model()), saved(t, want)) {
				t.Fatalf("round %d installed a model that is not the key's personalization (%v, %v)", i, perr, cerr)
			}
		}
	}
	dev.client.Close()
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

// The accessors below only the tests read.

// ConsecutiveFailures reports how many Repersonalize fetches in a row
// have failed since the last success.
func (d *Device) ConsecutiveFailures() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failures
}

// NextRetry returns when the next drift-triggered refetch may run
// (zero when the device is healthy). Forced repersonalizations ignore
// it.
func (d *Device) NextRetry() time.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.retryAt
}
