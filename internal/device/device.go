// Package device is the local-device side of the paper's framework
// (§II, Fig. 1a). The device holds the commodity base network; the
// serving tier's shard holds the same network, its firing rates and the
// mask cache. When the user's class usage calls for it the device sends
// its preferences (OpPersonalize), receives the masks the shard serves
// that key with — one bit per prunable unit, not a model — and compacts
// its own base under them with nn.CompactMasked.
package device

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/core"
	"capnn/internal/nn"
	"capnn/internal/serve"
	"capnn/internal/tensor"
)

// Retry configures the fetch's retry loop: exponential backoff with full
// jitter, applied only to failures whose serve.Error code is retryable
// (transport faults, undecodable payloads, busy or internal shards).
// Bad requests and a foreign base are never retried — the same request
// cannot start succeeding.
type Retry struct {
	// MaxAttempts is the total number of tries (1 = no retry).
	MaxAttempts int
	// BaseBackoff is the backoff ceiling before the first retry; the
	// ceiling doubles each further attempt, capped at MaxBackoff, and
	// the actual sleep is uniform in [0, ceiling) (full jitter).
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff ceiling.
	MaxBackoff time.Duration
}

const (
	// driftThreshold is the total-variation distance between the
	// monitored usage and the personalized-for usage above which
	// Repersonalize fetches new masks.
	driftThreshold = 0.25
	// firstTopK is how many classes the first personalization keeps;
	// later ones keep the current preference count.
	firstTopK = 2
	// maxRefetchBackoff caps the refetch suppression RefetchBackoff
	// starts.
	maxRefetchBackoff = 5 * time.Minute
)

// BaseMismatchError is the refusal of masks computed on another base
// network than the device's: compacting its own base under them would
// install a model nobody computed.
type BaseMismatchError struct {
	// Device and Payload are the two BaseSum checksums.
	Device, Payload uint32
}

func (e *BaseMismatchError) Error() string {
	return fmt.Sprintf("device: masks are for base network %08x, this device holds %08x", e.Payload, e.Device)
}

// Stats summarizes a personalization the device installed.
type Stats struct {
	// RelativeSize is pruned params / original params.
	RelativeSize float64
	// PrunedUnits and TotalUnits count units over the masked stages.
	PrunedUnits, TotalUnits int
}

// Device models the local device over its whole lifecycle: it runs
// inference on its current model, keeps the monitoring period going, and
// — when the observed class usage drifts away from what the current
// model was personalized for — asks the shard for masks again (paper §II:
// "the network can be pruned again if the user's preferences change").
//
// The device degrades gracefully when the shard is unreachable: a
// failed Repersonalize keeps the current model serving inference,
// records the consecutive-failure streak, and backs off drift-triggered
// refetches exponentially until the shard recovers — the device never
// ends up without a working model.
//
// A Device is safe for concurrent use: any number of goroutines may
// Classify while another repersonalizes (inference is the stateless
// Network.Infer, and a fetch in flight does not hold the lock).
type Device struct {
	client  *serve.Client
	base    *nn.Network
	baseSum uint32
	classes int
	variant string

	// Retry governs the fetch's backoff loop around transient failures.
	// Defaults: 3 attempts, 100 ms base, 2 s cap.
	Retry Retry
	// OnRetry, when set, observes each retry: it is called with the
	// 1-based number of the attempt that just failed and its error,
	// before the backoff sleep.
	OnRetry func(attempt int, err error)

	mu      sync.Mutex // guards model, monitor, current, failures, retryAt
	model   *nn.Network
	monitor *core.Monitor
	current core.Preferences
	// RefetchBackoff is how long drift-triggered refetches are
	// suppressed after the first consecutive failure; the suppression
	// doubles per further failure, capped at 5 min. Defaults to 1 s.
	RefetchBackoff time.Duration

	failures int
	retryAt  time.Time
	now      func() time.Time // injectable clock for tests
}

// New builds a device that personalizes base, the commodity network with
// numClasses outputs it starts serving with, through the shard (or
// gateway) client talks to, under the named variant.
func New(client *serve.Client, base *nn.Network, numClasses int, variant string) (*Device, error) {
	mon, err := core.NewMonitor(numClasses)
	if err != nil {
		return nil, err
	}
	if base == nil {
		return nil, fmt.Errorf("device: needs a base model")
	}
	sum, err := serve.BaseSum(base)
	if err != nil {
		return nil, fmt.Errorf("device: base model: %w", err)
	}
	return &Device{
		client: client, base: base, baseSum: sum, classes: numClasses, variant: variant,
		Retry: Retry{MaxAttempts: 3, BaseBackoff: 100 * time.Millisecond, MaxBackoff: 2 * time.Second},
		model: base, monitor: mon,
		RefetchBackoff: time.Second,
		now:            time.Now,
	}, nil
}

// Model returns the model currently deployed on the device.
func (d *Device) Model() *nn.Network {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.model
}

// Current returns the preferences the deployed model was personalized
// for (empty before the first personalization).
func (d *Device) Current() core.Preferences {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.current
}

// Classify runs one input through the deployed model, records the
// prediction in the monitoring period, and returns the predicted class.
func (d *Device) Classify(x *tensor.Tensor) (int, error) {
	logits := d.Model().Infer(x, nil)
	if logits.Dim(1) != d.classes {
		return 0, fmt.Errorf("device: model emits %d classes, device expects %d", logits.Dim(1), d.classes)
	}
	pred := tensor.Argmax(logits.Data()[:d.classes])
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.monitor.Observe(pred); err != nil {
		return 0, err
	}
	return pred, nil
}

func (d *Device) drift() float64 {
	if d.monitor.Total() == 0 {
		return 0
	}
	total, tv := float64(d.monitor.Total()), 0.0
	for c, n := range d.monitor.Counts() {
		tv += math.Abs(float64(n)/total - d.current.Weight(c))
	}
	return tv / 2
}

// Repersonalize fetches fresh masks and installs the base compacted
// under them if usage drifted beyond driftThreshold (or force is set).
// It returns whether a new model was installed.
//
// On fetch failure the current model stays deployed and further
// drift-triggered refetches are suppressed for an exponentially growing
// backoff window (see RefetchBackoff); the returned error reports the
// failure. While suppressed, non-forced calls return (false, nil) —
// the device keeps serving with its last-good model.
func (d *Device) Repersonalize(force bool) (bool, Stats, error) {
	prefs, err := d.wanted(force)
	if err != nil || prefs.K() == 0 {
		return false, Stats{}, err
	}
	model, stats, err := d.fetch(prefs)
	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil {
		d.failures++
		d.retryAt = d.now().Add(d.failureBackoff())
		return false, Stats{}, err
	}
	d.failures = 0
	d.retryAt = time.Time{}
	d.model = model
	d.current = prefs
	// Start a fresh monitoring window so drift reflects usage under
	// the new model rather than unbounded lifetime counts.
	d.monitor.Reset()
	return true, stats, nil
}

// wanted returns the preferences Repersonalize should fetch masks for,
// or none when no fetch is due.
func (d *Device) wanted(force bool) (core.Preferences, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !force {
		if d.drift() < driftThreshold {
			return core.Preferences{}, nil
		}
		if d.failures > 0 && d.now().Before(d.retryAt) {
			return core.Preferences{}, nil // backing off a failing shard
		}
	}
	if d.monitor.Total() == 0 && d.current.K() > 0 {
		// Forced refresh inside a fresh monitoring window: keep the
		// preferences the device is already personalized for.
		return d.current, nil
	}
	k := firstTopK
	if d.current.K() > 0 {
		k = d.current.K()
	}
	return d.monitor.Preferences(k)
}

// fetch runs fetchOnce under the Retry policy. The error of the last
// attempt is wrapped with the attempt count.
func (d *Device) fetch(prefs core.Preferences) (*nn.Network, Stats, error) {
	attempts := max(d.Retry.MaxAttempts, 1)
	for i := 1; ; i++ {
		model, st, err := d.fetchOnce(prefs)
		if err == nil {
			return model, st, nil
		}
		var se *serve.Error
		if i == attempts || !errors.As(err, &se) || !se.Code.Retryable() {
			return nil, Stats{}, fmt.Errorf("device: fetch failed after %d attempt(s): %w", i, err)
		}
		if d.OnRetry != nil {
			d.OnRetry(i, err)
		}
		time.Sleep(d.backoff(i))
	}
}

// fetchOnce is one attempt: the masks the shard serves prefs with, and
// the device's base compacted under them. A payload that does not decode
// or does not fit the base is a retryable internal fault — the frame's
// checksum held, so the shard sent it so — and masks for another base
// are a BaseMismatchError.
func (d *Device) fetchOnce(prefs core.Preferences) (*nn.Network, Stats, error) {
	resp, err := d.client.Personalize(serve.WireRequest{Variant: d.variant, Classes: prefs.Classes, Weights: prefs.Weights})
	if err != nil {
		return nil, Stats{}, err
	}
	var p serve.MaskPayload
	err = p.DecodeWire(resp.Payload)
	if err == nil && p.Base != d.baseSum {
		return nil, Stats{}, &BaseMismatchError{Device: d.baseSum, Payload: p.Base}
	}
	var model *nn.Network
	if err == nil {
		model, err = nn.CompactMasked(d.base, p.Masks)
	}
	if err != nil {
		return nil, Stats{}, &serve.Error{Code: cloud.CodeInternal, Err: fmt.Errorf("mask payload: %w", err)}
	}
	st := Stats{RelativeSize: nn.RelativeSize(d.base, model)}
	for _, m := range p.Masks {
		for _, pruned := range m {
			st.TotalUnits++
			if pruned {
				st.PrunedUnits++
			}
		}
	}
	return model, st, nil
}

// doubling is base·2^(n-1), with unset standing in for a base ≤ 0,
// capped at limit when limit > 0 and saturating at the largest Duration.
// The exponent stops at 20: 2^20 × base already dwarfs any sane cap.
func doubling(base, unset, limit time.Duration, n int) time.Duration {
	if base <= 0 {
		base = unset
	}
	for i := 1; i < min(n, 21) && (limit <= 0 || base < limit); i++ {
		if base > math.MaxInt64/2 {
			base = math.MaxInt64
			break
		}
		base *= 2
	}
	if limit > 0 && base > limit {
		return limit
	}
	return base
}

// backoff returns the full-jitter sleep before retry attempt i (1-based).
func (d *Device) backoff(i int) time.Duration {
	ceil := int64(doubling(d.Retry.BaseBackoff, time.Millisecond, d.Retry.MaxBackoff, i))
	if ceil == math.MaxInt64 {
		return time.Duration(rand.Int63()) // [0, ceil]; ceil+1 would wrap
	}
	return time.Duration(rand.Int63n(ceil + 1))
}

// failureBackoff returns the refetch suppression after the current
// failure streak: base·2^(failures-1), capped.
func (d *Device) failureBackoff() time.Duration {
	return doubling(d.RefetchBackoff, time.Second, maxRefetchBackoff, d.failures)
}
