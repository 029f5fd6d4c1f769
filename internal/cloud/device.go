package cloud

import (
	"fmt"
	"sync"
	"time"

	"capnn/internal/core"
	"capnn/internal/nn"
	"capnn/internal/tensor"
)

// Device models the local-device side of the paper's framework over its
// whole lifecycle: it runs inference on its current model, keeps the
// monitoring period going, and — when the observed class usage drifts
// away from what the current model was personalized for — asks the cloud
// to prune again (paper §II: "the network can be pruned again if the
// user's preferences change").
//
// The device degrades gracefully when the cloud is unreachable: a
// failed Repersonalize keeps the current model serving inference,
// records the consecutive-failure streak, and backs off drift-triggered
// refetches exponentially until the cloud recovers — the device never
// ends up without a working model.
//
// A Device is safe for concurrent use: any number of goroutines may
// Classify while another repersonalizes (inference is the stateless
// Network.Infer, and a fetch in flight does not hold the lock).
type Device struct {
	client  *Client
	classes int
	variant string

	mu      sync.Mutex // guards model, monitor, current, failures, retryAt
	model   *nn.Network
	monitor *core.Monitor
	current core.Preferences
	// DriftThreshold is the total-variation distance between the
	// monitored usage and the personalized-for usage above which
	// Repersonalize fetches a new model. Defaults to 0.25.
	DriftThreshold float64
	// TopK is how many classes a repersonalization keeps. Defaults to
	// the current preference count (or 2 before the first fetch).
	TopK int
	// RefetchBackoff is how long drift-triggered refetches are
	// suppressed after the first consecutive failure; the suppression
	// doubles per further failure, capped at MaxRefetchBackoff.
	// Defaults: 1 s base, 5 min cap.
	RefetchBackoff    time.Duration
	MaxRefetchBackoff time.Duration

	failures int
	retryAt  time.Time
	now      func() time.Time // injectable clock for tests
}

// NewDevice wraps a cloud client for a model with numClasses outputs.
// initial is the commodity (unpersonalized) model the device starts with.
func NewDevice(client *Client, initial *nn.Network, numClasses int, variant string) (*Device, error) {
	mon, err := core.NewMonitor(numClasses)
	if err != nil {
		return nil, err
	}
	if initial == nil {
		return nil, fmt.Errorf("cloud: device needs an initial model")
	}
	return &Device{
		client: client, classes: numClasses, variant: variant,
		model: initial, monitor: mon,
		DriftThreshold: 0.25, TopK: 2,
		RefetchBackoff:    time.Second,
		MaxRefetchBackoff: 5 * time.Minute,
		now:               time.Now,
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

// Classify runs one input through the deployed model, records the
// prediction in the monitoring period, and returns the predicted class.
func (d *Device) Classify(x *tensor.Tensor) (int, error) {
	logits := d.Model().Infer(x, nil)
	if logits.Dim(1) != d.classes {
		return 0, fmt.Errorf("cloud: model emits %d classes, device expects %d", logits.Dim(1), d.classes)
	}
	pred := tensor.Argmax(logits.Data()[:d.classes])
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.monitor.Observe(pred); err != nil {
		return 0, err
	}
	return pred, nil
}

// Drift returns the total-variation distance between the monitored usage
// distribution and the usage the current model was personalized for.
// Before any personalization it returns 1 (maximal drift) once there is
// at least one observation. The monitoring window restarts after each
// successful repersonalization, so drift measures usage since the
// current model was installed, not the device's whole history.
func (d *Device) Drift() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.drift()
}

func (d *Device) drift() float64 {
	if d.monitor.Total() == 0 {
		return 0
	}
	counts := d.monitor.Counts()
	total := float64(d.monitor.Total())
	tv := 0.0
	for c, n := range counts {
		observed := float64(n) / total
		personalized := d.current.Weight(c)
		diff := observed - personalized
		if diff < 0 {
			diff = -diff
		}
		tv += diff
	}
	return tv / 2
}

// Repersonalize fetches a freshly pruned model if usage drifted beyond
// DriftThreshold (or force is set). It returns whether a new model was
// installed.
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
	model, stats, err := d.client.Fetch(Request{Variant: d.variant, Classes: prefs.Classes, Weights: prefs.Weights})
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

// wanted returns the preferences Repersonalize should fetch a model for,
// or none when no fetch is due.
func (d *Device) wanted(force bool) (core.Preferences, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !force {
		if d.drift() < d.DriftThreshold {
			return core.Preferences{}, nil
		}
		if d.failures > 0 && d.now().Before(d.retryAt) {
			return core.Preferences{}, nil // backing off a failing cloud
		}
	}
	if d.monitor.Total() == 0 && d.current.K() > 0 {
		// Forced refresh inside a fresh monitoring window: keep the
		// preferences the device is already personalized for.
		return d.current, nil
	}
	k := d.TopK
	if d.current.K() > 0 {
		k = d.current.K()
	}
	return d.monitor.Preferences(k)
}

// failureBackoff returns the refetch suppression after the current
// failure streak: base·2^(failures-1), capped.
func (d *Device) failureBackoff() time.Duration {
	base := d.RefetchBackoff
	if base <= 0 {
		base = time.Second
	}
	max := d.MaxRefetchBackoff
	if max <= 0 {
		max = 5 * time.Minute
	}
	b := base
	for i := 1; i < d.failures && b < max; i++ {
		b *= 2
	}
	if b > max {
		b = max
	}
	return b
}
