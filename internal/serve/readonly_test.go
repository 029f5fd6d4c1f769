package serve

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"capnn/internal/cloud"
	"capnn/internal/core"
	"capnn/internal/nn"
)

// DESIGN.md invariant 17: after NewSystem the network is never written.
// Every way this tree personalizes — Prune under each variant, Measure,
// a device's OpPersonalize, a serve cache fill, a fill that panics —
// leaves the serialized network (weights and installed masks)
// byte-identical, not only once it returns but at every moment a
// concurrent reader looks.
// Meaningful under -race.
func TestPruneNeverWritesNetwork(t *testing.T) {
	f := getFixture(t)
	sys := f.sys
	save := func() []byte {
		var buf bytes.Buffer
		if err := nn.Save(&buf, sys.Net); err != nil {
			t.Error(err)
		}
		return buf.Bytes()
	}
	want := save()

	stop, watched := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(watched)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !bytes.Equal(save(), want) {
				t.Error("the network changed while a personalization ran")
				return
			}
		}
	}()

	prefs := core.Uniform([]int{0, 2})
	srv := NewServerWith(sys, Config{})
	defer srv.Close()
	type step struct {
		name string
		run  func() error
	}
	var steps []step
	for _, v := range []core.Variant{core.VariantB, core.VariantW, core.VariantM} {
		v := v
		steps = append(steps, step{"Prune and Measure " + string(v), func() error {
			masks, err := sys.Prune(v, prefs)
			if err != nil {
				return err
			}
			_, err = core.Measure(sys.Net, prefs, masks, f.sets.Test)
			return err
		}})
	}
	steps = append(steps,
		step{"OpPersonalize", func() error {
			other := NewServerWith(sys, Config{})
			defer other.Close()
			if resp := other.Handle(WireRequest{Op: OpPersonalize, Variant: "M", Classes: prefs.Classes}); resp.Code != cloud.CodeOK {
				return fmt.Errorf("%v: %s", resp.Code, resp.Err)
			}
			return nil
		}},
		step{"serve fill", func() error {
			res, err := srv.Infer(prefs, f.sample(t, 1))
			if err == nil && res.CacheHit {
				err = errors.New("first request was a cache hit: nothing was filled")
			}
			return err
		}},
		step{"serve fill that panics", func() error {
			srv.hookPersonalize = func(core.Preferences) { panic("induced personalize fault") }
			defer func() { srv.hookPersonalize = nil }()
			_, err := srv.Infer(core.Uniform([]int{1, 3}), f.sample(t, 2))
			var se *Error
			if !errors.As(err, &se) || se.Code != cloud.CodeInternal {
				return fmt.Errorf("panicking fill returned %v, want a typed internal error", err)
			}
			return nil
		}})
	for _, st := range steps {
		if err := st.run(); err != nil {
			t.Errorf("%s: %v", st.name, err)
		}
		if !bytes.Equal(save(), want) {
			t.Errorf("%s wrote the network", st.name)
		}
	}
	close(stop)
	<-watched
}
