package workload

import (
	"fmt"
	"strconv"
	"strings"
)

// DriftConfig describes the preference drift processes in units of
// virtual time (trace event indices). The zero value is stationary.
type DriftConfig struct {
	// DiurnalPeriod, if >0, sinusoidally modulates each user's in-set
	// class weights with this period, phase-offset per user and per
	// class — the "time of day" effect.
	DiurnalPeriod uint64
	// DiurnalAmp is the modulation depth ∈ [0,1). Defaults to 0.5 when
	// DiurnalPeriod is set.
	DiurnalAmp float64
	// FlipEvery, if >0, redraws each user's whole preference set every
	// FlipEvery events (staggered per user) — the sudden skew flip.
	FlipEvery uint64
	// Lag is how many events a user's *claimed* (wire) preferences trail
	// a behavior flip. During the lag the server sees traffic drawn from
	// the new mix under the old preference key. Defaults to FlipEvery/4.
	Lag uint64
	// BurstLen, if >0, divides time into intervals of this length; each
	// (user, interval) independently enters a bursty episode with
	// probability BurstProb, during which BurstWeight of the user's mass
	// concentrates on one in-set class.
	BurstLen uint64
	// BurstProb is the per-interval episode probability. Defaults to
	// 0.15 when BurstLen is set.
	BurstProb float64
	// BurstWeight is the mass the episode's hot class receives.
	// Defaults to 0.85.
	BurstWeight float64
}

func (d *DriftConfig) withDefaults() {
	if d.DiurnalPeriod > 0 && d.DiurnalAmp == 0 {
		d.DiurnalAmp = 0.5
	}
	if d.FlipEvery > 0 && d.Lag == 0 {
		d.Lag = d.FlipEvery / 4
	}
	if d.FlipEvery > 0 && d.Lag >= d.FlipEvery {
		d.Lag = d.FlipEvery - 1
	}
	if d.BurstLen > 0 {
		if d.BurstProb == 0 {
			d.BurstProb = 0.15
		}
		if d.BurstWeight == 0 {
			d.BurstWeight = 0.85
		}
	}
}

// validate writes each bound as a negated in-range test, so NaN fails it.
func (d DriftConfig) validate() error {
	if !(d.DiurnalAmp >= 0 && d.DiurnalAmp < 1) {
		return fmt.Errorf("workload: diurnal amp %v outside [0,1)", d.DiurnalAmp)
	}
	if !(d.BurstProb >= 0 && d.BurstProb <= 1) {
		return fmt.Errorf("workload: burst prob %v outside [0,1]", d.BurstProb)
	}
	if !(d.BurstWeight >= 0 && d.BurstWeight < 1) {
		return fmt.Errorf("workload: burst weight %v outside [0,1)", d.BurstWeight)
	}
	return nil
}

// ParseDrift parses a compact drift spec of comma-separated key=value
// terms:
//
//	flip=N          redraw preferences every N events
//	lag=N           claimed preferences trail flips by N events
//	diurnal=N       diurnal modulation with period N
//	amp=F           diurnal modulation depth
//	burst-len=N     bursty-episode interval length
//	burst-prob=F    per-interval episode probability
//	burst-weight=F  hot-class mass during an episode
//
// "" and "off" parse to the stationary zero value.
func ParseDrift(spec string) (DriftConfig, error) {
	var d DriftConfig
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return d, nil
	}
	for _, term := range strings.Split(spec, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		key, val, ok := strings.Cut(term, "=")
		if !ok {
			return d, fmt.Errorf("workload: drift term %q is not key=value", term)
		}
		switch key {
		case "flip", "lag", "diurnal", "burst-len":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return d, fmt.Errorf("workload: drift %s=%q: %v", key, val, err)
			}
			switch key {
			case "flip":
				d.FlipEvery = n
			case "lag":
				d.Lag = n
			case "diurnal":
				d.DiurnalPeriod = n
			case "burst-len":
				d.BurstLen = n
			}
		case "amp", "burst-prob", "burst-weight":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return d, fmt.Errorf("workload: drift %s=%q: %v", key, val, err)
			}
			switch key {
			case "amp":
				d.DiurnalAmp = f
			case "burst-prob":
				d.BurstProb = f
			case "burst-weight":
				d.BurstWeight = f
			}
		default:
			return d, fmt.Errorf("workload: unknown drift key %q", key)
		}
	}
	return d, d.validate()
}
