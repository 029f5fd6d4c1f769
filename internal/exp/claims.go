package exp

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"capnn/internal/core"
	"capnn/internal/energy"
	"capnn/internal/hw"
)

// Claim is one of the paper's qualitative results turned into an
// executable check.
type Claim struct {
	ID      int
	Text    string
	Pass    bool
	Detail  string
	skipped bool
}

// CheckClaims runs the paper's headline claims against the fixtures.
// main20 drives claims 1–6 and 8; cifar10 (may be nil to skip) drives
// claim 7. The returned slice is ordered by claim ID.
func CheckClaims(main20, cifar10 *Fixture, scale Scale, log io.Writer) ([]Claim, error) {
	logf := func(format string, args ...any) {
		if log != nil {
			fmt.Fprintf(log, "exp: claims: "+format+"\n", args...)
		}
	}
	var claims []Claim
	rng := rand.New(rand.NewSource(scale.Seed * 611953))

	// A shared mini-sweep: K=2 strongly skewed and K=5 uniform.
	type sweepPoint struct {
		prefs core.Preferences
		resB  core.Result
		resW  core.Result
		resM  core.Result
	}
	var points []sweepPoint
	if _, err := main20.EnsureB(log); err != nil {
		return nil, err
	}
	for _, k := range []int{2, 5} {
		for combo := 0; combo < scale.Combos; combo++ {
			classes := sampleClasses(rng, main20.Config.Synth.Classes, k)
			var prefs core.Preferences
			if k == 2 {
				var err error
				prefs, err = core.Weighted(classes, []float64{0.9, 0.1})
				if err != nil {
					return nil, err
				}
			} else {
				prefs = core.Uniform(classes)
			}
			var pt sweepPoint
			pt.prefs = prefs
			var err error
			if pt.resB, err = main20.Sys.Personalize(core.VariantB, prefs, main20.Sets.Test); err != nil {
				return nil, err
			}
			if pt.resW, err = main20.Sys.Personalize(core.VariantW, prefs, main20.Sets.Test); err != nil {
				return nil, err
			}
			if pt.resM, err = main20.Sys.Personalize(core.VariantM, prefs, main20.Sets.Test); err != nil {
				return nil, err
			}
			points = append(points, pt)
		}
		logf("sweep K=%d done", k)
	}

	// Claim 1: ε guarantee on the validation split for every variant.
	{
		base := main20.Sys.Eval.PerClassAccuracy(nil)
		eps := main20.Sys.Params.Epsilon
		worst := 0.0
		pass := true
		for _, pt := range points {
			for _, res := range []core.Result{pt.resB, pt.resW, pt.resM} {
				acc := main20.Sys.Eval.PerClassAccuracy(res.Masks)
				for _, c := range pt.prefs.Classes {
					d := base[c] - acc[c]
					if d > worst {
						worst = d
					}
					if d > eps+1e-9 {
						pass = false
					}
				}
			}
		}
		claims = append(claims, Claim{ID: 1,
			Text:   "per-class degradation ≤ ε on the split the algorithms check",
			Pass:   pass,
			Detail: fmt.Sprintf("worst observed degradation %.3f vs ε %.3f", worst, eps)})
	}

	// Claim 2: W and M prune much more than B.
	{
		var sB, sW, sM float64
		for _, pt := range points {
			sB += pt.resB.RelativeSize
			sW += pt.resW.RelativeSize
			sM += pt.resM.RelativeSize
		}
		n := float64(len(points))
		sB, sW, sM = sB/n, sW/n, sM/n
		claims = append(claims, Claim{ID: 2,
			Text:   "usage-aware W/M prune substantially more than B",
			Pass:   sW < sB-0.05 && sM < sB-0.05,
			Detail: fmt.Sprintf("mean rel. size B %.2f, W %.2f, M %.2f", sB, sW, sM)})
	}

	// Claim 3: M improves accuracy over the unpruned model at small K.
	{
		var dTop1, dTop5 float64
		n := 0
		for _, pt := range points {
			if pt.prefs.K() == 2 {
				dTop1 += pt.resM.Top1 - pt.resM.BaseTop1
				dTop5 += pt.resM.Top5 - pt.resM.BaseTop5
				n++
			}
		}
		dTop1 /= float64(n)
		dTop5 /= float64(n)
		claims = append(claims, Claim{ID: 3,
			Text:   "CAP'NN-M lifts accuracy above the unpruned model at small K",
			Pass:   dTop1 >= 0,
			Detail: fmt.Sprintf("mean Δtop-1 %+.3f, Δtop-5 %+.3f at K=2", dTop1, dTop5)})
	}

	// Claim 4: model size approaches 1.0 as K covers all classes.
	{
		ks := []int{2, main20.Config.Synth.Classes}
		rows, err := RunTradeoff(main20, Scale{Combos: scale.Combos, Seed: scale.Seed}, ks, nil)
		if err != nil {
			return nil, err
		}
		claims = append(claims, Claim{ID: 4,
			Text:   "relative size grows substantially as K → C (Fig. 6 shape)",
			Pass:   rows[1].RelSize > rows[0].RelSize+0.1,
			Detail: fmt.Sprintf("rel. size %.2f at K=2 vs %.2f at K=%d", rows[0].RelSize, rows[1].RelSize, ks[1])})
		logf("fig6 endpoints done")
	}

	// Claim 5: energy savings at small K, shrinking as K grows.
	{
		dev, comp := hw.DefaultConfig(), energy.PaperTable1()
		relSmall, err := energy.RelativeOfMasks(main20.Net, points[0].resM.Masks, dev, comp)
		if err != nil {
			return nil, err
		}
		last := points[len(points)-1]
		relLarge, err := energy.RelativeOfMasks(main20.Net, last.resM.Masks, dev, comp)
		if err != nil {
			return nil, err
		}
		claims = append(claims, Claim{ID: 5,
			Text:   "meaningful energy savings at small K; less at larger K",
			Pass:   relSmall < 0.9 && relSmall <= relLarge+0.05,
			Detail: fmt.Sprintf("rel. energy %.2f at K=2 vs %.2f at K=5", relSmall, relLarge)})
	}

	// Claim 6: stacking on a class-unaware pruned model multiplies the
	// size reduction.
	{
		rows, err := RunStacked(main20, Scale{Combos: 1, Seed: scale.Seed}, nil)
		if err != nil {
			return nil, err
		}
		pass := true
		worst := 0.0
		for _, r := range rows {
			if r.SizeWith >= r.SizeWithout {
				pass = false
			}
			if r.SizeWith/r.SizeWithout > worst {
				worst = r.SizeWith / r.SizeWithout
			}
		}
		claims = append(claims, Claim{ID: 6,
			Text:   "CAP'NN-M further shrinks class-unaware pruned models (Table II)",
			Pass:   pass,
			Detail: fmt.Sprintf("worst with/without ratio %.2f over %d cells", worst, len(rows))})
		logf("table2 done")
	}

	// Claim 7: beats the CAPTOR-style rule at small class fractions.
	if cifar10 == nil {
		claims = append(claims, Claim{ID: 7, Text: "CAP'NN vs CAPTOR (Table III)", skipped: true, Detail: "cifar10 fixture not loaded"})
	} else {
		rows, err := RunCaptor(cifar10, Scale{Combos: scale.Combos, Seed: scale.Seed}, nil)
		if err != nil {
			return nil, err
		}
		first, last := rows[0], rows[len(rows)-1]
		claims = append(claims, Claim{ID: 7,
			Text:   "CAP'NN ≤ CAPTOR energy at small fractions, converging at 100%",
			Pass:   first.CapnnRel <= first.CaptorRel+0.05 && last.CapnnRel > first.CapnnRel,
			Detail: fmt.Sprintf("10%%: capnn %.2f vs captor %.2f; 100%%: capnn %.2f vs captor %.2f", first.CapnnRel, first.CaptorRel, last.CapnnRel, last.CaptorRel)})
		logf("table3 done")
	}

	// Claim 8: 3-bit rate storage is a small fraction of the model.
	{
		rep, err := RunMemory(main20)
		if err != nil {
			return nil, err
		}
		claims = append(claims, Claim{ID: 8,
			Text:   "3-bit firing-rate storage is a small overhead (§V-C)",
			Pass:   rep.Overhead.Ratio < 0.15,
			Detail: fmt.Sprintf("overhead %.2f%% of the 16-bit model", 100*rep.Overhead.Ratio)})
	}
	return claims, nil
}

// PrintClaims renders the claim checklist.
func PrintClaims(w io.Writer, claims []Claim) {
	fmt.Fprintln(w, "Paper-claim verification")
	fmt.Fprintln(w, strings.Repeat("-", 72))
	for _, c := range claims {
		status := "PASS"
		if c.skipped {
			status = "SKIP"
		} else if !c.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(w, "[%s] claim %d: %s\n       %s\n", status, c.ID, c.Text, c.Detail)
	}
}
