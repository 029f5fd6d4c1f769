// Command capnn-experiments regenerates the paper's figures and tables
// (see DESIGN.md §4 for the experiment index); it is their only
// reproducer. First runs train and cache the reference models under
// testdata/fixtures.
//
// Usage:
//
//	capnn-experiments -artifact fig4      # Fig. 4 model-size comparison
//	capnn-experiments -artifact fig5      # Fig. 5 accuracy comparison
//	capnn-experiments -artifact fig6      # Fig. 6 size/accuracy vs K
//	capnn-experiments -artifact table1    # Table I energy
//	capnn-experiments -artifact table2    # Table II stacking on baselines
//	capnn-experiments -artifact table3    # Table III vs CAPTOR
//	capnn-experiments -artifact memory    # §V-C memory overhead
//	capnn-experiments -artifact ablation  # ε, rate-quantization and l_start ablations
//	capnn-experiments -artifact claims    # the paper-claim checklist
//	capnn-experiments -artifact all       # fig4 through memory, in that order
//
// -combos n sets the random class combinations averaged per
// configuration (default 6; the paper uses 200). Combinations are drawn
// from a fixed seed, so a run is reproducible.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"capnn/internal/exp"
	"capnn/internal/profiling"
)

func main() {
	artifact := flag.String("artifact", "all", "fig4|fig5|fig6|table1|table2|table3|memory|ablation|claims|all")
	combos := flag.Int("combos", 0, "random class combinations per configuration (0 = default)")
	quiet := flag.Bool("quiet", false, "suppress progress logging")
	perf := profiling.AddFlags()
	flag.Parse()

	scale := exp.DefaultScale()
	if *combos > 0 {
		scale.Combos = *combos
	}
	var log io.Writer = os.Stderr
	if *quiet {
		log = nil
	}

	if err := perf.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "capnn-experiments:", err)
		os.Exit(1)
	}
	err := run(*artifact, scale, log)
	if perr := perf.Stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "capnn-experiments:", err)
		os.Exit(1)
	}
}

func run(artifact string, scale exp.Scale, log io.Writer) error {
	needMain := artifact != "table3"
	needC10 := artifact == "table3" || artifact == "all" || artifact == "claims"

	var main20, cifar10 *exp.Fixture
	var err error
	if needMain {
		main20, err = exp.Load(exp.ImageNet20Config(), log)
		if err != nil {
			return err
		}
	}
	if needC10 {
		cifar10, err = exp.Load(exp.CIFAR10Config(), log)
		if err != nil {
			return err
		}
	}

	out := os.Stdout
	var cmp []exp.ComparisonRow // fig4 and fig5 are two views of one sweep
	emit := func(artifact string) error {
		switch artifact {
		case "fig4", "fig5":
			if cmp == nil {
				if cmp, err = exp.RunComparison(main20, scale, log); err != nil {
					return err
				}
			}
			if artifact == "fig4" {
				exp.PrintFig4(out, cmp, scale)
			} else {
				exp.PrintFig5(out, cmp, scale)
			}
		case "fig6":
			rows, err := exp.RunTradeoff(main20, scale, exp.DefaultTradeoffKs(main20.Config.Synth.Classes), log)
			if err != nil {
				return err
			}
			exp.PrintFig6(out, rows, main20.Config.Synth.Classes, scale)
		case "table1":
			rows, err := exp.RunEnergy(main20, scale, exp.Table1Ks, log)
			if err != nil {
				return err
			}
			exp.PrintTable1(out, rows, scale)
		case "table2":
			rows, err := exp.RunStacked(main20, scale, log)
			if err != nil {
				return err
			}
			exp.PrintTable2(out, rows, scale)
		case "table3":
			rows, err := exp.RunCaptor(cifar10, scale, log)
			if err != nil {
				return err
			}
			exp.PrintTable3(out, rows, scale)
		case "ablation":
			rows, err := exp.RunEpsilonAblation(main20, scale, []float64{0.02, 0.05, 0.08, 0.12, 0.2}, 3, log)
			if err != nil {
				return err
			}
			exp.PrintEpsilonAblation(out, rows, 3, scale)
			fmt.Fprintln(out)
			q, err := exp.RunQuantAblation(main20, scale, []int{1, 2, 3, 4, 8}, 3, log)
			if err != nil {
				return err
			}
			exp.PrintQuantAblation(out, q, 3)
			fmt.Fprintln(out)
			l, err := exp.RunLstartAblation(main20, scale, []int{2, 3, 5, 8, 12}, 3, log)
			if err != nil {
				return err
			}
			exp.PrintLstartAblation(out, l, 3, scale)
		case "claims":
			claims, err := exp.CheckClaims(main20, cifar10, scale, log)
			if err != nil {
				return err
			}
			exp.PrintClaims(out, claims)
		case "memory":
			rep, err := exp.RunMemory(main20)
			if err != nil {
				return err
			}
			exp.PrintMemory(out, rep)
		default:
			return fmt.Errorf("unknown artifact %q", artifact)
		}
		return nil
	}
	if artifact != "all" {
		return emit(artifact)
	}
	for i, a := range []string{"fig4", "fig5", "fig6", "table1", "table2", "table3", "memory"} {
		if i > 0 {
			fmt.Fprintln(out)
		}
		if err := emit(a); err != nil {
			return err
		}
	}
	return nil
}
