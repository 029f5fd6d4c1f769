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
//	capnn-experiments -artifact all       # fig4 through memory, then the paper-claim checklist
//
// The checklist judges the paper's claims on the rows the tables above
// it print, so only all prints it. -combos n sets the random class
// combinations averaged per configuration (default 6; the paper uses
// 200). Combinations are drawn from a fixed seed, so a run is
// reproducible.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"capnn/internal/exp"
	"capnn/internal/profiling"
)

// inAll are the artifacts all prints, in order, before the checklist.
var inAll = []string{"fig4", "fig5", "fig6", "table1", "table2", "table3", "memory"}

func main() {
	artifact := flag.String("artifact", "all", "fig4|fig5|fig6|table1|table2|table3|memory|ablation|all")
	combos := flag.Int("combos", 0, "random class combinations per configuration (0 = default)")
	quiet := flag.Bool("quiet", false, "suppress progress logging")
	perf := profiling.AddFlags()
	flag.Parse()

	if *combos < 0 {
		fmt.Fprintf(os.Stderr, "capnn-experiments: -combos %d: want 0 (the default) or more\n", *combos)
		os.Exit(2)
	}
	if *artifact != "all" && *artifact != "ablation" && !slices.Contains(inAll, *artifact) {
		fmt.Fprintf(os.Stderr, "capnn-experiments: unknown -artifact %q\n", *artifact)
		os.Exit(2)
	}
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
	var main20, cifar10 *exp.Fixture
	var err error
	if artifact != "table3" {
		if main20, err = exp.Load(exp.ImageNet20Config(), log); err != nil {
			return err
		}
	}
	if artifact == "table3" || artifact == "all" {
		if cifar10, err = exp.Load(exp.CIFAR10Config(), log); err != nil {
			return err
		}
	}

	out := os.Stdout
	var res exp.Results // the rows all hands to the checklist
	emit := func(artifact string) error {
		switch artifact {
		case "fig4", "fig5":
			if res.Fig4 == nil { // fig4 and fig5 are two views of one sweep
				if res.Fig4, err = exp.RunComparison(main20, scale, log); err != nil {
					return err
				}
			}
			if artifact == "fig4" {
				exp.PrintFig4(out, res.Fig4, scale)
			} else {
				exp.PrintFig5(out, res.Fig4, scale)
			}
		case "fig6":
			if res.Fig6, err = exp.RunTradeoff(main20, scale, exp.DefaultTradeoffKs(main20.Config.Synth.Classes), log); err != nil {
				return err
			}
			exp.PrintFig6(out, res.Fig6, main20.Config.Synth.Classes, scale)
		case "table1":
			if res.Table1, err = exp.RunEnergy(main20, scale, exp.Table1Ks, log); err != nil {
				return err
			}
			exp.PrintTable1(out, res.Table1, scale)
		case "table2":
			if res.Table2, err = exp.RunStacked(main20, scale, log); err != nil {
				return err
			}
			exp.PrintTable2(out, res.Table2, scale)
		case "table3":
			if res.Table3, err = exp.RunCaptor(cifar10, scale, log); err != nil {
				return err
			}
			exp.PrintTable3(out, res.Table3, scale)
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
		case "memory":
			if res.Memory, err = exp.RunMemory(main20); err != nil {
				return err
			}
			exp.PrintMemory(out, res.Memory)
		}
		return nil
	}
	if artifact != "all" {
		return emit(artifact)
	}
	for _, a := range inAll {
		if err := emit(a); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	res.Epsilon = main20.Sys.Params.Epsilon
	exp.PrintClaims(out, exp.CheckClaims(res))
	return nil
}
