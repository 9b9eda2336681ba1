// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -all                # every figure, full windows
//	experiments -fig 8,11 -quick    # selected figures, reduced windows
//	experiments -all -markdown      # EXPERIMENTS.md-style output
//
// Experiment ids: wchar (workload characterisation); the figures 8, 9, 10,
// 11, 12, 13, 15, 16 and t3 (Table III); the ablations aiq (IQ kinds),
// apred (predictors) and atab (table organisation); and the extensions
// xdist (distributed IQ), xflex (flexible select), xnrg (energy) and xwp
// (wrong-path pollution).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	pubsim "repro"
)

type experiment struct {
	id   string
	desc string
	run  func(*pubsim.Runner) (string, error)
}

var showCharts bool

type charter interface{ Chart() string }

func wrap[T interface{ Table() string }](f func(*pubsim.Runner) (T, error)) func(*pubsim.Runner) (string, error) {
	return func(r *pubsim.Runner) (string, error) {
		res, err := f(r)
		var ce *pubsim.CampaignError
		if err != nil && !errors.As(err, &ce) {
			return "", err
		}
		// A campaign error still carries a (possibly partial) figure —
		// render it and return the error alongside.
		out := res.Table()
		if showCharts {
			if c, ok := any(res).(charter); ok {
				if chart := c.Chart(); chart != "" {
					out += "\n" + chart
				}
			}
		}
		return out, err
	}
}

var all = []experiment{
	{"wchar", "Workload characterisation (base machine + slice profile)", wrap(pubsim.Characterize)},
	{"8", "Speedup of PUBS over the base (Fig. 8)", wrap(pubsim.Fig8)},
	{"9", "Speedup vs branch MPKI correlation (Fig. 9)", wrap(pubsim.Fig9)},
	{"10", "Priority-entry sensitivity (Fig. 10)", wrap(pubsim.Fig10)},
	{"11", "Confidence-counter-width sensitivity (Fig. 11)", wrap(pubsim.Fig11)},
	{"12", "Mode-switch effectiveness (Fig. 12)", wrap(pubsim.Fig12)},
	{"t3", "Hardware cost (Table III)", func(*pubsim.Runner) (string, error) { return pubsim.Table3().Table(), nil }},
	{"13", "Enlarged-predictor comparison (Fig. 13)", wrap(pubsim.Fig13)},
	{"15", "Age-matrix comparison (Fig. 15)", wrap(pubsim.Fig15)},
	{"16", "Processor-size scaling (Fig. 16)", wrap(pubsim.Fig16)},
	{"aiq", "Ablation: IQ organisations", wrap(pubsim.AblationIQKinds)},
	{"xdist", "Extension: distributed IQ (§III-C2)", wrap(pubsim.ExtDistributed)},
	{"xflex", "Extension: idealized flexible select (§III-C1)", wrap(pubsim.ExtFlexible)},
	{"xnrg", "Extension: energy per instruction (activity model)", wrap(pubsim.ExtEnergy)},
	{"xwp", "Extension: wrong-path pollution of the PUBS tables", wrap(pubsim.ExtWrongPath)},
	{"apred", "Ablation: alternative predictors", wrap(pubsim.AblationPredictors)},
	{"atab", "Ablation: PUBS table organisation", wrap(pubsim.AblationTables)},
}

func main() {
	var (
		figs     = flag.String("fig", "", "comma-separated experiment ids (default: none)")
		runAll   = flag.Bool("all", false, "run every experiment")
		quick    = flag.Bool("quick", false, "reduced simulation windows")
		warmup   = flag.Uint64("warmup", 0, "override warm-up instructions")
		measure  = flag.Uint64("insts", 0, "override measured instructions")
		par      = flag.Int("parallel", 0, "concurrent simulations (default GOMAXPROCS)")
		markdown = flag.Bool("markdown", false, "wrap output in Markdown sections/code fences")
		charts   = flag.Bool("charts", false, "append terminal charts to figures that have them")
		ckptDir  = flag.String("checkpoint", "", "directory for on-disk run checkpoints (resumable campaigns)")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget per simulation (0 = none)")
		retries  = flag.Int("retries", 0, "extra attempts for transient per-run failures")
		sampWin  = flag.Int("sample-windows", 0, "run experiments with sampled simulation: N measurement windows per run (0 = contiguous)")
		sampFF   = flag.Uint64("sample-ff", 1_000_000, "functionally fast-forwarded instructions between sampled windows")
		parWin   = flag.Int("parallel-windows", 0, "sampled windows simulated concurrently per run (0/1 = serial, -1 = GOMAXPROCS)")
		traceBud = flag.Int64("trace-budget", 0, "byte budget for resident window snapshots + predecoded traces, evicting whole plans LRU-first (0 = unbounded)")
	)
	flag.Parse()
	showCharts = *charts

	known := map[string]bool{}
	var ids []string
	for _, e := range all {
		known[e.id] = true
		ids = append(ids, e.id)
	}
	want := map[string]bool{}
	if !*runAll {
		for _, id := range strings.Split(*figs, ",") {
			if id = strings.TrimSpace(id); id == "" {
				continue
			} else if !known[id] {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment id %q (ids: %s)\n", id, strings.Join(ids, " "))
				os.Exit(2)
			} else {
				want[id] = true
			}
		}
		if len(want) == 0 {
			fmt.Fprintf(os.Stderr, "experiments: nothing to run; use -all or -fig (ids: %s)\n", strings.Join(ids, " "))
			os.Exit(2)
		}
	}

	opts := pubsim.DefaultOptions()
	if *quick {
		opts = pubsim.QuickOptions()
	}
	if *warmup > 0 {
		opts.Warmup = *warmup
	}
	if *measure > 0 {
		opts.Measure = *measure
	}
	opts.Parallelism = *par
	opts.Timeout = *timeout
	opts.Retries = *retries
	if *sampWin > 0 {
		opts.SampleWindows = *sampWin
		opts.SampleFastForward = *sampFF
		opts.ParallelWindows = *parWin
	}
	// SIGINT/SIGTERM cancel the campaign: binding the signal context to the
	// runner reaches every in-flight simulation (each stops within ~1K
	// cycles), and with -checkpoint the completed runs are already on disk,
	// so rerunning the same command resumes where the interrupt landed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runner := pubsim.NewRunner(opts).BindContext(ctx).WithStore(pubsim.NewSamplingStoreBudget(*traceBud))
	if *ckptDir != "" {
		var err error
		if runner, err = runner.WithCheckpoint(*ckptDir); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}

	if *markdown {
		fmt.Printf("Simulation windows: %d warm-up + %d measured instructions per run.\n\n",
			runner.Options().Warmup, runner.Options().Measure)
	}
	// A failed experiment no longer aborts the campaign: the error (and any
	// partial figure) is reported and the remaining experiments still run.
	var failed []string
	for _, e := range all {
		if !*runAll && !want[e.id] {
			continue
		}
		start := time.Now()
		table, err := e.run(runner)
		if err != nil {
			failed = append(failed, e.id)
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.id, err)
			if table == "" {
				continue
			}
		}
		if *markdown {
			fmt.Printf("## %s\n\n```\n%s```\n\n", e.desc, table)
		} else {
			fmt.Printf("=== %s (%.1fs) ===\n%s\n", e.desc, time.Since(start).Seconds(), table)
		}
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d experiments failed: %s\n", len(failed), strings.Join(failed, ", "))
		os.Exit(1)
	}
}
