// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -all                # every figure, full windows
//	experiments -fig 8,11 -quick    # selected figures, reduced windows
//	experiments -all -markdown      # EXPERIMENTS.md-style output
//
// The experiment ids are those of the pubsim.Experiments catalogue, run in
// its order; an unknown id makes the command list them.
package main

import (
	"cmp"
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

// render runs e and renders its report, with its chart when charts is set.
// A campaign error still carries a (possibly partial) figure: it is
// rendered and the error returned alongside.
func render(ctx context.Context, e pubsim.Experiment, r *pubsim.Runner, charts bool) (string, error) {
	rep, err := e.Run(ctx, r)
	var ce *pubsim.CampaignError
	if err != nil && !errors.As(err, &ce) {
		return "", err
	}
	out := rep.Table()
	if charts {
		if chart := rep.Chart(); chart != "" {
			out += "\n" + chart
		}
	}
	return out, err
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

	all := pubsim.Experiments()
	known := map[string]bool{}
	var ids []string
	for _, e := range all {
		known[e.ID] = true
		ids = append(ids, e.ID)
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
	// SIGINT/SIGTERM cancel the campaign: every experiment runs under the
	// signal context, so each in-flight simulation stops within ~1K cycles,
	// no further experiment starts, and with -checkpoint the completed runs
	// are already on disk, so rerunning the same command resumes where the
	// interrupt landed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runner := pubsim.NewRunner(opts).WithStore(pubsim.NewSamplingStoreBudget(*traceBud))
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
	// A failed experiment does not abort the campaign: the error (and any
	// partial figure) is reported and the remaining experiments still run.
	// An interrupt does, as the rest would only fail the same way.
	var failed []string
	for _, e := range all {
		if !*runAll && !want[e.ID] {
			continue
		}
		start := time.Now()
		table, err := render(ctx, e, runner, *charts)
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "experiments: campaign interrupted in experiment %s; re-running with -checkpoint %s resumes it\n",
				e.ID, cmp.Or(*ckptDir, "DIR"))
			os.Exit(1)
		}
		if err != nil {
			failed = append(failed, e.ID)
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.ID, err)
			if table == "" {
				continue
			}
		}
		if *markdown {
			fmt.Printf("## %s\n\n```\n%s```\n\n", e.Title, table)
		} else {
			fmt.Printf("=== %s (%.1fs) ===\n%s\n", e.Title, time.Since(start).Seconds(), table)
		}
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d experiments failed: %s\n", len(failed), strings.Join(failed, ", "))
		os.Exit(1)
	}
}
