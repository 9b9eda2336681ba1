// Command pubsim runs one simulation and prints its statistics.
//
// Usage:
//
//	pubsim -workload chess -machine pubs -warmup 300000 -insts 1000000
//
// Machines: base, pubs, age, pubs+age, or base-<size>/pubs-<size> for the
// Fig. 16 scaled models (small/medium/large/huge).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	pubsim "repro"
)

func main() {
	var (
		wl        = flag.String("workload", "chess", "benchmark name (see -list)")
		machine   = flag.String("machine", "pubs", "base | pubs | age | pubs+age | {base,pubs}-{small,medium,large,huge}")
		warmup    = flag.Uint64("warmup", 300_000, "warm-up instructions (counters reset afterwards)")
		insts     = flag.Uint64("insts", 1_000_000, "measured instructions")
		priority  = flag.Int("priority", 6, "PUBS priority entries")
		bits      = flag.Int("bits", 6, "PUBS confidence counter bits")
		noStall   = flag.Bool("nostall", false, "use the non-stall dispatch policy")
		noSwitch  = flag.Bool("noswitch", false, "disable the MPKI mode switch")
		blind     = flag.Bool("blind", false, "estimate every branch unconfident (no conf_tab)")
		flexible  = flag.Bool("flexible", false, "idealized flexible-priority select (§III-C1) instead of priority entries")
		distrib   = flag.Bool("distributed", false, "distributed per-FU-pool issue queues (§III-C2)")
		wrongp    = flag.Bool("wrongpath", false, "model wrong-path pollution of the PUBS tables")
		profile   = flag.Bool("profile", false, "print IQ occupancy and the worst mispredicting branches")
		pipetrace = flag.Int64("pipetrace", 0, "print a stage-by-stage trace of the first N committed instructions")
		sampleWin = flag.Int("sample-windows", 0, "run sampled simulation with N measurement windows (0 = one contiguous window)")
		sampleFF  = flag.Uint64("sample-ff", 1_000_000, "functionally fast-forwarded instructions between sampled windows")
		parWin    = flag.Int("parallel-windows", 0, "sampled windows simulated concurrently (0/1 = serial, -1 = GOMAXPROCS); never changes results")
		skipStats = flag.Bool("skip-stats", false, "report idle-skip efficacy (spans and cycles skipped); with -json, adds a skip_telemetry sibling to the result")
		jsonOut   = flag.Bool("json", false, "emit the result as one JSON object (the pubsd job-result schema)")
		list      = flag.Bool("list", false, "list benchmarks and exit")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memprof   = flag.String("memprofile", "", "write a heap profile taken after the simulation to this file")
	)
	flag.Parse()

	if *list {
		for _, name := range pubsim.Workloads() {
			fmt.Println(name)
		}
		return
	}

	cfg, err := buildConfig(*machine)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.Profile = *profile
	cfg.DistributedIQ = *distrib
	cfg.WrongPathDecode = *wrongp
	if cfg.PUBS.Enable {
		cfg.PUBS.PriorityEntries = *priority
		cfg.PUBS.ConfCounterBits = *bits
		cfg.PUBS.StallDispatch = !*noStall
		cfg.PUBS.ModeSwitch = !*noSwitch
		cfg.PUBS.Blind = *blind
		cfg.PUBS.FlexibleSelect = *flexible
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	// Ctrl-C / SIGTERM cancel the simulation (observed within ~1K cycles)
	// instead of killing the process mid-run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var res pubsim.Result
	var sampled *pubsim.SampledResult
	switch {
	case *pipetrace > 0:
		res, err = pubsim.RunWithPipeTrace(cfg, *wl, *warmup, *insts, os.Stdout, *pipetrace)
	case *sampleWin > 0:
		plan := pubsim.SamplingPlan{
			Windows: *sampleWin, FastForward: *sampleFF,
			Warmup: *warmup, Measure: *insts, Parallel: *parWin,
		}
		var sres pubsim.SampledResult
		sres, err = pubsim.RunSampledContext(ctx, cfg, *wl, plan)
		if err == nil {
			sampled = &sres
			res = sres.Merged()
		}
	default:
		res, err = pubsim.RunContext(ctx, cfg, *wl, *warmup, *insts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runtime.GC() // flush garbage so the profile shows live hot-path state
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
	}

	if *jsonOut {
		// One CellResult object — the same schema pubsd serves from
		// GET /v1/results/{key}, same content key included, so CLI runs and
		// daemon results are directly comparable (and diffable with jq).
		cell := pubsim.Cell{Config: cfg, Workload: *wl}
		opts := pubsim.Options{Warmup: *warmup, Measure: *insts}
		if *sampleWin > 0 {
			opts.SampleWindows = *sampleWin
			opts.SampleFastForward = *sampleFF
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		out := any(pubsim.NewCellResult(cell, opts, res))
		if *skipStats {
			// Opt-in sibling field: the default -json object stays
			// byte-compatible with the daemon's result schema.
			out = struct {
				pubsim.CellResult
				SkipTelemetry pubsim.SkipTelemetry `json:"skip_telemetry"`
			}{pubsim.NewCellResult(cell, opts, res), pubsim.GlobalSkipTelemetry()}
		}
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("machine            %s\n", cfg.Name)
	fmt.Printf("workload           %s\n", *wl)
	if sampled != nil {
		fmt.Print(sampled.Table())
		return
	}
	fmt.Printf("instructions       %d (after %d warm-up)\n", res.Committed, *warmup)
	fmt.Printf("cycles             %d\n", res.Cycles)
	fmt.Printf("IPC                %.4f\n", res.IPC())
	fmt.Printf("branch MPKI        %.2f (mispredict rate %.2f%%)\n", res.BranchMPKI(), res.MispredictRate()*100)
	fmt.Printf("LLC MPKI           %.2f\n", res.LLCMPKI())
	fmt.Printf("L1D miss rate      %.2f%%\n", pct(res.L1D.Misses, res.L1D.Accesses))
	fmt.Printf("L2 prefetches      %d (hits %d, late %d)\n", res.L2.PrefetchReqs, res.L2.PrefetchHits, res.L2.PrefetchLate)
	fmt.Printf("misspec penalty    %d cycles (%.1f per mispredict)\n",
		res.MisspecPenaltyCycles, per(res.MisspecPenaltyCycles, res.Mispredicts))
	fmt.Printf("loads forwarded    %d\n", res.LoadsForwarded)
	if cfg.PUBS.Enable {
		fmt.Printf("unconfident        %.1f%% of branches, %d slice instructions\n",
			res.UnconfidentRate()*100, res.UnconfSliceInsts)
		fmt.Printf("dispatch stalls    priority=%d normal=%d rob=%d lsq=%d regs=%d\n",
			res.DispatchStallPriority, res.DispatchStallNormal,
			res.DispatchStallROB, res.DispatchStallLSQ, res.DispatchStallRegs)
		if res.ModeSwitchChecks > 0 {
			fmt.Printf("mode switch        enabled %d / %d windows\n", res.ModeEnabledWindows, res.ModeSwitchChecks)
		}
	}
	if *skipStats {
		t := pubsim.GlobalSkipTelemetry()
		fmt.Printf("idle-skip          %d spans, %d cycles skipped\n", t.SkipSpans, t.SkippedCycles)
	}
	if *profile && res.IQOccupancy != nil {
		fmt.Printf("IQ occupancy       mean %.1f, median %d, p90 %d (of %d entries)\n",
			res.IQOccupancy.Mean(), res.IQOccupancy.Quantile(0.5),
			res.IQOccupancy.Quantile(0.9), cfg.IQSize)
		fmt.Println("worst branches     PC        executed  mispredicts  rate")
		for _, bs := range res.TopBranches {
			fmt.Printf("                   %-8d  %-8d  %-11d  %5.1f%%\n",
				bs.PC/4, bs.Executed, bs.Mispredicts, bs.MispredictRate()*100)
		}
	}
}

// buildConfig delegates to the shared machine-name resolver so the CLI and
// the pubsd service accept exactly the same machine vocabulary.
func buildConfig(machine string) (pubsim.Config, error) {
	cfg, err := pubsim.MachineConfig(machine)
	if err != nil {
		return pubsim.Config{}, fmt.Errorf("pubsim: unknown machine %q (base, pubs, age, pubs+age, {base,pubs}-{small,medium,large,huge})", machine)
	}
	return cfg, nil
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b) * 100
}

func per(a int64, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
