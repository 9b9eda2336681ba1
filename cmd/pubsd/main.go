// Command pubsd is the campaign service daemon: simulation-as-a-service
// over an HTTP JSON API, backed by a bounded job queue, a worker pool
// that shards (machine × workload) grids, and a content-addressed result
// cache with singleflight dedup so identical submissions execute once.
//
// Usage:
//
//	pubsd serve    -addr :8080 [-workers N] [-checkpoint DIR] [-journal DIR]
//	pubsd serve    -addr :8080 -coordinator [-peers node=URL,...]
//	pubsd serve    -addr :8081 -join http://coordinator:8080 [-node-id ID] [-advertise URL]
//	pubsd loadtest -addr http://host:8080 [-jobs N] [-out BENCH_3.json]
//	pubsd loadtest -self [-jobs N] [-out BENCH_3.json]
//	pubsd clusterbench [-jobs N] [-concurrency N] [-out BENCH_7.json] [-baseline BENCH_7.json]
//
// serve runs until SIGINT/SIGTERM, then drains: submissions are refused
// (503) while accepted jobs run to completion, bounded by -drain-timeout.
// With -journal, accepted jobs are write-ahead logged and a crashed
// daemon re-enqueues the incomplete ones at the next boot; pair it with
// -checkpoint so their finished cells replay from disk.
//
// With -coordinator, serve fronts a worker fleet instead of simulating
// locally: campaign cells are sharded across the ring by content address,
// stolen onto idle nodes when their owner is saturated, and re-sharded
// when a node dies. With -join (mutually exclusive), serve runs as a
// worker shard: it announces itself to the coordinator and serves the
// cluster wire protocol — including the peer tier of the two-tier result
// cache — in front of its normal API.
//
// loadtest generates duplicate-heavy traffic against a running daemon
// (or, with -self, against one it boots in-process) and writes a
// pubsd-load/2 report with exact latency quantiles, the daemon's dedup
// counters, and admission refusals (429/503) counted separately from
// failures.
//
// clusterbench boots in-process 1-worker and 3-worker clusters on
// loopback ports, drives each with >= 64 concurrent clients, and writes
// the BENCH_7 pubsd-cluster/1 report (jobs/sec, p99, cluster-wide
// cache-hit ratio, speedups). It exits nonzero when the 3-worker geomean
// speedup drops below -min-speedup or regresses >20% from -baseline.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/service"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = serve(os.Args[2:])
	case "loadtest":
		err = loadtest(os.Args[2:])
	case "clusterbench":
		err = clusterbench(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "pubsd: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pubsd:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  pubsd serve    -addr :8080 [-workers N] [-queue N] [-high-water N]
                 [-max-active N] [-warmup N] [-insts N] [-checkpoint DIR]
                 [-journal DIR] [-drain-timeout D] [-trace-budget BYTES]
                 [-tenant-rate R] [-tenant-burst N]
                 [-breaker-threshold N] [-breaker-cooldown D]
                 [-coordinator [-peers node=URL,...]]
                 [-join URL [-node-id ID] [-advertise URL]]
  pubsd loadtest (-addr URL | -self) [-jobs N] [-concurrency N] [-burst N]
                 [-warmup N] [-insts N] [-out FILE]
  pubsd clusterbench [-jobs N] [-concurrency N] [-worker-queue N]
                 [-worker-active N] [-warmup N] [-insts N] [-out FILE]
                 [-min-speedup X] [-baseline FILE] [-sampling]`)
}

// serviceFlags registers the flags shared by both subcommands that size
// the daemon and its default simulation windows.
func serviceFlags(fs *flag.FlagSet) *service.Config {
	cfg := &service.Config{}
	fs.IntVar(&cfg.Workers, "workers", 0, "cell worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.QueueDepth, "queue", 64, "bounded job queue depth")
	fs.IntVar(&cfg.MaxActiveJobs, "max-active", 4, "campaigns executing concurrently")
	fs.IntVar(&cfg.MaxCellsPerJob, "max-cells", 4096, "largest grid accepted per job")
	fs.Uint64Var(&cfg.DefaultOptions.Warmup, "warmup", 300_000, "default warm-up instructions")
	fs.Uint64Var(&cfg.DefaultOptions.Measure, "insts", 1_000_000, "default measured instructions")
	fs.StringVar(&cfg.CheckpointDir, "checkpoint", "", "persist results here; a restarted daemon answers from disk")
	fs.StringVar(&cfg.JournalDir, "journal", "", "write-ahead job journal; a crashed daemon re-enqueues incomplete jobs at boot")
	fs.IntVar(&cfg.HighWater, "high-water", 0, "queue depth above which best-effort (priority < 0) submissions are shed (0 = 3/4 of -queue)")
	fs.Float64Var(&cfg.TenantRate, "tenant-rate", 0, "per-tenant submissions/sec budget (0 = unlimited)")
	fs.IntVar(&cfg.TenantBurst, "tenant-burst", 0, "per-tenant token-bucket burst (0 = 4)")
	fs.IntVar(&cfg.BreakerThreshold, "breaker-threshold", 0, "consecutive simulator panics that trip the circuit breaker into cached-only mode (0 = 5, negative = disabled)")
	fs.DurationVar(&cfg.BreakerCooldown, "breaker-cooldown", 0, "how long the tripped breaker stays open before a half-open probe (0 = 30s)")
	fs.Int64Var(&cfg.TraceBudgetBytes, "trace-budget", 0, "byte budget for the daemon's one plan store: window snapshots, predecoded traces and wire forms across every window geometry and peer-pushed plan, evicting whole plans LRU-first (0 = unbounded; exported as pubsd_trace_budget_bytes)")
	return cfg
}

func serve(args []string) error {
	fs := flag.NewFlagSet("pubsd serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	drain := fs.Duration("drain-timeout", 5*time.Minute, "max time to finish accepted jobs at shutdown")
	timeout := fs.Duration("cell-timeout", 0, "per-simulation timeout (0 = none)")
	coordinator := fs.Bool("coordinator", false, "run as cluster coordinator: shard cells across joined workers instead of simulating locally")
	peersFlag := fs.String("peers", "", "coordinator only: static worker list, node=URL[,node=URL...]")
	join := fs.String("join", "", "run as cluster worker: announce to this coordinator URL at boot")
	noShare := fs.Bool("no-share", false, "worker only: disable sampling-plan sharing and proactive replication (serving endpoints stay up; A/B and diagnostics)")
	nodeID := fs.String("node-id", "", "stable cluster node identity (default: the bound listen address)")
	advertise := fs.String("advertise", "", "base URL peers reach this node at (default: http://<bound address>; set it when binding a wildcard address)")
	cfg := serviceFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg.DefaultOptions.Timeout = *timeout
	if *coordinator && *join != "" {
		return errors.New("serve: -coordinator and -join are mutually exclusive")
	}

	// Listen before building the daemon: the default node identity and
	// advertise URL derive from the bound (possibly kernel-chosen) address.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *nodeID == "" {
		*nodeID = ln.Addr().String()
	}
	if *advertise == "" {
		*advertise = "http://" + ln.Addr().String()
	}
	cfg.NodeID = *nodeID

	var coord *cluster.Coordinator
	if *coordinator {
		coord = cluster.NewCoordinator()
		cfg.Remote = coord.Remote
		// Window-major sampled sweeps go out as one batch per owning node,
		// with a designated planner so the fleet pays one functional pass
		// per workload window set.
		cfg.RemoteSweep = coord.RemoteSweep
	}
	s, err := service.New(*cfg)
	if err != nil {
		ln.Close()
		return err
	}
	handler := s.Handler()
	role := "single-node"
	switch {
	case coord != nil:
		coord.BindCounters(s.ClusterCounters())
		handler = coord.Handler(handler)
		role = "coordinator"
		if *peersFlag != "" {
			for _, kv := range strings.Split(*peersFlag, ",") {
				node, url, ok := strings.Cut(strings.TrimSpace(kv), "=")
				if !ok || node == "" || url == "" {
					return fmt.Errorf("serve: -peers entry %q is not node=URL", kv)
				}
				coord.AddNode(node, url)
			}
		}
	case *join != "":
		wk := cluster.NewWorker(s)
		if *noShare {
			wk.DisableReplication()
		}
		handler = wk.Handler(handler)
		role = "worker"
		// Join after the listener is serving, retrying briefly so worker
		// and coordinator boot order doesn't matter in scripts.
		go func() {
			hc := cluster.SharedClient()
			for attempt := 0; ; attempt++ {
				peers, epoch, err := cluster.Join(context.Background(), hc, *join, *nodeID, *advertise)
				if err == nil {
					wk.ApplyPeers(peers, epoch)
					fmt.Fprintf(os.Stderr, "pubsd: joined %s as %q (%d peers)\n", *join, *nodeID, len(peers))
					return
				}
				if attempt >= 20 {
					fmt.Fprintf(os.Stderr, "pubsd: join %s failed: %v (serving unjoined)\n", *join, err)
					return
				}
				time.Sleep(500 * time.Millisecond)
			}
		}()
	}
	srv := &http.Server{Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "pubsd: serving on %s (%s, %d workers, queue %d)\n",
		ln.Addr(), role, s.Workers(), cfg.QueueDepth)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // second signal kills immediately via default handler
	fmt.Fprintln(os.Stderr, "pubsd: draining (new submissions refused)...")

	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := s.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "pubsd: drain incomplete: %v\n", err)
	} else {
		fmt.Fprintln(os.Stderr, "pubsd: drained")
	}
	httpCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	return srv.Shutdown(httpCtx)
}

func loadtest(args []string) error {
	fs := flag.NewFlagSet("pubsd loadtest", flag.ExitOnError)
	addr := fs.String("addr", "", "base URL of a running daemon (e.g. http://127.0.0.1:8080)")
	self := fs.Bool("self", false, "boot an in-process daemon on a loopback port and load-test it")
	jobs := fs.Int("jobs", 16, "total jobs to submit")
	conc := fs.Int("concurrency", 4, "in-flight submissions")
	burst := fs.Int("burst", 2, "consecutive submissions of the same spec (overlapping duplicates exercise singleflight)")
	out := fs.String("out", "", "write the pubsd-load/2 JSON report here (default stdout)")
	warmup := fs.Uint64("warmup", 20_000, "per-job warm-up instructions")
	insts := fs.Uint64("insts", 80_000, "per-job measured instructions")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*addr == "") == !*self {
		return errors.New("loadtest: need exactly one of -addr or -self")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	baseURL := *addr
	if *self {
		s, err := service.New(service.Config{
			DefaultOptions: experiments.Options{Warmup: *warmup, Measure: *insts},
		})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: s.Handler()}
		go func() { _ = srv.Serve(ln) }()
		baseURL = "http://" + ln.Addr().String()
		fmt.Fprintf(os.Stderr, "pubsd: self-test daemon on %s\n", baseURL)
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			_ = s.Shutdown(sctx)
			_ = srv.Shutdown(sctx)
		}()
	}

	// A short ring of small campaigns; jobs cycle through it, so beyond
	// the first lap every submission is a duplicate the daemon should
	// answer from cache or merge onto in-flight work.
	cfg := service.LoadtestConfig{
		BaseURL: baseURL, Jobs: *jobs, Concurrency: *conc, DuplicateBurst: *burst,
		Specs: []service.CampaignSpec{
			{Machines: []service.MachineSpec{{Machine: "base"}, {Machine: "pubs"}},
				Workloads: []string{"matmul", "chess"}, Warmup: *warmup, Measure: *insts},
			{Machines: []service.MachineSpec{{Machine: "pubs"}},
				Workloads: []string{"goplay", "pathfind"}, Warmup: *warmup, Measure: *insts},
			{Machines: []service.MachineSpec{{Machine: "pubs"}, {Machine: "pubs+age"}},
				Workloads: []string{"chess"}, Warmup: *warmup, Measure: *insts},
			// A sampled window-major sweep: three machines replaying one
			// workload's predecoded windows, exercising the trace cache and
			// sweep scheduler under loadtest traffic.
			{Machines: []service.MachineSpec{{Machine: "base"}, {Machine: "pubs"}, {Machine: "age"}},
				Workloads: []string{"parser"}, Warmup: *warmup / 2, Measure: *insts / 2,
				Windows: 2, FastForward: 50_000, WindowMajor: true},
		},
	}
	rep, err := service.Loadtest(ctx, cfg)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pubsd: loadtest done: %d jobs, p50 %.0fms p99 %.0fms, %d sims (%d merged, %d cached) → %s\n",
		rep.Jobs, rep.LatencyP50MS, rep.LatencyP99MS, rep.SimsExecuted, rep.Merged, rep.CacheHits, *out)
	return nil
}

// clusterbenchTolerance matches the other bench gates: a fresh run may sit
// up to 20% below the committed baseline's geomean before the gate trips.
const clusterbenchTolerance = 0.20

func clusterbench(args []string) error {
	fs := flag.NewFlagSet("pubsd clusterbench", flag.ExitOnError)
	jobs := fs.Int("jobs", 96, "jobs per scenario")
	conc := fs.Int("concurrency", 64, "concurrent clients (the BENCH_7 contract wants >= 64)")
	wq := fs.Int("worker-queue", 4, "per-worker job queue depth")
	wa := fs.Int("worker-active", 2, "per-worker concurrently active jobs")
	wr := fs.Float64("worker-rate", 12, "per-worker admission budget, jobs/sec (the deterministic capacity the scaling measurement rests on)")
	wb := fs.Int("worker-burst", 4, "per-worker admission token-bucket burst")
	warmup := fs.Uint64("warmup", 2_000, "per-cell warm-up instructions")
	insts := fs.Uint64("insts", 8_000, "per-cell measured instructions")
	out := fs.String("out", "", "write the JSON report here (default stdout)")
	sampling := fs.Bool("sampling", false, "run the BENCH_9 sampled-sweep benchmark (plan sharing + batched dispatch vs off) instead of BENCH_7")
	minSpeedup := fs.Float64("min-speedup", 0, "fail when the geomean speedup is below this floor (0 = the mode's default: 1.8 for BENCH_7, 1.5 for -sampling)")
	baseline := fs.String("baseline", "", "compare against this committed report; fail on a >20% geomean regression")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *sampling {
		if *minSpeedup == 0 {
			*minSpeedup = 1.5
		}
		return samplingBench(ctx, *out, *minSpeedup, *baseline)
	}
	if *minSpeedup == 0 {
		*minSpeedup = 1.8
	}
	rep, err := cluster.RunBench(ctx, cluster.BenchConfig{
		Jobs: *jobs, Concurrency: *conc,
		Warmup: *warmup, Measure: *insts,
		WorkerQueue: *wq, WorkerActive: *wa,
		WorkerRate: *wr, WorkerBurst: *wb,
		Log: os.Stderr,
	})
	if err != nil {
		return err
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(data); err != nil {
			return err
		}
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "pubsd: clusterbench report written to %s (geomean speedup %.2fx)\n",
			*out, rep.GeomeanSpeedup)
	}

	if rep.GeomeanSpeedup < *minSpeedup {
		return fmt.Errorf("clusterbench: geomean speedup %.2fx is below the %.2fx floor — the fleet no longer outruns one node",
			rep.GeomeanSpeedup, *minSpeedup)
	}
	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			return fmt.Errorf("clusterbench baseline: %w", err)
		}
		var base cluster.BenchReport
		if err := json.Unmarshal(raw, &base); err != nil {
			return fmt.Errorf("clusterbench baseline %s: %w", *baseline, err)
		}
		if base.GeomeanSpeedup > 0 && rep.GeomeanSpeedup < base.GeomeanSpeedup*(1-clusterbenchTolerance) {
			return fmt.Errorf("clusterbench: geomean speedup %.2fx is a %.0f%% regression from baseline %.2fx",
				rep.GeomeanSpeedup, (1-rep.GeomeanSpeedup/base.GeomeanSpeedup)*100, base.GeomeanSpeedup)
		}
		fmt.Fprintf(os.Stderr, "pubsd: clusterbench within %.0f%% of baseline %s (geomean %.2fx vs %.2fx)\n",
			clusterbenchTolerance*100, *baseline, rep.GeomeanSpeedup, base.GeomeanSpeedup)
	}
	return nil
}

// samplingBench runs BENCH_9 — the cluster-shared sampling-plan benchmark —
// and applies its gates: bit-identical results across modes, fleet-wide
// functional passes == workloads with sharing on, the speedup floor, and
// the baseline regression check.
func samplingBench(ctx context.Context, out string, minSpeedup float64, baseline string) error {
	rep, err := cluster.RunSamplingBench(ctx, cluster.SamplingBenchConfig{Log: os.Stderr})
	if err != nil {
		return err
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		if _, err := os.Stdout.Write(data); err != nil {
			return err
		}
	} else {
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "pubsd: sampling bench report written to %s (geomean speedup %.2fx)\n",
			out, rep.GeomeanSpeedup)
	}

	if !rep.BitIdentical {
		return errors.New("sampling bench: plan sharing changed results — the modes are no longer bit-identical")
	}
	for _, sc := range rep.Scenarios {
		if want := uint64(sc.Workloads); sc.On.Plans != want {
			return fmt.Errorf("sampling bench %s: fleet paid %d functional passes with sharing on, want exactly %d (one per workload)",
				sc.Name, sc.On.Plans, want)
		}
	}
	if rep.GeomeanSpeedup < minSpeedup {
		return fmt.Errorf("sampling bench: geomean speedup %.2fx is below the %.2fx floor — plan sharing no longer pays",
			rep.GeomeanSpeedup, minSpeedup)
	}
	if baseline != "" {
		raw, err := os.ReadFile(baseline)
		if err != nil {
			return fmt.Errorf("sampling bench baseline: %w", err)
		}
		var base cluster.SamplingBenchReport
		if err := json.Unmarshal(raw, &base); err != nil {
			return fmt.Errorf("sampling bench baseline %s: %w", baseline, err)
		}
		if base.GeomeanSpeedup > 0 && rep.GeomeanSpeedup < base.GeomeanSpeedup*(1-clusterbenchTolerance) {
			return fmt.Errorf("sampling bench: geomean speedup %.2fx is a %.0f%% regression from baseline %.2fx",
				rep.GeomeanSpeedup, (1-rep.GeomeanSpeedup/base.GeomeanSpeedup)*100, base.GeomeanSpeedup)
		}
		fmt.Fprintf(os.Stderr, "pubsd: sampling bench within %.0f%% of baseline %s (geomean %.2fx vs %.2fx)\n",
			clusterbenchTolerance*100, baseline, rep.GeomeanSpeedup, base.GeomeanSpeedup)
	}
	return nil
}
