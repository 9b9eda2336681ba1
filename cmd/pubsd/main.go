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
package main

import (
	"context"
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
                 [-join URL [-node-id ID] [-advertise URL]]`)
}

// serviceFlags registers the flags that size the daemon and its default
// simulation windows.
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
