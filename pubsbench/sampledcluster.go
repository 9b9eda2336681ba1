package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"repro/internal/pipeline"
	"repro/internal/service"
	"repro/internal/workload"
)

// sampled-cluster: an in-process coordinator and two workers with one
// simulation slot each, over loopback HTTP, driven by two closed-loop
// clients (at most nproc) that submit window-major sampled sweeps. Long
// fast-forward gaps and short windows make functional fast-forward, the
// plan wire codec with peer adoption, and trace replay most of the work.
var clusterWorkloads = []string{"chess", "parser", "regex", "crypto", "matmul", "hashmix", "encode", "treewalk"}

const (
	// clusterClients is how many closed-loop clients send campaigns (at
	// most nproc of them run).
	clusterClients  = 2
	clusterWorkers  = 2
	clusterMachines = 6
	clusterWindows  = 4
	clusterFF       = 1_500_000
	clusterWarmup   = 1_000
	clusterMeasure  = 3_000
	// clusterRate fixes the campaign count at round(seconds × clusterRate),
	// about --seconds of work on the seed commit (2 CPUs). A fixed count
	// gives every run the same plans, so its retained heap repeats.
	clusterRate = 10.0
	// clusterDigestCampaigns is the prefix the results digest covers.
	clusterDigestCampaigns = 4
)

// clusterCampaign is one seeded campaign.
type clusterCampaign struct {
	spec  service.CampaignSpec
	fresh bool // introduces a plan geometry no earlier campaign used
}

// machineVariant is the v-th machine of a geometry's sequence: the four
// named machines, then PUBS with distinct priority-entry and counter
// settings, so every campaign over a geometry brings cells no earlier one
// had.
func machineVariant(v int) service.MachineSpec {
	if v < 4 {
		return service.MachineSpec{Machine: []string{"base", "pubs", "age", "pubs+age"}[v]}
	}
	k := v - 4
	return service.MachineSpec{Machine: "pubs", PriorityEntries: 2 + k%60, ConfCounterBits: 1 + (k/60)%8}
}

// clusterInputs builds n seeded campaigns for clusterClients closed-loop
// clients, client c sending campaigns c, c+clusterClients, and so on. In
// every block of five of a client's campaigns, exactly two, at seeded
// positions, introduce a new plan geometry (a workload with its own
// fast-forward length) and the rest reuse one the same client introduced.
// A fixed new share keeps the latency median inside the reuse mode rather
// than on the boundary between the two modes. A client reuses only its own
// geometries, so a reuse never races the campaign that introduced it: the
// benchmark measures plan sharing, not a plan requested while its first
// pass is still running.
func clusterInputs(seed uint64, n int) []clusterCampaign {
	rng := rand.New(rand.NewPCG(seed, 0x636c7573))
	wls := &deck{rng: rng, n: len(clusterWorkloads)}
	type geom struct {
		wl   string
		ff   uint64
		used int
	}
	var geoms []geom
	owned := make([][]int, clusterClients)        // each client's geometries
	fresh := make([]map[int]bool, clusterClients) // each client's current block
	out := make([]clusterCampaign, n)
	for i := range out {
		c, k := i%clusterClients, i/clusterClients
		if k%5 == 0 {
			p := rng.Perm(5)
			fresh[c] = map[int]bool{p[0]: true, p[1]: true}
			if k == 0 && !fresh[c][0] {
				fresh[c] = map[int]bool{0: true, p[0]: true}
			}
		}
		g := len(geoms)
		if fresh[c][k%5] {
			geoms = append(geoms, geom{wl: clusterWorkloads[wls.next()], ff: clusterFF + 64*uint64(g)})
			owned[c] = append(owned[c], g)
		} else {
			// The client's least reused geometry, seeded among ties: every
			// geometry, and so every workload, is reused about equally on
			// any seed.
			var least []int
			for _, j := range owned[c] {
				switch {
				case len(least) == 0 || geoms[j].used < geoms[least[0]].used:
					least = []int{j}
				case geoms[j].used == geoms[least[0]].used:
					least = append(least, j)
				}
			}
			g = least[rng.IntN(len(least))]
		}
		spec := service.CampaignSpec{
			Workloads: []string{geoms[g].wl}, Warmup: clusterWarmup, Measure: clusterMeasure,
			Windows: clusterWindows, FastForward: geoms[g].ff, WindowMajor: true,
		}
		for v := geoms[g].used; v < geoms[g].used+clusterMachines; v++ {
			spec.Machines = append(spec.Machines, machineVariant(v))
		}
		geoms[g].used += clusterMachines
		out[i] = clusterCampaign{spec: spec, fresh: fresh[c][k%5]}
	}
	return out
}

func runSampledCluster(ctx context.Context, e env) (*result, error) {
	res := newResult()
	n := int(math.Round(e.seconds * clusterRate))
	if n < clusterDigestCampaigns {
		n = clusterDigestCampaigns
	}
	camps := clusterInputs(e.seed, n)
	var fl *fleet
	setup, err := medianSetup(func(i int) error {
		if err := buildPrograms(clusterWorkloads, i == 0); err != nil {
			return err
		}
		var err error
		fl, err = startFleet(clusterWorkers, e.nproc)
		return err
	}, func() { fl.stop() })
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = metric{setup, "s"}

	// Closed-loop clients: each sends its next campaign when the previous
	// one's result document has arrived.
	clients := min(clusterClients, e.nproc)
	hc := newClient(e.nproc)
	outs := make([]jobOutcome, n)
	mark := markProcess()
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += clients {
				outs[i] = submitAndWait(ctx, hc, fl.coord, camps[i].spec, time.Now())
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	res.e2e["retained_heap_mb"] = metric{retainedHeapMB(), "MB"}
	mark.processMetrics(res)
	wm := fl.workerMetrics()
	cm := parseMetrics(fl.coord.svc.MetricsText())
	fl.stop()

	ref, err := singleNodeReference(e, camps)
	if err != nil {
		return nil, err
	}
	var digestCells []pipeline.Result
	var cells []cellOut
	var insts float64
	lat := make([]float64, n)
	keys := 0
	for i, o := range outs {
		res.attempted++
		lat[i] = o.lat
		if camps[i].fresh {
			keys++
		}
		if o.code != 0 || o.err != nil || o.status.State != service.JobDone || len(o.status.Results) != o.status.TotalCells {
			res.fail("campaign %d: HTTP %d, %s %v %v", i, o.code, o.status.State, o.err, o.status.Errors)
			continue
		}
		got, err := resultsJSON(o.status)
		if err != nil {
			return nil, err
		}
		if !slices.Equal(got, ref[i]) {
			res.fail("campaign %d differs from the single-node run", i)
		}
		for _, r := range o.status.Results {
			insts += float64(r.Result.Measured + clusterWindows*clusterWarmup)
			cells = append(cells, cellOut{r.Workload, r.Result})
			if i < clusterDigestCampaigns {
				digestCells = append(digestCells, r.Result)
			}
		}
	}
	if res.digest, err = digest(digestCells); err != nil {
		return nil, err
	}
	res.e2e["sim_minst_per_s"] = metric{insts / wall.Seconds() / 1e6, "Minst/s"}
	latencyMetrics(res, lat)
	// The fleet must pay exactly one functional pass per plan geometry.
	if plans := wm["pubsd_snapshot_plans_total"]; plans != float64(keys) {
		res.fail("the fleet planned %d times for %d plan geometries", int(plans), keys)
	}
	passes := wm["pubsd_snapshot_plans_total"] / float64(keys)
	res.diag["campaigns"] = n
	res.diag["plan_keys"] = keys
	res.diag["passes_per_plan_key"] = passes

	if !e.trace {
		return res, nil
	}
	var ops []walkOp
	seen := map[bool]bool{}
	for i, c := range camps {
		info, err := workload.ByName(c.spec.Workloads[0])
		if err != nil {
			return nil, err
		}
		if !seen[info.MemIntensive] {
			seen[info.MemIntensive] = true
			ops = append(ops, walkOp{id: fmt.Sprintf("campaign%d", i), spec: c.spec})
		}
	}
	if err := traceLayers(ctx, e, "sampled-cluster", ops, res); err != nil {
		return nil, err
	}
	modelMetrics(res, cells)
	serviceMetrics(res, outs, cm)
	L := res.layer
	L["cluster.passes_per_plan_key"] = metric{passes, "ratio"}
	L["cluster.peer_plans_adopted"] = metric{wm["pubsd_snapshot_peer_plans_total"], "count"}
	L["cluster.remote_cells"] = metric{cm["pubsd_cluster_remote_cells_total"], "count"}
	L["cluster.steals"] = metric{cm["pubsd_cluster_steals_total"], "count"}
	if d := wm["pubsd_snapshot_hits_total"] + wm["pubsd_snapshot_plans_total"] + wm["pubsd_snapshot_peer_plans_total"]; d > 0 {
		L["sampling.plan_reuse_ratio"] = metric{wm["pubsd_snapshot_hits_total"] / d, "ratio"}
	}
	if d := wm["pubsd_runner_memo_hits_total"] + wm["pubsd_sims_executed_total"]; d > 0 {
		L["experiments.memo_hit_ratio"] = metric{wm["pubsd_runner_memo_hits_total"] / d, "ratio"}
	}
	return res, nil
}

// singleNodeReference runs every campaign on one daemon with no cluster
// and returns each campaign's results in grid order: the oracle the
// cluster's answers must equal.
func singleNodeReference(e env, camps []clusterCampaign) ([][]string, error) {
	n, err := startNode(service.Config{NodeID: "single", Workers: e.nproc, QueueDepth: 4096}, nil)
	if err != nil {
		return nil, err
	}
	defer n.stop()
	jobs := make([]*service.Job, len(camps))
	for i, c := range camps {
		if jobs[i], err = n.svc.Submit(c.spec); err != nil {
			return nil, fmt.Errorf("single-node reference: %w", err)
		}
	}
	out := make([][]string, len(camps))
	for i, j := range jobs {
		<-j.Done()
		st := j.Status()
		if st.State != service.JobDone {
			return nil, fmt.Errorf("single-node reference campaign %d: %s %v", i, st.State, st.Errors)
		}
		if out[i], err = resultsJSON(st); err != nil {
			return nil, err
		}
	}
	return out, nil
}
