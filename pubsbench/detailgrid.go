package main

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/service"
	"repro/internal/workload"
)

// detail-grid: one campaign through Runner.RunCell on nproc slots. The grid
// crosses the base machine, PUBS and PUBS with the age-matrix select with
// D-BP and E-BP programs, compute-bound and memory-bound, so the detailed
// core does almost all the work.
var (
	gridMachines  = []string{"base", "pubs", "pubs+age"}
	gridWorkloads = []string{"chess", "goplay", "parser", "regex", "sparse", "bfs", "matmul", "crypto", "quantsim"}
)

const (
	gridWarmup  = 20_000
	gridMeasure = 80_000
	// gridOffsets bounds the seeded per-cell warm-up offset.
	gridOffsets = 1024
)

// gridCell is one cell of the campaign with its seeded warm-up.
type gridCell struct {
	cell   experiments.Cell
	warmup uint64
}

// gridInputs returns the campaign's cells in grid order (machines outer,
// workloads inner) and the seeded source of each pass's issue order.
func gridInputs(seed uint64) ([]gridCell, *rand.Rand, error) {
	rng := rand.New(rand.NewPCG(seed, 0x67726964))
	cfgs := make([]pipeline.Config, len(gridMachines))
	for i, m := range gridMachines {
		var err error
		if cfgs[i], err = service.MachineConfig(m); err != nil {
			return nil, nil, err
		}
	}
	grid := experiments.Grid(cfgs, gridWorkloads)
	cells := make([]gridCell, len(grid))
	for i, c := range grid {
		cells[i] = gridCell{cell: c, warmup: gridWarmup + uint64(rng.IntN(gridOffsets))}
	}
	return cells, rng, nil
}

// gridPass is one run of the whole campaign on fresh runners, so nothing
// is answered from an earlier pass's memo.
type gridPass struct {
	order   []int                          // issue order
	runners map[uint64]*experiments.Runner // by warm-up: a runner owns one window
	results []pipeline.Result
	errs    []error
}

func newGridPass(cells []gridCell, order []int, nproc int) *gridPass {
	p := &gridPass{
		order:   order,
		runners: make(map[uint64]*experiments.Runner),
		results: make([]pipeline.Result, len(cells)),
		errs:    make([]error, len(cells)),
	}
	for _, c := range cells {
		if p.runners[c.warmup] == nil {
			p.runners[c.warmup] = experiments.NewRunner(experiments.Options{
				Warmup: c.warmup, Measure: gridMeasure, Parallelism: nproc,
			})
		}
	}
	return p
}

// gridRun is what the timed region did.
type gridRun struct {
	passes []*gridPass
	lat    []float64 // RunCell milliseconds
	insts  uint64
	busy   time.Duration
	wall   time.Duration
}

// runGrid issues whole passes of the campaign to nproc slots until the
// timed region has run for seconds; the pass in flight then completes, so
// every pass is whole. Passes follow each other without a barrier, so
// slots idle only at the very end. Each pass takes a fresh seeded order,
// so which cells share the host's two cores averages out within a run
// instead of differing between seeds.
func runGrid(ctx context.Context, cells []gridCell, rng *rand.Rand, nproc int, seconds float64) gridRun {
	type item struct {
		pass *gridPass
		i    int
	}
	items := make(chan item)
	var run gridRun
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < nproc; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range items {
				c := cells[it.i]
				t0 := time.Now()
				r, err := it.pass.runners[c.warmup].RunCell(ctx, c.cell)
				d := time.Since(t0)
				it.pass.results[it.i], it.pass.errs[it.i] = r, err
				mu.Lock()
				run.lat = append(run.lat, ms(d))
				run.busy += d
				if err == nil {
					run.insts += c.warmup + r.Measured
				}
				mu.Unlock()
			}
		}()
	}
	for {
		p := newGridPass(cells, rng.Perm(len(cells)), nproc)
		run.passes = append(run.passes, p)
		for _, i := range p.order {
			items <- item{p, i}
		}
		if time.Since(start).Seconds() >= seconds {
			break
		}
	}
	close(items)
	wg.Wait()
	run.wall = time.Since(start)
	return run
}

func runDetailGrid(ctx context.Context, e env) (*result, error) {
	res := newResult()
	cells, rng, err := gridInputs(e.seed)
	if err != nil {
		return nil, err
	}
	setup, err := medianSetup(func(i int) error { return buildPrograms(gridWorkloads, i == 0) }, nil)
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = metric{setup, "s"}

	mark := markProcess()
	run := runGrid(ctx, cells, rng, e.nproc, e.seconds)
	res.e2e["retained_heap_mb"] = metric{retainedHeapMB(), "MB"}
	mark.processMetrics(res)

	// Every pass must reproduce the first bit for bit.
	first := make([]string, len(cells))
	for p, pass := range run.passes {
		for i, r := range pass.results {
			res.attempted++
			if pass.errs[i] != nil {
				res.fail("pass %d %s/%s: %v", p, cells[i].cell.Config.Name, cells[i].cell.Workload, pass.errs[i])
				continue
			}
			b, err := json.Marshal(r)
			if err != nil {
				return nil, err
			}
			if p == 0 {
				first[i] = string(b)
			} else if string(b) != first[i] {
				res.fail("pass %d %s/%s differs from pass 0", p, cells[i].cell.Config.Name, cells[i].cell.Workload)
			}
		}
	}
	if res.digest, err = digest(run.passes[0].results); err != nil {
		return nil, err
	}
	res.e2e["sim_minst_per_s"] = metric{float64(run.insts) / run.wall.Seconds() / 1e6, "Minst/s"}
	latencyMetrics(res, run.lat)
	res.diag["passes"] = len(run.passes)
	idle := 1 - run.busy.Seconds()/(float64(e.nproc)*run.wall.Seconds())
	res.diag["idle_slot_ratio"] = idle

	if !e.trace {
		return res, nil
	}
	outs := make([]cellOut, len(cells))
	for i, c := range cells {
		outs[i] = cellOut{c.cell.Workload, run.passes[0].results[i]}
	}
	// The walk takes the first compute-bound and the first memory-bound
	// workload in the first pass's order, each as one campaign over the
	// grid's machines.
	var ops []walkOp
	seen := map[bool]bool{}
	for _, i := range run.passes[0].order {
		c := cells[i]
		info, err := workload.ByName(c.cell.Workload)
		if err != nil {
			return nil, err
		}
		if seen[info.MemIntensive] {
			continue
		}
		seen[info.MemIntensive] = true
		spec := service.CampaignSpec{Workloads: []string{c.cell.Workload}, Warmup: c.warmup, Measure: gridMeasure}
		for _, m := range gridMachines {
			spec.Machines = append(spec.Machines, service.MachineSpec{Machine: m})
		}
		ops = append(ops, walkOp{id: "grid-" + c.cell.Workload, spec: spec})
	}
	if err := traceLayers(ctx, e, "detail-grid", ops, res); err != nil {
		return nil, err
	}
	modelMetrics(res, outs)
	var hits, sims uint64
	for _, p := range run.passes {
		for _, r := range p.runners {
			st := r.Stats()
			hits, sims = hits+st.MemoHits, sims+st.Simulated
		}
	}
	res.layer["experiments.memo_hit_ratio"] = metric{float64(hits) / float64(hits+sims), "ratio"}
	res.layer["experiments.cell_ms_p50"] = metric{percentile(run.lat, 50), "ms"}
	res.layer["experiments.idle_slot_ratio"] = metric{idle, "ratio"}
	return res, nil
}

// cellOut is one finished cell for the model metrics.
type cellOut struct {
	workload string
	res      pipeline.Result
}

// modelMetrics adds the simulated (exact) model numbers: geomean IPC of the
// base and PUBS machines, PUBS's geomean speedup on D-BP programs, branch
// MPKI and cycles lost per misprediction. They change only when the model
// does.
func modelMetrics(res *result, cells []cellOut) {
	var base, pubs, dbpBase, dbpPubs []float64
	var mispredicts, committed uint64
	var penalty int64
	for _, c := range cells {
		mispredicts += c.res.Mispredicts
		committed += c.res.Committed
		penalty += c.res.MisspecPenaltyCycles
		ipc := c.res.IPC()
		if ipc <= 0 {
			continue
		}
		info, err := workload.ByName(c.workload)
		hard := err == nil && info.HardBranches
		switch c.res.Name {
		case "base":
			base = append(base, ipc)
			if hard {
				dbpBase = append(dbpBase, ipc)
			}
		case "pubs":
			pubs = append(pubs, ipc)
			if hard {
				dbpPubs = append(dbpPubs, ipc)
			}
		}
	}
	res.layer["model.ipc.base"] = metric{geomean(base), "inst/cycle"}
	res.layer["model.ipc.pubs"] = metric{geomean(pubs), "inst/cycle"}
	speedup := 0.0
	if g := geomean(dbpBase); g > 0 && len(dbpPubs) > 0 {
		speedup = (geomean(dbpPubs)/g - 1) * 100
	}
	res.layer["model.dbp_speedup_pct"] = metric{speedup, "%"}
	mpki, perMiss := 0.0, 0.0
	if committed > 0 {
		mpki = float64(mispredicts) / float64(committed) * 1000
	}
	if mispredicts > 0 {
		perMiss = float64(penalty) / float64(mispredicts)
	}
	res.layer["model.branch_mpki"] = metric{mpki, "1/kinst"}
	res.layer["model.misspec_cycles_per_mispredict"] = metric{perMiss, "cycles"}
}
