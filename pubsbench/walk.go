package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/sampling"
	"repro/internal/service"
	"repro/internal/workload"
)

// walkOp is one campaign of a workload's seeded inputs, fed to every
// layer's entry point in turn by the traced walk. Its spec names one
// workload; Windows == 0 means one contiguous window, which the sampling
// level treats as a one-window plan with no fast-forward.
type walkOp struct {
	id   string
	spec service.CampaignSpec
}

// walkStats is what one walk measured at each level.
type walkStats struct {
	ops, builds   int
	buildTime     time.Duration
	emuInsts      uint64
	emuTime       time.Duration
	plans, reused int
	planTime      time.Duration
	encTime       time.Duration
	decTime       time.Duration
	wireBytes     int64
	snapBytes     int64
	snapWindows   int
	replayTime    time.Duration
	replayWindows int

	runs            int
	newTime         time.Duration
	allocs          uint64
	cycles          int64
	skippedCycles   uint64
	runTime         time.Duration
	insts, runTimes [2]float64 // [branchy, membound]: instructions, seconds

	cellMS, submitMS, queueMS, execMS, fetchMS, planFetchMS []float64
	cells, cachedOrMerged                                   int
	journalRecords                                          float64
	clusterPlans, clusterPeerPlans, remoteCells, steals     float64
	sampledKeys                                             int
	mismatches                                              int
}

// walker carries one walk's daemons and running totals.
type walker struct {
	e     env
	t     *tracer
	root  int
	node  *node
	fleet *fleet
	st    walkStats
	seen  map[string]bool
	// sampledKeys are the plan keys of the sampled campaigns sent to the
	// fleet.
	sampledKeys map[string]bool
}

// layerWalk feeds ops to each layer's public entry points one level at a
// time, one call in flight: workload.Build, emu.Run, sampling's
// PlanWindows/EncodePlan/DecodePlan/RunSweep, pipeline.New + RunContext,
// Runner.RunCell, Service.Submit with the job's own timestamps, and the
// cluster's campaign, plan and result endpoints. With a tracer every call
// gets a span. It returns the walk's wall time, daemons' start excluded.
func layerWalk(ctx context.Context, e env, ops []walkOp, t *tracer, tag string) (walkStats, time.Duration, error) {
	dir := filepath.Join(e.dir, tag)
	n, err := startNode(service.Config{
		NodeID: "walk", Workers: 1,
		JournalDir: filepath.Join(dir, "journal"), CheckpointDir: filepath.Join(dir, "ckpt"),
	}, nil)
	if err != nil {
		return walkStats{}, 0, err
	}
	defer n.stop()
	fl, err := startFleet(2, e.nproc)
	if err != nil {
		return walkStats{}, 0, err
	}
	defer fl.stop()
	w := &walker{e: e, t: t, node: n, fleet: fl, seen: map[string]bool{}, sampledKeys: map[string]bool{}}

	start := time.Now()
	w.root = t.begin(0, "bench.walk", tag)
	for _, op := range ops {
		if err := w.op(ctx, op); err != nil {
			return w.st, 0, fmt.Errorf("walk %s: %w", op.id, err)
		}
	}
	t.end(w.root)
	wall := time.Since(start)

	w.st.journalRecords = parseMetrics(n.svc.MetricsText())["pubsd_journal_records_total"]
	wm := fl.workerMetrics()
	cm := parseMetrics(fl.coord.svc.MetricsText())
	w.st.clusterPlans = wm["pubsd_snapshot_plans_total"]
	w.st.sampledKeys = len(w.sampledKeys)
	w.st.clusterPeerPlans = wm["pubsd_snapshot_peer_plans_total"]
	w.st.remoteCells = cm["pubsd_cluster_remote_cells_total"]
	w.st.steals = cm["pubsd_cluster_steals_total"]
	os.RemoveAll(dir)
	return w.st, wall, nil
}

// timed runs f inside a span and returns its duration.
func (w *walker) timed(parent int, name, op string, f func() error) (time.Duration, error) {
	s := w.t.begin(parent, name, op)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	w.t.end(s)
	return d, err
}

func (w *walker) op(ctx context.Context, op walkOp) error {
	spec := op.spec
	wl := spec.Workloads[0]
	info, err := workload.ByName(wl)
	if err != nil {
		return err
	}
	prog, err := workload.Program(wl)
	if err != nil {
		return err
	}
	cfgs := make([]pipeline.Config, len(spec.Machines))
	for i, m := range spec.Machines {
		if cfgs[i], err = m.Config(); err != nil {
			return err
		}
	}
	plan := sampling.Config{Windows: spec.Windows, FastForward: spec.FastForward, Warmup: spec.Warmup, Measure: spec.Measure}
	if plan.Windows == 0 {
		plan.Windows = 1
	}
	st := &w.st
	st.ops++
	opSpan := w.t.begin(w.root, "bench.op", op.id)
	defer w.t.end(opSpan)

	// workload: a fresh build of the program (workload.Program caches).
	d, _ := w.timed(opSpan, "workload.Build", op.id, func() error { info.Build(); return nil })
	st.builds++
	st.buildTime += d

	// emu: the functional instructions the plan stands for.
	var m *emu.Machine
	if _, err := w.timed(opSpan, "emu.New", op.id, func() (err error) {
		m, err = emu.New(prog)
		return err
	}); err != nil {
		return err
	}
	var ran uint64
	d, _ = w.timed(opSpan, "emu.Run", op.id, func() error {
		ran = m.Run(uint64(plan.Windows) * (plan.FastForward + plan.Warmup + plan.Measure))
		return nil
	})
	st.emuInsts += ran
	st.emuTime += d

	// sampling: place, serialize, verify and replay the plan.
	var ws []sampling.Window
	d, err = w.timed(opSpan, "sampling.PlanWindows", op.id, func() (err error) {
		ws, err = sampling.PlanWindows(ctx, prog, plan)
		return err
	})
	if err != nil {
		return err
	}
	key := sampling.PlanKey(prog, plan)
	if w.seen[key] {
		st.reused++
	}
	w.seen[key] = true
	st.plans++
	st.planTime += d
	for _, win := range ws {
		st.snapBytes += int64(win.Snap.MemBytes())
		st.snapWindows++
	}
	var wire []byte
	d, err = w.timed(opSpan, "sampling.EncodePlan", op.id, func() (err error) {
		wire, err = sampling.EncodePlan(ws)
		return err
	})
	if err != nil {
		return err
	}
	st.encTime += d
	st.wireBytes += int64(len(wire))
	var decoded []sampling.Window
	d, err = w.timed(opSpan, "sampling.DecodePlan", op.id, func() (err error) {
		decoded, err = sampling.DecodePlan(wire)
		return err
	})
	if err != nil {
		return err
	}
	st.decTime += d
	d, err = w.timed(opSpan, "sampling.RunSweep", op.id, func() error {
		_, errs := sampling.RunSweep(ctx, cfgs, prog, plan, decoded)
		return errors.Join(errs...)
	})
	if err != nil {
		return err
	}
	st.replayTime += d
	st.replayWindows += len(decoded) * len(cfgs)

	// pipeline: a fresh timing model per machine and window, counting from
	// the window's first instruction so Cycles covers the whole run.
	class := 0
	if info.MemIntensive {
		class = 1
	}
	for _, cfg := range cfgs {
		for _, win := range ws {
			var m *emu.Machine
			if _, err := w.timed(opSpan, "emu.NewFromSnapshot", op.id, func() (err error) {
				m, err = emu.NewFromSnapshot(prog, win.Snap)
				return err
			}); err != nil {
				return err
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var sim *pipeline.Sim
			dNew, err := w.timed(opSpan, "pipeline.New", op.id, func() (err error) {
				sim, err = pipeline.New(cfg)
				if err == nil {
					sim.SetStaticCode(prog.Code)
				}
				return err
			})
			if err != nil {
				return err
			}
			var r pipeline.Result
			dRun, err := w.timed(opSpan, "pipeline.RunContext", op.id, func() (err error) {
				r, err = sim.RunContext(ctx, pipeline.Stream{M: m}, 0, plan.Warmup+plan.Measure)
				return err
			})
			if err != nil {
				return err
			}
			runtime.ReadMemStats(&after)
			tel := sim.SkipTelemetry()
			st.runs++
			st.newTime += dNew
			st.runTime += dRun
			st.allocs += after.Mallocs - before.Mallocs
			st.cycles += r.Cycles
			st.skippedCycles += tel.SkippedCycles + tel.FetchBurstCycles + tel.CommitBurstCycles
			st.insts[class] += float64(r.Measured)
			st.runTimes[class] += dRun.Seconds()
		}
	}

	// experiments: the campaign runner, one cell at a time.
	runner := experiments.NewRunner(experiments.Options{
		Warmup: spec.Warmup, Measure: spec.Measure, Parallelism: 1,
		SampleWindows: spec.Windows, SampleFastForward: spec.FastForward,
	})
	for _, cfg := range cfgs {
		d, err := w.timed(opSpan, "experiments.RunCell", op.id, func() error {
			_, err := runner.RunCell(ctx, experiments.Cell{Config: cfg, Workload: wl})
			return err
		})
		if err != nil {
			return err
		}
		st.cellMS = append(st.cellMS, ms(d))
	}

	// service: one daemon, Submit in process, the result document over
	// HTTP, and the job's queue and run phases from its own timestamps.
	hc := newClient(w.e.nproc)
	svcSpan := w.t.begin(opSpan, "service.campaign", op.id)
	var job *service.Job
	d, err = w.timed(svcSpan, "service.Submit", op.id, func() (err error) {
		job, err = w.node.svc.Submit(spec)
		return err
	})
	if err != nil {
		return err
	}
	st.submitMS = append(st.submitMS, ms(d))
	<-job.Done()
	var sst service.JobStatus
	d, err = w.timed(svcSpan, "service.fetch", op.id, func() (err error) {
		sst, err = fetchStatus(ctx, hc, w.node.url, job.ID())
		return err
	})
	if err != nil {
		return err
	}
	st.fetchMS = append(st.fetchMS, ms(d))
	w.phaseSpans(svcSpan, "service", op.id, sst)
	w.t.end(svcSpan)
	if sst.State != service.JobDone {
		return fmt.Errorf("service job %s: %s %v", sst.ID, sst.State, sst.Errors)
	}
	q, x := statusPhases(sst)
	st.queueMS = append(st.queueMS, ms(q))
	st.execMS = append(st.execMS, ms(x))
	events, _ := job.EventsSince(0)
	for _, ev := range events {
		if ev.Type == "cell" {
			st.cells++
			if ev.Outcome == "cached" || ev.Outcome == "merged" {
				st.cachedOrMerged++
			}
		}
	}

	// cluster: the same campaign through the coordinator, then the
	// cache-only plan and result endpoints of the workers.
	cSpan := w.t.begin(opSpan, "cluster.campaign", op.id)
	var id string
	if _, err := w.timed(cSpan, "cluster.submit", op.id, func() (err error) {
		var code int
		id, code, err = submitHTTP(ctx, hc, w.fleet.coord.url, spec)
		if err == nil && id == "" {
			err = fmt.Errorf("coordinator refused the campaign (HTTP %d)", code)
		}
		return err
	}); err != nil {
		return err
	}
	cj, ok := w.fleet.coord.svc.Job(id)
	if !ok {
		return fmt.Errorf("coordinator lost job %s", id)
	}
	<-cj.Done()
	var cst service.JobStatus
	if _, err := w.timed(cSpan, "cluster.fetch", op.id, func() (err error) {
		cst, err = fetchStatus(ctx, hc, w.fleet.coord.url, id)
		return err
	}); err != nil {
		return err
	}
	w.phaseSpans(cSpan, "cluster", op.id, cst)
	w.t.end(cSpan)
	if cst.State != service.JobDone {
		return fmt.Errorf("cluster job %s: %s %v", id, cst.State, cst.Errors)
	}
	a, errA := resultsJSON(sst)
	b, errB := resultsJSON(cst)
	if err := errors.Join(errA, errB); err != nil {
		return err
	}
	if !slices.Equal(a, b) {
		st.mismatches++
	}
	if spec.Windows > 0 {
		w.sampledKeys[key] = true
	}

	// A contiguous campaign leaves no plan on the workers, so the walk
	// pushes the one it encoded before reading it back.
	fetched := false
	for _, wn := range w.fleet.workers {
		var ok bool
		d, err := w.timed(opSpan, "cluster.plan_get", op.id, func() (err error) {
			_, ok, err = getBytes(ctx, hc, wn.url+"/v1/cluster/plan/"+key)
			return err
		})
		if err != nil {
			return err
		}
		if ok {
			st.planFetchMS = append(st.planFetchMS, ms(d))
			fetched = true
			break
		}
	}
	if !fetched {
		url := w.fleet.workers[0].url + "/v1/cluster/plan/" + key
		if _, err := w.timed(opSpan, "cluster.plan_put", op.id, func() error {
			ok, err := putBytes(ctx, hc, url, wire)
			if err == nil && !ok {
				err = errors.New("plan push refused")
			}
			return err
		}); err != nil {
			return err
		}
		var ok bool
		d, err := w.timed(opSpan, "cluster.plan_get", op.id, func() (err error) {
			_, ok, err = getBytes(ctx, hc, url)
			return err
		})
		if err != nil || !ok {
			return fmt.Errorf("plan %s not served after push: %v", key, err)
		}
		st.planFetchMS = append(st.planFetchMS, ms(d))
	}
	for _, r := range cst.Results {
		found := false
		for _, wn := range w.fleet.workers {
			if _, err := w.timed(opSpan, "cluster.result_get", op.id, func() (err error) {
				_, found, err = getBytes(ctx, hc, wn.url+"/v1/cluster/result/"+r.Key)
				return err
			}); err != nil {
				return err
			}
			if found {
				break
			}
		}
		if !found {
			return fmt.Errorf("no worker serves result %s", r.Key)
		}
	}
	return nil
}

// phaseSpans records a finished job's queue wait and run as spans read
// from the job's own timestamps.
func (w *walker) phaseSpans(parent int, layer, op string, st service.JobStatus) {
	if st.StartedAt == nil || st.FinishedAt == nil {
		return
	}
	w.t.add(parent, layer+".queue", op, st.SubmittedAt, *st.StartedAt)
	w.t.add(parent, layer+".exec", op, *st.StartedAt, *st.FinishedAt)
}

// traceLayers runs the walk once to warm the process up (the first walk
// after the timed region pays for heap growth and cold paths, and its
// numbers are dropped), then alternates untraced and traced walks on the
// same ops, untraced first and last so that drift weighs on both sides,
// for enough rounds that the traced walks last minWalk. It adds the
// per-layer metrics they give: level costs from the first untraced walk,
// self times per layer per traced walk, the share of the traced walk that
// no layer's span covers, and the tracing overhead against the untraced
// walks' mean wall clock.
func traceLayers(ctx context.Context, e env, name string, ops []walkOp, res *result) error {
	_, wallWarm, err := layerWalk(ctx, e, ops, nil, "walk-warm")
	if err != nil {
		return err
	}
	rounds := 1
	if wallWarm > 0 && wallWarm < minWalk {
		rounds = int((minWalk + wallWarm - 1) / wallWarm)
	}
	t := &tracer{}
	var st walkStats
	var wallOff, wallOn time.Duration
	bad, badPlans := 0, 0
	for i := 0; i <= 2*rounds; i++ {
		tr := t
		if i%2 == 0 {
			tr = nil
		}
		s, wall, err := layerWalk(ctx, e, ops, tr, fmt.Sprintf("walk-%d", i))
		if err != nil {
			return err
		}
		if i == 0 {
			st = s
		}
		bad += s.mismatches
		if s.clusterPlans != float64(s.sampledKeys) {
			badPlans++
		}
		if tr == nil {
			wallOff += wall
		} else {
			wallOn += wall
		}
	}
	wallOff /= time.Duration(rounds + 1)
	wallOn /= time.Duration(rounds)
	if bad > 0 {
		res.fail("layer walk: %d cluster results differ from the single daemon's", bad)
	}
	if badPlans > 0 {
		res.fail("layer walk: in %d walk(s) the fleet did not plan exactly once per sampled plan key", badPlans)
	}
	spans := t.snapshot()
	if err := writeSpans(spanPath(name, e.seed), spans); err != nil {
		return err
	}

	// The self times of a walk add up to its wall clock. What the harness
	// (the bench layer) holds is the part no layer's span accounts for.
	perLayer := layerSelf(spans)
	var layers time.Duration
	for _, layer := range walkLayers {
		perLayer[layer] /= time.Duration(rounds)
		res.layer["self_ms."+layer] = metric{ms(perLayer[layer]), "ms"}
		if layer != "bench" {
			layers += perLayer[layer]
		}
	}
	unattributed := perLayer["bench"].Seconds() / wallOn.Seconds() * 100
	overhead := (wallOn.Seconds() - wallOff.Seconds()) / wallOff.Seconds() * 100
	res.layer["trace.unattributed_pct"] = metric{unattributed, "%"}
	res.layer["trace.overhead_pct"] = metric{overhead, "%"}
	res.diag["trace_spans"] = len(spans)
	if unattributed > unattributedTolerancePct {
		res.fail("layer walk: %.2f%% of the traced walk lies in no layer's span, above %.0f%%", unattributed, unattributedTolerancePct)
	}

	fmt.Fprintf(os.Stderr, "traced layer walk of %d campaigns, %d round(s): untraced %.1f ms, traced %.1f ms, overhead %+.2f%%\n",
		len(ops), rounds, ms(wallOff), ms(wallOn), overhead)
	for _, layer := range walkLayers {
		fmt.Fprintf(os.Stderr, "  self %-12s %10.1f ms  %5.1f%%\n", layer, ms(perLayer[layer]),
			100*perLayer[layer].Seconds()/wallOn.Seconds())
	}
	fmt.Fprintf(os.Stderr, "  layers account for %.1f ms: %.2f%% of the traced walk (the harness holds %.2f%%, tolerance %.0f%%) and %.2f%% of the untraced walk; spans in %s\n",
		ms(layers), 100*layers.Seconds()/wallOn.Seconds(), unattributed, unattributedTolerancePct,
		100*layers.Seconds()/wallOff.Seconds(), spanPath(name, e.seed))

	walkMetrics(st, res)
	return nil
}

// unattributedTolerancePct bounds the share of a traced walk that lies
// outside every layer's spans: the harness's own work between calls. A
// larger share means the layer split no longer accounts for the wall clock.
const unattributedTolerancePct = 5.0

// minWalk is how long the traced walks of one run last together at least,
// so that a walk of a few tiny campaigns is not mostly timing noise.
const minWalk = 6 * time.Second

// walkLayers are the span layers, the benchmark's own harness first.
var walkLayers = []string{"bench", "workload", "emu", "sampling", "pipeline", "experiments", "service", "cluster"}

// walkMetrics adds the per-layer metrics the walk measures directly. A
// workload whose own run measures a layer better overwrites them after.
func walkMetrics(st walkStats, res *result) {
	per := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return ms(d) / float64(n)
	}
	rate := func(insts, secs float64) float64 {
		if secs == 0 {
			return 0
		}
		return insts / secs / 1e6
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	L := res.layer
	L["workload.build_ms"] = metric{per(st.buildTime, st.builds), "ms"}
	L["emu.ff_minst_per_s"] = metric{rate(float64(st.emuInsts), st.emuTime.Seconds()), "Minst/s"}
	L["emu.snapshot_mb"] = metric{ratio(float64(st.snapBytes), float64(st.snapWindows)) / (1 << 20), "MB"}
	L["sampling.plan_ms"] = metric{per(st.planTime, st.plans), "ms"}
	L["sampling.plan_encode_ms"] = metric{per(st.encTime, st.plans), "ms"}
	L["sampling.plan_decode_ms"] = metric{per(st.decTime, st.plans), "ms"}
	L["sampling.plan_wire_mb"] = metric{ratio(float64(st.wireBytes), float64(st.plans)) / (1 << 20), "MB"}
	L["sampling.replay_ms_per_window"] = metric{per(st.replayTime, st.replayWindows), "ms"}
	L["sampling.plan_reuse_ratio"] = metric{ratio(float64(st.reused), float64(st.plans)), "ratio"}
	L["pipeline.minst_per_s.branchy"] = metric{rate(st.insts[0], st.runTimes[0]), "Minst/s"}
	L["pipeline.minst_per_s.membound"] = metric{rate(st.insts[1], st.runTimes[1]), "Minst/s"}
	L["pipeline.ns_per_cycle"] = metric{ratio(float64(st.runTime.Nanoseconds()), float64(st.cycles)), "ns"}
	L["pipeline.skip_cycle_ratio"] = metric{ratio(float64(st.skippedCycles), float64(st.cycles)), "ratio"}
	L["pipeline.allocs_per_cell"] = metric{ratio(float64(st.allocs), float64(st.runs)), "count"}
	L["pipeline.new_ms"] = metric{per(st.newTime, st.runs), "ms"}
	L["experiments.cell_ms_p50"] = metric{percentile(st.cellMS, 50), "ms"}
	L["service.submit_ms_p50"] = metric{percentile(st.submitMS, 50), "ms"}
	L["service.queue_wait_ms_p50"] = metric{percentile(st.queueMS, 50), "ms"}
	L["service.queue_wait_ms_p90"] = metric{percentile(st.queueMS, 90), "ms"}
	L["service.exec_ms_p50"] = metric{percentile(st.execMS, 50), "ms"}
	L["service.result_fetch_ms_p50"] = metric{percentile(st.fetchMS, 50), "ms"}
	L["service.cache_hit_ratio"] = metric{ratio(float64(st.cachedOrMerged), float64(st.cells)), "ratio"}
	L["service.refused"] = metric{0, "count"}
	L["service.journal_records_per_job"] = metric{ratio(st.journalRecords, float64(st.ops)), "count"}
	L["cluster.passes_per_plan_key"] = metric{ratio(st.clusterPlans, float64(st.sampledKeys)), "ratio"}
	L["cluster.peer_plans_adopted"] = metric{st.clusterPeerPlans, "count"}
	L["cluster.plan_fetch_ms"] = metric{median(st.planFetchMS), "ms"}
	L["cluster.remote_cells"] = metric{st.remoteCells, "count"}
	L["cluster.steals"] = metric{st.steals, "count"}
	L["experiments.memo_hit_ratio"] = metric{0, "ratio"}
	L["experiments.idle_slot_ratio"] = metric{0, "ratio"}
	L["loadgen.late_ms_p90"] = metric{0, "ms"}
}
