package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/service"
	"repro/internal/workload"
)

// serve-mix: one pubsd node under an open loop of small campaigns with tiny
// windows, so admission, queue, JSON, result cache and journal are a large
// share of every job, and reads (cache hits) run beside writes.
var (
	serveWorkloads = []string{"chess", "goplay", "parser", "regex", "crypto", "matmul", "hashmix", "treewalk"}
	serveMachines  = []string{"base", "pubs", "age", "pubs+age"}
	// serveKinds is one round of the arrival mix: three fresh campaigns,
	// two repeats and one fresh campaign sent twice.
	serveKinds = []string{"fresh", "fresh", "fresh", "repeat", "repeat", "duplicate"}
)

const (
	// Windows of 10K + 20K instructions make a cell take tens of
	// milliseconds, so a job's latency is mostly its own service and not
	// a preempted vCPU's few milliseconds.
	serveWarmup  = 10_000
	serveMeasure = 20_000
	// serveRate is the open loop's fixed arrival rate in jobs per second: a
	// third of the 25.7 jobs/s one daemon completed at this mix when the
	// schedule was sent closed-loop to the system at commit 5f93119 (2
	// vCPUs, 16 senders). Later commits keep it fixed.
	serveRate = 8.6
	// serveRound is how many schedule slots deal every job kind and every
	// workload × campaign size equally often: 8 rounds of serveKinds hold
	// 32 fresh campaigns, one per combination.
	serveRound = 48
	// serveRepeatAge is how long before a repeat its original was due, so
	// the original has finished and the repeat reads the result cache.
	serveRepeatAge = time.Second
	// serveDigestJobs is the schedule prefix the results digest covers.
	serveDigestJobs = 8
	// missedMS stands in for the latency of a refused or failed job: it
	// misses any latency limit.
	missedMS = 1e6
)

// deck deals 0..n-1 in seeded, reshuffled rounds: every value appears once
// per round, so a run's mix matches the pool's proportions whatever the
// seed and only the order varies. That keeps runs on different seeds
// comparable.
type deck struct {
	rng   *rand.Rand
	n     int
	cards []int
}

func (d *deck) next() int {
	if len(d.cards) == 0 {
		d.cards = d.rng.Perm(d.n)
	}
	c := d.cards[0]
	d.cards = d.cards[1:]
	return c
}

// serveJob is one scheduled submission.
type serveJob struct {
	due  time.Duration // from the start of the schedule
	kind string        // fresh, repeat or duplicate
	of   int           // the job a repeat or duplicate copies; -1 when fresh
	spec service.CampaignSpec
}

// serveInputs builds the seeded schedule: arrivals at a fixed mean rate,
// each in its own 1/rate slot with seeded jitter, in rounds of serveKinds.
// Fresh campaigns bring new cells (a simulation, a checkpoint file, journal
// records); a repeat resubmits a campaign due at least serveRepeatAge
// earlier (cache hits; before one exists it is fresh instead); a duplicate
// is a fresh campaign sent twice within a millisecond (a singleflight
// merge). The schedule has the whole number of serveRound slots nearest to
// seconds × rate, so every seed offers the same work in another order.
func serveInputs(seed uint64, seconds, rate float64) []serveJob {
	rng := rand.New(rand.NewPCG(seed, 0x73657276))
	kinds := &deck{rng: rng, n: len(serveKinds)}
	// One card per workload × campaign size: how long a job runs depends
	// on both, so they are dealt together.
	combos := &deck{rng: rng, n: len(serveWorkloads) * len(serveMachines)}
	var jobs []serveJob
	var fresh []int
	freshJob := func(due time.Duration) serveJob {
		c := combos.next()
		picks := rng.Perm(len(serveMachines))[:1+c/len(serveWorkloads)]
		sort.Ints(picks)
		spec := service.CampaignSpec{
			Workloads: []string{serveWorkloads[c%len(serveWorkloads)]},
			// A distinct warm-up per fresh campaign gives it cells no
			// earlier campaign has.
			Warmup:  serveWarmup + uint64(len(fresh)),
			Measure: serveMeasure,
		}
		for _, p := range picks {
			spec.Machines = append(spec.Machines, service.MachineSpec{Machine: serveMachines[p]})
		}
		fresh = append(fresh, len(jobs))
		return serveJob{due: due, kind: "fresh", of: -1, spec: spec}
	}
	n := max(1, int(math.Round(seconds*rate/serveRound))) * serveRound
	for k := 0; k < n; k++ {
		due := time.Duration((float64(k) + 0.8*rng.Float64()) / rate * float64(time.Second))
		kind := serveKinds[kinds.next()]
		var old []int
		for _, i := range fresh {
			if jobs[i].due <= due-serveRepeatAge {
				old = append(old, i)
			}
		}
		switch {
		case kind == "fresh" || (kind == "repeat" && len(old) == 0):
			jobs = append(jobs, freshJob(due))
		case kind == "repeat":
			of := old[rng.IntN(len(old))]
			jobs = append(jobs, serveJob{due: due, kind: kind, of: of, spec: jobs[of].spec})
		default:
			f := freshJob(due)
			jobs = append(jobs, f)
			dup := due + time.Duration(rng.Float64()*float64(time.Millisecond))
			jobs = append(jobs, serveJob{due: dup, kind: kind, of: len(jobs) - 1, spec: f.spec})
		}
	}
	return jobs
}

// jobOutcome is what one submission saw.
type jobOutcome struct {
	late, lat, submit, fetch float64 // milliseconds
	code                     int     // HTTP status of a refusal
	status                   service.JobStatus
	events                   []service.Event
	err                      error
}

// submitAndWait submits a campaign over HTTP, waits on the job's completion
// (never polling), then fetches its result document. Latency runs from due.
func submitAndWait(ctx context.Context, hc *http.Client, n *node, spec service.CampaignSpec, due time.Time) jobOutcome {
	var o jobOutcome
	t0 := time.Now()
	o.late = ms(t0.Sub(due))
	id, code, err := submitHTTP(ctx, hc, n.url, spec)
	o.submit = ms(time.Since(t0))
	if err != nil || id == "" {
		o.code, o.err, o.lat = code, err, missedMS
		return o
	}
	job, ok := n.svc.Job(id)
	if !ok {
		o.err, o.lat = fmt.Errorf("daemon lost job %s", id), missedMS
		return o
	}
	<-job.Done()
	t1 := time.Now()
	o.status, o.err = fetchStatus(ctx, hc, n.url, id)
	o.fetch = ms(time.Since(t1))
	o.lat = ms(time.Since(due))
	if o.err != nil || o.status.State != service.JobDone {
		o.lat = missedMS
	}
	o.events, _ = job.EventsSince(0)
	return o
}

// startServeNode boots the serve-mix daemon with a fresh journal and
// checkpoint directory.
func startServeNode(e env, tag string) (*node, error) {
	dir := filepath.Join(e.dir, tag)
	return startNode(service.Config{
		NodeID: "serve", Workers: e.nproc, QueueDepth: 4096,
		JournalDir: filepath.Join(dir, "journal"), CheckpointDir: filepath.Join(dir, "ckpt"),
		DefaultOptions: experiments.Options{Warmup: serveWarmup, Measure: serveMeasure},
	}, nil)
}

func runServeMix(ctx context.Context, e env) (*result, error) {
	res := newResult()
	jobs := serveInputs(e.seed, e.seconds, serveRate)
	var n *node
	setup, err := medianSetup(func(i int) error {
		if err := buildPrograms(serveWorkloads, i == 0); err != nil {
			return err
		}
		var err error
		n, err = startServeNode(e, fmt.Sprintf("serve-%d", i))
		return err
	}, func() { n.stop() })
	if err != nil {
		return nil, err
	}
	defer n.stop()
	res.e2e["setup_s"] = metric{setup, "s"}

	// The open loop: every job is sent at its due time whatever the daemon
	// is doing, by its own goroutine.
	hc := newClient(e.nproc)
	outs := make([]jobOutcome, len(jobs))
	mark := markProcess()
	var wg sync.WaitGroup
	start := time.Now()
	for i := range jobs {
		due := start.Add(jobs[i].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = submitAndWait(ctx, hc, n, jobs[i].spec, due)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	res.e2e["retained_heap_mb"] = metric{retainedHeapMB(), "MB"}
	mark.processMetrics(res)
	m := parseMetrics(n.svc.MetricsText())

	insts, err := checkServe(ctx, res, jobs, outs, m, e.nproc)
	if err != nil {
		return nil, err
	}
	// The open loop's length is fixed by the schedule, so throughput is
	// taken over the time the daemon's slots spent simulating.
	busy := slotBusy(outs, e.nproc)
	res.e2e["sim_minst_per_s"] = metric{insts / busy.Seconds() / 1e6, "Minst/s"}
	lat := make([]float64, len(outs))
	for i, o := range outs {
		lat[i] = o.lat
	}
	latencyMetrics(res, lat)
	res.diag["jobs"] = len(jobs)
	res.diag["slot_busy_ratio"] = busy.Seconds() / wall.Seconds()

	if !e.trace {
		return res, nil
	}
	var ops []walkOp
	var cells []cellOut
	seen := map[bool]bool{}
	for i, j := range jobs {
		if j.kind != "fresh" {
			continue
		}
		for _, r := range outs[i].status.Results {
			cells = append(cells, cellOut{r.Workload, r.Result})
		}
		info, err := workload.ByName(j.spec.Workloads[0])
		if err != nil {
			return nil, err
		}
		if !seen[info.MemIntensive] {
			seen[info.MemIntensive] = true
			ops = append(ops, walkOp{id: fmt.Sprintf("job%d", i), spec: j.spec})
		}
	}
	if err := traceLayers(ctx, e, "serve-mix", ops, res); err != nil {
		return nil, err
	}
	modelMetrics(res, cells)
	serviceMetrics(res, outs, m)
	var late []float64
	for _, o := range outs {
		late = append(late, o.late)
	}
	res.layer["loadgen.late_ms_p90"] = metric{percentile(late, 90), "ms"}
	return res, nil
}

// checkServe verifies every job: refusals and failures count as failed,
// repeats and duplicates must return their original's results, fresh cells
// must equal a direct pipeline run of the same window, and the daemon must
// have simulated each distinct cell exactly once. It returns the detailed
// instructions simulated.
func checkServe(ctx context.Context, res *result, jobs []serveJob, outs []jobOutcome, m map[string]float64, nproc int) (float64, error) {
	type check struct {
		job, k int
		cell   service.CellResult
	}
	var fresh []check
	var digestCells []pipeline.Result
	for i, o := range outs {
		res.attempted++
		switch {
		case o.code != 0 || o.err != nil:
			res.fail("job %d: HTTP %d: %v", i, o.code, o.err)
			continue
		case o.status.State != service.JobDone || len(o.status.Results) != o.status.TotalCells:
			res.fail("job %d: %s with %d/%d cells %v", i, o.status.State, len(o.status.Results), o.status.TotalCells, o.status.Errors)
			continue
		}
		if i < serveDigestJobs {
			for _, r := range o.status.Results {
				digestCells = append(digestCells, r.Result)
			}
		}
		if jobs[i].of >= 0 {
			a, errA := resultsJSON(o.status)
			b, errB := resultsJSON(outs[jobs[i].of].status)
			if errA != nil || errB != nil || !slices.Equal(a, b) {
				res.fail("job %d (%s of job %d) returned different results", i, jobs[i].kind, jobs[i].of)
			}
			continue
		}
		for k, r := range o.status.Results {
			fresh = append(fresh, check{i, k, r})
		}
	}
	var err error
	if res.digest, err = digest(digestCells); err != nil {
		return 0, err
	}

	// Direct pipeline runs of every fresh cell, on nproc goroutines.
	bad := make([]bool, len(fresh))
	var insts float64
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				f := fresh[c]
				spec := jobs[f.job].spec
				bad[c] = !matchesDirect(ctx, spec, f.k, f.cell)
				mu.Lock()
				insts += float64(spec.Warmup + f.cell.Result.Measured)
				mu.Unlock()
			}
		}()
	}
	for c := range fresh {
		next <- c
	}
	close(next)
	wg.Wait()
	for c, b := range bad {
		if b {
			res.fail("job %d cell %d differs from a direct pipeline run", fresh[c].job, fresh[c].k)
		}
	}
	if sims := m["pubsd_sims_executed_total"]; int(sims) != len(fresh) {
		res.fail("daemon simulated %d cells for %d distinct ones", int(sims), len(fresh))
	}
	res.diag["fresh_cells"] = len(fresh)
	return insts, nil
}

// matchesDirect reports whether a served cell equals pipeline.RunProgram
// on the same machine, program and window.
func matchesDirect(ctx context.Context, spec service.CampaignSpec, k int, cell service.CellResult) bool {
	cfg, err := spec.Machines[k].Config()
	if err != nil || cell.Machine != cfg.Name {
		return false
	}
	prog, err := workload.Program(spec.Workloads[0])
	if err != nil {
		return false
	}
	ref, err := pipeline.RunProgramContext(ctx, cfg, prog, spec.Warmup, spec.Measure)
	if err != nil {
		return false
	}
	a, errA := digest([]pipeline.Result{ref})
	b, errB := digest([]pipeline.Result{cell.Result})
	return errA == nil && errB == nil && a == b
}

// serviceMetrics adds the service layer's numbers from the jobs' own
// timestamps, cell events and the daemon's counters.
func serviceMetrics(res *result, outs []jobOutcome, m map[string]float64) {
	var submit, queue, exec, fetch []float64
	cells, hits, refused := 0, 0, 0
	for _, o := range outs {
		if o.code != 0 {
			refused++
		}
		if o.status.ID == "" {
			continue
		}
		q, x := statusPhases(o.status)
		submit = append(submit, o.submit)
		queue = append(queue, ms(q))
		exec = append(exec, ms(x))
		fetch = append(fetch, o.fetch)
		for _, ev := range o.events {
			if ev.Type == "cell" {
				cells++
				if ev.Outcome == "cached" || ev.Outcome == "merged" {
					hits++
				}
			}
		}
	}
	L := res.layer
	L["service.submit_ms_p50"] = metric{percentile(submit, 50), "ms"}
	L["service.queue_wait_ms_p50"] = metric{percentile(queue, 50), "ms"}
	L["service.queue_wait_ms_p90"] = metric{percentile(queue, 90), "ms"}
	L["service.exec_ms_p50"] = metric{percentile(exec, 50), "ms"}
	L["service.result_fetch_ms_p50"] = metric{percentile(fetch, 50), "ms"}
	if cells > 0 {
		L["service.cache_hit_ratio"] = metric{float64(hits) / float64(cells), "ratio"}
	}
	L["service.refused"] = metric{float64(refused), "count"}
	if len(outs) > 0 {
		L["service.journal_records_per_job"] = metric{m["pubsd_journal_records_total"] / float64(len(outs)), "count"}
	}
	if d := m["pubsd_runner_memo_hits_total"] + m["pubsd_sims_executed_total"]; d > 0 {
		L["experiments.memo_hit_ratio"] = metric{m["pubsd_runner_memo_hits_total"] / d, "ratio"}
	}
}

// slotBusy is the time the daemon's nproc simulation slots spent on jobs
// that simulated a cell, as if all slots were busy at once: the time
// integral of the slots such jobs held between started_at and finished_at
// (a job holds one per simulated cell, at most nproc; the daemon has
// nproc), divided by nproc. Cache hits and merges hold none.
func slotBusy(outs []jobOutcome, nproc int) time.Duration {
	type edge struct {
		at    time.Time
		slots int
	}
	var edges []edge
	for _, o := range outs {
		if o.status.StartedAt == nil || o.status.FinishedAt == nil {
			continue
		}
		sims := 0
		for _, ev := range o.events {
			if ev.Type == "cell" && ev.Outcome == "simulated" {
				sims++
			}
		}
		if s := min(sims, nproc); s > 0 {
			edges = append(edges, edge{*o.status.StartedAt, s}, edge{*o.status.FinishedAt, -s})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at.Before(edges[j].at) })
	var busy time.Duration
	held := 0
	for i, ed := range edges {
		if i > 0 {
			busy += time.Duration(min(held, nproc)) * ed.at.Sub(edges[i-1].at)
		}
		held += ed.slots
	}
	return busy / time.Duration(nproc)
}
