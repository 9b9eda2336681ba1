// Package experiments regenerates every table and figure of the paper's
// evaluation (§V) on the simulator: the same rows and series, computed over
// the synthetic workload suite. Figs. 8 and 9, Table III and the workload
// characterisation return typed results; every other figure, ablation and
// extension is a study — a grid of machine variants over one workload set,
// run as one campaign and folded by one reducer per column into a Study.
// Experiments lists them all once; cmd/experiments and the repository
// root's BenchmarkExperiments run that catalogue.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/sampling"
	"repro/internal/simerr"
	"repro/internal/stats"
	"repro/internal/workload"
)

// DBPThresholdMPKI is the paper's difficult-branch-prediction threshold:
// programs with base-machine branch MPKI above it form the D-BP set (§V-A).
const DBPThresholdMPKI = 3.0

// MemIntensityThresholdMPKI is the paper's memory-intensity threshold for
// Fig. 9's colouring: LLC MPKI ≥ 1.0 is memory-intensive.
const MemIntensityThresholdMPKI = 1.0

// Options controls simulation windows, parallelism, and failure handling.
type Options struct {
	Warmup      uint64 // instructions simulated before counters reset
	Measure     uint64 // measured instructions per run
	Parallelism int    // concurrent simulations (0 = GOMAXPROCS)

	// Failure handling. Timeout bounds one simulation's wall-clock time
	// (0 = unbounded; a k-cell sweep batch gets k times it); expiry
	// surfaces as simerr.ErrTimeout. Retries is how
	// many extra attempts a transient failure (simerr.IsTransient) gets;
	// deterministic failures — deadlock, invariant violation, panic — are
	// never retried. A retry waits retryBackoff (50ms unless a test of
	// this package shortens it), doubled each attempt.
	Timeout      time.Duration
	Retries      int
	retryBackoff time.Duration

	// Sampled simulation. SampleWindows > 0 switches every run from one
	// contiguous window to SMARTS-style sampling: SampleWindows windows of
	// Warmup+Measure detailed instructions, each preceded by a
	// SampleFastForward functional gap, merged into one pipeline.Result.
	// Window placement depends only on the workload and the plan geometry,
	// so the runner computes it once per workload and shares the snapshots
	// across every machine configuration of a sweep. ParallelWindows is the
	// per-run window concurrency (sampling.Config.Parallel: 0 or 1 serial,
	// negative = GOMAXPROCS); it never changes results, only wall-clock, and
	// is therefore excluded from memo and checkpoint keys.
	SampleWindows     int
	SampleFastForward uint64
	ParallelWindows   int
}

// Sampled reports whether runs use the sampled path.
func (o Options) Sampled() bool { return o.SampleWindows > 0 }

// PlanKey returns the sampling-plan content key every machine variant of
// a sweep over wl shares under these options — the address plans are
// exchanged under in a cluster. Fails if wl is not a known workload.
func (o Options) PlanKey(wl string) (string, error) {
	prog, err := workload.Program(wl)
	if err != nil {
		return "", err
	}
	return sampling.PlanKey(prog, o.samplingPlan()), nil
}

// samplingPlan maps the options onto a sampling plan.
func (o Options) samplingPlan() sampling.Config {
	return sampling.Config{
		Windows:     o.SampleWindows,
		FastForward: o.SampleFastForward,
		Warmup:      o.Warmup,
		Measure:     o.Measure,
		Parallel:    o.ParallelWindows,
	}
}

// DefaultOptions returns full-size windows: 300K warm-up + 1M measured
// (the paper simulates 100M after a 16B skip; see DESIGN.md §2 for the
// scaling substitution).
func DefaultOptions() Options {
	return Options{Warmup: 300_000, Measure: 1_000_000}
}

// QuickOptions returns reduced windows for benchmarks and smoke tests.
func QuickOptions() Options {
	return Options{Warmup: 60_000, Measure: 150_000}
}

func (o Options) normalized() Options {
	if o.Warmup == 0 && o.Measure == 0 {
		o = DefaultOptions()
	}
	if o.Measure == 0 {
		o.Measure = 1_000_000
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.retryBackoff == 0 {
		o.retryBackoff = 50 * time.Millisecond
	}
	return o
}

// RunnerStats counts what a campaign actually did — how many detailed
// simulations ran versus how many were answered from the memo cache or the
// on-disk checkpoint. Resume tests assert on these.
type RunnerStats struct {
	Simulated        uint64 // detailed simulations executed (attempts, including retries)
	MemoHits         uint64 // answered from the in-memory cache
	CheckpointHits   uint64 // answered from the on-disk checkpoint
	Retries          uint64 // transient failures retried
	Failures         uint64 // runs that failed after exhausting retries
	CheckpointErrors uint64 // checkpoint writes that failed (non-fatal)
}

// Runner executes simulations with memoization, so experiments that share
// runs (e.g. every figure needs the base machine) don't recompute them.
// With WithCheckpoint the memo cache additionally persists to disk, so a
// killed campaign resumes where it stopped.
type Runner struct {
	opts  Options
	ckpt  *checkpoint
	admit AdmitFunc   // optional gate on detailed simulation (WithAdmit)
	stats RunnerStats // accessed atomically; read via Stats

	mu    sync.Mutex
	cache map[string]pipeline.Result
	sem   chan struct{}

	// snaps shares functional fast-forward work between sampled runs: all
	// machine variants of one (workload, plan geometry) pair reuse one set
	// of placed windows. Private and unbounded unless WithStore shares one.
	snaps *sampling.Store
}

// NewRunner builds a runner for the given options.
func NewRunner(o Options) *Runner {
	o = o.normalized()
	return &Runner{
		opts:  o,
		cache: make(map[string]pipeline.Result),
		sem:   make(chan struct{}, o.Parallelism),
		snaps: sampling.NewStore(),
	}
}

// WithStore makes the runner plan sampled windows through st — a budgeted
// store, or one several runners share, since plan keys address content.
// Call it before the first run; it returns the runner for chaining.
func (r *Runner) WithStore(st *sampling.Store) *Runner {
	r.snaps = st
	return r
}

// WithCheckpoint persists every finished run to dir (creating it if
// needed) and answers future runs of the same key from disk. Call it
// before the first run; it returns the runner for chaining.
func (r *Runner) WithCheckpoint(dir string) (*Runner, error) {
	c, err := newCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	r.ckpt = c
	return r, nil
}

// AdmitFunc gates one detailed simulation attempt. It runs after the memo
// cache and checkpoint have both missed — cached results always flow — and
// immediately before the simulator would execute. A non-nil error refuses
// the attempt (the run fails with that error, unretried); on admission the
// returned release hook must be invoked exactly once with the attempt's
// outcome. pubsd's circuit breaker hangs off this seam: while open, only
// memo/checkpoint hits are served and everything else fails fast with
// simerr.ErrCircuitOpen.
type AdmitFunc func() (release func(error), err error)

// WithAdmit installs the simulation admission gate. Call it before the
// first run; it returns the runner for chaining.
func (r *Runner) WithAdmit(f AdmitFunc) *Runner {
	r.admit = f
	return r
}

// Options returns the normalized options in effect.
func (r *Runner) Options() Options { return r.opts }

// Stats returns a snapshot of the campaign counters.
func (r *Runner) Stats() RunnerStats {
	return RunnerStats{
		Simulated:        atomic.LoadUint64(&r.stats.Simulated),
		MemoHits:         atomic.LoadUint64(&r.stats.MemoHits),
		CheckpointHits:   atomic.LoadUint64(&r.stats.CheckpointHits),
		Retries:          atomic.LoadUint64(&r.stats.Retries),
		Failures:         atomic.LoadUint64(&r.stats.Failures),
		CheckpointErrors: atomic.LoadUint64(&r.stats.CheckpointErrors),
	}
}

// SnapshotStats reports the window store's plan/hit counters — how many
// functional fast-forward passes a sampled campaign actually paid for
// versus answered from shared snapshots.
func (r *Runner) SnapshotStats() sampling.StoreStats { return r.snaps.Stats() }

func cfgKey(cfg pipeline.Config, wl string, o Options) string {
	// ParallelWindows (like Parallelism) changes scheduling, never results,
	// so it stays out of the key; the sampling geometry changes what is
	// measured and must be part of it.
	key := fmt.Sprintf("%s|%d|%d|%+v", wl, o.Warmup, o.Measure, cfg)
	if o.Sampled() {
		key += fmt.Sprintf("|sw%d|ff%d", o.SampleWindows, o.SampleFastForward)
	}
	return key
}

func (r *Runner) memoLoad(key string) (pipeline.Result, bool) {
	r.mu.Lock()
	res, ok := r.cache[key]
	r.mu.Unlock()
	return res, ok
}

func (r *Runner) memoStore(key string, res pipeline.Result) {
	r.mu.Lock()
	r.cache[key] = res
	r.mu.Unlock()
}

// RunSweep simulates workload wl across several machine configurations.
// A sampled sweep runs as one batch under one Parallelism slot: the shared
// store plans (and predecodes) the windows once, and sampling.RunSweep
// replays each window across every machine while its trace is resident,
// ParallelWindows workers wide. Anything else runs cell by cell. Memoized
// and checkpointed per cell with the same keys as RunCell, so a sweep and
// individual cells interconvert freely. Results are indexed like cfgs; the
// error, when non-nil, is a *CampaignError listing the failed cells.
func (r *Runner) RunSweep(ctx context.Context, cfgs []pipeline.Config, wl string) ([]pipeline.Result, error) {
	if !r.opts.Sampled() {
		results, errs := r.fanOut(ctx, Grid(cfgs, []string{wl}))
		return results, campaignError(runErrors(errs))
	}
	results, errs := r.runBatch(ctx, cfgs, wl)
	return results, campaignError(runErrors(errs))
}

// RunAll simulates every named workload on cfg concurrently and returns
// results keyed by workload name. The context aborts runs that have not
// started and cuts short those in flight. The returned map always holds
// every run that completed; the error, when non-nil, is a *CampaignError
// whose Failures list the rest.
func (r *Runner) RunAll(ctx context.Context, cfg pipeline.Config, names []string) (map[string]pipeline.Result, error) {
	res, errs := r.fanOut(ctx, Grid([]pipeline.Config{cfg}, names))
	results := make(map[string]pipeline.Result, len(names))
	for i, name := range names {
		if errs[i] == nil {
			results[name] = res[i]
		}
	}
	return results, campaignError(runErrors(errs))
}

// fanOut runs each cell as its own one-cell attempt, concurrently; a lone
// cell runs on the calling goroutine. Results and errors are indexed like
// cells.
func (r *Runner) fanOut(ctx context.Context, cells []Cell) ([]pipeline.Result, []error) {
	results := make([]pipeline.Result, len(cells))
	errs := make([]error, len(cells))
	one := func(i int) { results[i], errs[i] = r.RunCell(ctx, cells[i]) }
	if len(cells) == 1 {
		one(0)
		return results, errs
	}
	var wg sync.WaitGroup
	wg.Add(len(cells))
	for i := range cells {
		go func() { defer wg.Done(); one(i) }()
	}
	wg.Wait()
	return results, errs
}

// runErrors collects the non-nil RunErrors of a batch.
func runErrors(errs []error) []RunError {
	var out []RunError
	for _, err := range errs {
		if err != nil {
			out = append(out, err.(RunError))
		}
	}
	return out
}

// runBatch runs cells of one workload: memo probe, one Parallelism slot,
// then attempts until every cell succeeded or failed for good. Only cells
// that failed transiently are retried, with exponential backoff, up to
// Options.Retries times. Results and errors are indexed like cfgs; every
// error is a RunError.
func (r *Runner) runBatch(ctx context.Context, cfgs []pipeline.Config, wl string) ([]pipeline.Result, []error) {
	results := make([]pipeline.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	keys := make([]string, len(cfgs))
	var pending []int
	for i, cfg := range cfgs {
		keys[i] = cfgKey(cfg, wl, r.opts)
		if res, ok := r.memoLoad(keys[i]); ok {
			atomic.AddUint64(&r.stats.MemoHits, 1)
			results[i] = res
		} else {
			pending = append(pending, i)
		}
	}
	fail := func(idxs []int, err error) ([]pipeline.Result, []error) {
		for _, i := range idxs {
			errs[i] = RunError{Workload: wl, Config: cfgs[i].Name, Err: err}
		}
		return results, errs
	}
	if len(pending) == 0 {
		return results, errs
	}

	// A context done before the slot is taken fails the cells here: select
	// picks at random among ready cases, and a free slot would let them run.
	if err := ctx.Err(); err != nil {
		return fail(pending, err)
	}
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return fail(pending, ctx.Err())
	}
	defer func() { <-r.sem }()

	prog, err := workload.Program(wl)
	if err != nil {
		return fail(pending, err)
	}
	for attempt := 0; ; attempt++ {
		r.attempt(ctx, cfgs, keys, wl, prog, pending, results, errs)
		var retry []int
		for _, i := range pending {
			if errs[i] == nil {
				continue
			}
			if !simerr.IsTransient(errs[i]) || attempt >= r.opts.Retries || ctx.Err() != nil {
				atomic.AddUint64(&r.stats.Failures, 1)
				fail([]int{i}, errs[i])
				continue
			}
			retry = append(retry, i)
		}
		if len(retry) == 0 {
			return results, errs
		}
		atomic.AddUint64(&r.stats.Retries, uint64(len(retry)))
		select {
		case <-time.After(r.opts.retryBackoff << attempt):
		case <-ctx.Done():
			return fail(retry, ctx.Err())
		}
		pending = retry
	}
}

// attempt runs the pending cells once, under the caller's slot: it
// re-probes the memo cache and checkpoint (another run may have filled a
// cell while this one waited), simulates the rest as one batch, and stores
// what succeeded. It sets errs[i] for every pending cell, nil on success.
func (r *Runner) attempt(ctx context.Context, cfgs []pipeline.Config, keys []string, wl string, prog *isa.Program, pending []int, results []pipeline.Result, errs []error) {
	var run []int
	var runCfgs []pipeline.Config
	for _, i := range pending {
		errs[i] = nil
		if res, ok := r.memoLoad(keys[i]); ok {
			atomic.AddUint64(&r.stats.MemoHits, 1)
			results[i] = res
			continue
		}
		if r.ckpt != nil {
			if res, ok := r.ckpt.load(keys[i]); ok {
				atomic.AddUint64(&r.stats.CheckpointHits, 1)
				r.memoStore(keys[i], res)
				results[i] = res
				continue
			}
		}
		run = append(run, i)
		runCfgs = append(runCfgs, cfgs[i])
	}
	if len(run) == 0 {
		return
	}
	sres, serrs := r.simulate(ctx, runCfgs, prog, wl)
	for k, i := range run {
		if errs[i] = serrs[k]; errs[i] != nil {
			continue
		}
		results[i] = sres[k]
		r.memoStore(keys[i], sres[k])
		if r.ckpt != nil {
			if err := r.ckpt.save(keys[i], wl, cfgs[i].Name, sres[k]); err != nil {
				atomic.AddUint64(&r.stats.CheckpointErrors, 1)
			}
		}
	}
}

// simulate is one detailed execution of a batch of cells: the worker body
// the fault-injection harness targets. One admission covers the batch, the
// timeout is Options.Timeout per cell, and a panic anywhere below — the
// timing model included — is recovered into a *simerr.PanicError failing
// every cell of the batch. Contiguous cells run one after another; sampled
// ones go to sampling.RunSweep over the shared plan.
func (r *Runner) simulate(ctx context.Context, cfgs []pipeline.Config, prog *isa.Program, wl string) (res []pipeline.Result, errs []error) {
	res = make([]pipeline.Result, len(cfgs))
	errs = make([]error, len(cfgs))
	failAll := func(err error) {
		for i := range errs {
			errs[i] = err
		}
	}
	if r.admit != nil {
		release, aerr := r.admit()
		if aerr != nil {
			failAll(aerr)
			return res, errs
		}
		// Registered before the recover handler so it runs after it (LIFO)
		// and sees the attempt's final errors, panics included.
		defer func() { release(errors.Join(errs...)) }()
	}
	if r.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.opts.Timeout*time.Duration(len(cfgs)))
		defer cancel()
	}
	defer func() {
		if v := recover(); v != nil {
			pe, ok := v.(*simerr.PanicError) // a window worker's, with its own stack
			if !ok {
				pe = &simerr.PanicError{Value: v, Stack: debug.Stack()}
			}
			failAll(pe)
		}
	}()
	var faults *faultinject.Set
	if p := pipeline.ProbeFrom(ctx); p != nil {
		faults = p.Faults
	}
	if faults.Fire(faultinject.WorkerTransient, wl) {
		failAll(simerr.Transient(fmt.Errorf("injected transient worker fault on %s", wl)))
		return res, errs
	}
	if faults.Fire(faultinject.WorkerPanic, wl) {
		panic(fmt.Sprintf("injected worker panic on %s", wl))
	}
	atomic.AddUint64(&r.stats.Simulated, uint64(len(cfgs)))
	if !r.opts.Sampled() {
		for i, cfg := range cfgs {
			res[i], errs[i] = pipeline.RunProgramContext(ctx, cfg, prog, r.opts.Warmup, r.opts.Measure)
		}
		return res, errs
	}
	plan := r.opts.samplingPlan()
	windows, err := r.snaps.Windows(ctx, prog, plan)
	if errors.Is(err, context.DeadlineExceeded) {
		// Planning ran out the simulation budget: the same typed timeout
		// the timing model reports.
		err = fmt.Errorf("%w: %w", simerr.ErrTimeout, err)
	}
	if err != nil {
		failAll(err)
		return res, errs
	}
	sres, serrs := sampling.RunSweep(ctx, cfgs, prog, plan, windows)
	for i := range cfgs {
		if errs[i] = serrs[i]; errs[i] == nil {
			res[i] = sres[i].Merged()
		}
	}
	return res, errs
}

// Classification splits the suite by measured base-machine branch MPKI.
type Classification struct {
	DBP  []string // branch MPKI > 3.0, sorted by name
	EBP  []string
	Base map[string]pipeline.Result // base-machine results for every program
}

// Classify runs the base machine over the whole suite on r and applies the
// paper's D-BP threshold.
func Classify(ctx context.Context, r *Runner) (Classification, error) {
	base, err := r.RunAll(ctx, pipeline.BaseConfig(), workload.Names())
	if err != nil {
		return Classification{}, err
	}
	var c Classification
	c.Base = base
	for name, res := range base {
		if res.BranchMPKI() > DBPThresholdMPKI {
			c.DBP = append(c.DBP, name)
		} else {
			c.EBP = append(c.EBP, name)
		}
	}
	sort.Strings(c.DBP)
	sort.Strings(c.EBP)
	return c, nil
}

// speedupGM returns the geometric mean percentage speedup of `next` over
// `base` across the named programs.
func speedupGM(names []string, base, next map[string]pipeline.Result) float64 {
	ratios := make([]float64, 0, len(names))
	for _, n := range names {
		b, p := base[n], next[n]
		if b.IPC() > 0 {
			ratios = append(ratios, p.IPC()/b.IPC())
		}
	}
	return (stats.Geomean(ratios) - 1) * 100
}
