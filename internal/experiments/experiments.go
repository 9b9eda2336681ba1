// Package experiments regenerates every table and figure of the paper's
// evaluation (§V) on the simulator: the same rows and series, computed over
// the synthetic workload suite. Each experiment function returns a typed
// result with a Table() renderer; cmd/experiments prints them and
// bench_test.go at the repository root wraps each in a testing.B benchmark.
package experiments

import (
	"context"
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
	// (0 = unbounded); expiry surfaces as simerr.ErrTimeout. Retries is how
	// many extra attempts a transient failure (simerr.IsTransient) gets;
	// deterministic failures — deadlock, invariant violation, panic — are
	// never retried. RetryBackoff is the first retry's delay, doubled each
	// attempt (0 = 50ms).
	Timeout      time.Duration
	Retries      int
	RetryBackoff time.Duration

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

	// Trace-replay controls, both result-neutral and therefore excluded
	// from memo and checkpoint keys. WindowMajor makes sampled sweeps walk
	// the plan window-major (each predecoded window replays across every
	// machine variant while it is hot; see RunSweepContext). WindowObserve,
	// when set, receives each detailed window's wall-clock duration; it must
	// be safe for concurrent use.
	WindowMajor   bool
	WindowObserve func(time.Duration)
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
		Observe:     o.WindowObserve,
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
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 50 * time.Millisecond
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
	base  context.Context // optional campaign-wide context (BindContext)
	admit AdmitFunc       // optional gate on detailed simulation (WithAdmit)
	stats RunnerStats     // accessed atomically; read via Stats

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
// Call it before the first Run; it returns the runner for chaining.
func (r *Runner) WithStore(st *sampling.Store) *Runner {
	r.snaps = st
	return r
}

// WithCheckpoint persists every finished run to dir (creating it if
// needed) and answers future runs of the same key from disk. Call it
// before the first Run; it returns the runner for chaining.
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
// first Run; it returns the runner for chaining.
func (r *Runner) WithAdmit(f AdmitFunc) *Runner {
	r.admit = f
	return r
}

// BindContext attaches a campaign-wide context to the runner: every
// subsequent Run/RunAll/figure call observes it in addition to its own
// per-call context. This is how cmd-level signal handling (SIGINT/SIGTERM
// via signal.NotifyContext) reaches runs buried inside figure functions
// that predate context plumbing — cancellation aborts in-flight cells
// while everything already finished stays memoized and checkpointed, so an
// interrupted campaign resumes instead of dying mid-cell. Call it before
// the first Run; it returns the runner for chaining.
func (r *Runner) BindContext(ctx context.Context) *Runner {
	r.base = ctx
	return r
}

// withBase merges the per-call context with the bound campaign context:
// the returned context is done as soon as either is. The stop function
// releases the linkage and must be called when the run finishes.
func (r *Runner) withBase(ctx context.Context) (context.Context, func()) {
	if r.base == nil || r.base == ctx {
		return ctx, func() {}
	}
	merged, cancel := context.WithCancelCause(ctx)
	if err := r.base.Err(); err != nil {
		// The campaign context is already done: the merged context must be
		// born canceled. Relying on AfterFunc alone would cancel it from a
		// freshly spawned goroutine, and a short run can win that race and
		// complete — idle skipping made fast runs fast enough to expose it.
		cancel(err)
		return merged, func() { cancel(nil) }
	}
	release := context.AfterFunc(r.base, func() { cancel(r.base.Err()) })
	return merged, func() { release(); cancel(nil) }
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
	// so it stays out of the key — as do WindowMajor and WindowObserve,
	// which are bit-identical by construction; the sampling geometry
	// changes what is measured and must be part of it.
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

// Run simulates workload wl on cfg (memoized).
func (r *Runner) Run(cfg pipeline.Config, wl string) (pipeline.Result, error) {
	return r.RunContext(context.Background(), cfg, wl)
}

// RunContext simulates workload wl on cfg, answering from the memo cache
// or checkpoint when possible. Failures are typed (see internal/simerr):
// transient ones are retried with exponential backoff up to Options.Retries
// times; panics are recovered into *simerr.PanicError; a per-simulation
// Options.Timeout surfaces as simerr.ErrTimeout.
func (r *Runner) RunContext(ctx context.Context, cfg pipeline.Config, wl string) (pipeline.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, unbind := r.withBase(ctx)
	defer unbind()
	key := cfgKey(cfg, wl, r.opts)
	if res, ok := r.memoLoad(key); ok {
		atomic.AddUint64(&r.stats.MemoHits, 1)
		return res, nil
	}

	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return pipeline.Result{}, RunError{Workload: wl, Config: cfg.Name, Err: ctx.Err()}
	}
	defer func() { <-r.sem }()

	// Re-check: another goroutine may have filled it while we waited.
	if res, ok := r.memoLoad(key); ok {
		atomic.AddUint64(&r.stats.MemoHits, 1)
		return res, nil
	}
	if r.ckpt != nil {
		if res, ok := r.ckpt.load(key); ok {
			atomic.AddUint64(&r.stats.CheckpointHits, 1)
			r.memoStore(key, res)
			return res, nil
		}
	}

	prog, err := workload.Program(wl)
	if err != nil {
		return pipeline.Result{}, err
	}
	var res pipeline.Result
	for attempt := 0; ; attempt++ {
		res, err = r.simulate(ctx, cfg, prog, wl)
		if err == nil {
			break
		}
		if !simerr.IsTransient(err) || attempt >= r.opts.Retries || ctx.Err() != nil {
			atomic.AddUint64(&r.stats.Failures, 1)
			return pipeline.Result{}, RunError{Workload: wl, Config: cfg.Name, Err: err}
		}
		atomic.AddUint64(&r.stats.Retries, 1)
		select {
		case <-time.After(r.opts.RetryBackoff << attempt):
		case <-ctx.Done():
			return pipeline.Result{}, RunError{Workload: wl, Config: cfg.Name, Err: ctx.Err()}
		}
	}
	r.memoStore(key, res)
	if r.ckpt != nil {
		if err := r.ckpt.save(key, wl, cfg.Name, res); err != nil {
			atomic.AddUint64(&r.stats.CheckpointErrors, 1)
		}
	}
	return res, nil
}

// simulate is one attempt at one detailed simulation: the worker body the
// fault-injection harness targets. A panic anywhere below — the timing
// model included — is recovered into a *simerr.PanicError, failing only
// this run.
func (r *Runner) simulate(ctx context.Context, cfg pipeline.Config, prog *isa.Program, wl string) (res pipeline.Result, err error) {
	if r.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.opts.Timeout)
		defer cancel()
	}
	if r.admit != nil {
		release, aerr := r.admit()
		if aerr != nil {
			return pipeline.Result{}, aerr
		}
		// Registered before the recover handler so it runs after it (LIFO)
		// and sees the attempt's final error, panics included.
		defer func() { release(err) }()
	}
	defer func() {
		if v := recover(); v != nil {
			err = &simerr.PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	if faultinject.Fire(faultinject.WorkerTransient, wl) {
		return pipeline.Result{}, simerr.Transient(fmt.Errorf("injected transient worker fault on %s", wl))
	}
	if faultinject.Fire(faultinject.WorkerPanic, wl) {
		panic(fmt.Sprintf("injected worker panic on %s", wl))
	}
	atomic.AddUint64(&r.stats.Simulated, 1)
	if r.opts.Sampled() {
		plan := r.opts.samplingPlan()
		windows, err := r.snaps.Windows(ctx, prog, plan)
		if err != nil {
			return pipeline.Result{}, err
		}
		sres, err := sampling.RunWindows(ctx, cfg, prog, plan, windows)
		if err != nil {
			return pipeline.Result{}, err
		}
		return sres.Merged(), nil
	}
	return pipeline.RunProgramContext(ctx, cfg, prog, r.opts.Warmup, r.opts.Measure)
}

// RunSweep is RunSweepContext with a background context.
func (r *Runner) RunSweep(cfgs []pipeline.Config, wl string) ([]pipeline.Result, error) {
	return r.RunSweepContext(context.Background(), cfgs, wl)
}

// RunSweepContext simulates workload wl across several machine
// configurations as one batch. With Options.WindowMajor on a sampled
// campaign it schedules the batch window-major: the shared store plans (and
// predecodes) the windows once, then each window replays across every
// machine variant while its trace is resident — one Runner.Parallelism slot
// covers the whole sweep, whose internal concurrency is ParallelWindows
// workers over machines. Memoized and checkpointed per cell with the same
// keys as RunContext, so a sweep and individual runs interconvert freely; a
// cell that fails inside the sweep (or the whole batch when window-major
// scheduling does not apply) falls back to RunContext, which carries the
// retry and typed-failure machinery. Results are indexed like cfgs; the
// error, when non-nil, is a *CampaignError listing the failed cells.
func (r *Runner) RunSweepContext(ctx context.Context, cfgs []pipeline.Config, wl string) ([]pipeline.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]pipeline.Result, len(cfgs))
	var failures []RunError

	fallback := func(idxs []int) {
		type out struct {
			i   int
			res pipeline.Result
			err error
		}
		ch := make(chan out, len(idxs))
		for _, i := range idxs {
			i := i
			go func() {
				res, err := r.RunContext(ctx, cfgs[i], wl)
				ch <- out{i, res, err}
			}()
		}
		for range idxs {
			o := <-ch
			if o.err != nil {
				re, ok := o.err.(RunError)
				if !ok {
					re = RunError{Workload: wl, Config: cfgs[o.i].Name, Err: o.err}
				}
				failures = append(failures, re)
				continue
			}
			results[o.i] = o.res
		}
	}

	missing, err := r.sweepBatch(ctx, cfgs, wl, results)
	if err != nil {
		// Batch-level failure (planning, admission): every missing cell
		// shares it, but each still gets an individual attempt below.
	}
	if len(missing) > 0 {
		fallback(missing)
	}
	sort.Slice(failures, func(i, j int) bool { return failures[i].Config < failures[j].Config })
	return results, campaignError(failures)
}

// sweepBatch answers what it can from the memo cache and checkpoint, runs
// the rest window-major under one parallelism slot, and returns the indices
// it could not complete (to be retried cell-by-cell by the caller).
func (r *Runner) sweepBatch(ctx context.Context, cfgs []pipeline.Config, wl string, results []pipeline.Result) ([]int, error) {
	all := make([]int, 0, len(cfgs))
	for i := range cfgs {
		all = append(all, i)
	}
	if !r.opts.Sampled() || !r.opts.WindowMajor || len(cfgs) < 2 {
		return all, nil
	}
	ctx, unbind := r.withBase(ctx)
	defer unbind()

	var missing []int
	for _, i := range all {
		if res, ok := r.memoLoad(cfgKey(cfgs[i], wl, r.opts)); ok {
			atomic.AddUint64(&r.stats.MemoHits, 1)
			results[i] = res
		} else {
			missing = append(missing, i)
		}
	}
	if len(missing) == 0 {
		return nil, nil
	}

	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return missing, ctx.Err()
	}
	defer func() { <-r.sem }()

	// Re-check under the slot: a concurrent run or sweep may have filled
	// cells while we waited, and the checkpoint may hold the rest.
	pending := missing[:0]
	for _, i := range missing {
		key := cfgKey(cfgs[i], wl, r.opts)
		if res, ok := r.memoLoad(key); ok {
			atomic.AddUint64(&r.stats.MemoHits, 1)
			results[i] = res
			continue
		}
		if r.ckpt != nil {
			if res, ok := r.ckpt.load(key); ok {
				atomic.AddUint64(&r.stats.CheckpointHits, 1)
				r.memoStore(key, res)
				results[i] = res
				continue
			}
		}
		pending = append(pending, i)
	}
	if len(pending) == 0 {
		return nil, nil
	}

	// One admission covers the whole batched execution; a refusal fails
	// every pending cell at once (each then gets an individually admitted
	// retry via the caller's fallback, which fails fast the same way).
	var release func(error)
	if r.admit != nil {
		var aerr error
		release, aerr = r.admit()
		if aerr != nil {
			return pending, aerr
		}
	}
	prog, err := workload.Program(wl)
	if err != nil {
		if release != nil {
			release(err)
		}
		return pending, err
	}
	plan := r.opts.samplingPlan()
	windows, err := r.snaps.Windows(ctx, prog, plan)
	if err != nil {
		if release != nil {
			release(err)
		}
		return pending, err
	}
	runCfgs := make([]pipeline.Config, len(pending))
	for k, i := range pending {
		runCfgs[k] = cfgs[i]
	}
	atomic.AddUint64(&r.stats.Simulated, uint64(len(runCfgs)))
	sres, errs := sampling.RunSweep(ctx, runCfgs, prog, plan, windows)
	if release != nil {
		var first error
		for _, e := range errs {
			if e != nil {
				first = e
				break
			}
		}
		release(first)
	}

	var retry []int
	for k, i := range pending {
		if errs[k] != nil {
			retry = append(retry, i)
			continue
		}
		res := sres[k].Merged()
		results[i] = res
		key := cfgKey(cfgs[i], wl, r.opts)
		r.memoStore(key, res)
		if r.ckpt != nil {
			if err := r.ckpt.save(key, wl, cfgs[i].Name, res); err != nil {
				atomic.AddUint64(&r.stats.CheckpointErrors, 1)
			}
		}
	}
	return retry, nil
}

// RunAll simulates every named workload on cfg concurrently and returns
// results keyed by workload name. On failure it returns the successful
// subset alongside a *CampaignError listing what failed.
func (r *Runner) RunAll(cfg pipeline.Config, names []string) (map[string]pipeline.Result, error) {
	return r.RunAllContext(context.Background(), cfg, names)
}

// RunAllContext is RunAll with cancellation: the context aborts runs that
// have not started and cuts short those in flight. The returned map always
// holds every run that completed; the error, when non-nil, is a
// *CampaignError whose Failures list the rest.
func (r *Runner) RunAllContext(ctx context.Context, cfg pipeline.Config, names []string) (map[string]pipeline.Result, error) {
	type out struct {
		name string
		res  pipeline.Result
		err  error
	}
	ch := make(chan out, len(names))
	for _, name := range names {
		name := name
		go func() {
			res, err := r.RunContext(ctx, cfg, name)
			ch <- out{name, res, err}
		}()
	}
	results := make(map[string]pipeline.Result, len(names))
	var failures []RunError
	for range names {
		o := <-ch
		if o.err != nil {
			// RunContext already returns typed RunErrors; keep them as-is
			// so the report carries each failure's context exactly once.
			re, ok := o.err.(RunError)
			if !ok {
				re = RunError{Workload: o.name, Config: cfg.Name, Err: o.err}
			}
			failures = append(failures, re)
			continue
		}
		results[o.name] = o.res
	}
	return results, campaignError(failures)
}

// Classification splits the suite by measured base-machine branch MPKI.
type Classification struct {
	DBP  []string // branch MPKI > 3.0, sorted by name
	EBP  []string
	Base map[string]pipeline.Result // base-machine results for every program
}

// Classify runs the base machine over the whole suite and applies the
// paper's D-BP threshold.
func (r *Runner) Classify() (Classification, error) {
	base, err := r.RunAll(pipeline.BaseConfig(), workload.Names())
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

// ipcGM returns the geometric-mean IPC ratio (as a percentage increase) —
// used by the Fig. 15/16 IPC comparisons, identical math to speedupGM but
// named for what the paper plots.
func ipcGM(names []string, base, next map[string]pipeline.Result) float64 {
	return speedupGM(names, base, next)
}
