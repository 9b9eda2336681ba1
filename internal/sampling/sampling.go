// Package sampling implements SMARTS-style sampled simulation: the
// functional emulator fast-forwards between measurement windows (tens of
// millions of instructions per second), and the detailed timing model runs
// only inside each window after a short detailed warm-up. The paper
// simulates one contiguous 100M window after a 16B skip; sampling gives the
// same kind of coverage at a fraction of the cost and is the standard way
// to extend this simulator to much longer workloads.
package sampling

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/simerr"
	"repro/internal/stats"
)

// Config describes a sampling plan.
type Config struct {
	Windows     int    // number of measurement windows
	FastForward uint64 // functionally emulated instructions between windows
	Warmup      uint64 // detailed (timed, uncounted) instructions per window
	Measure     uint64 // measured instructions per window

	// Parallel is the number of windows simulated concurrently. 0 or 1 runs
	// the serial reference path; a negative value means one worker per
	// processor (runtime.GOMAXPROCS). Window placement is purely functional
	// and shared between the serial and parallel paths, so Parallel never
	// changes the Result — only how fast it is computed. It is deliberately
	// excluded from plan keys (see Store) for the same reason.
	Parallel int

	// Observe, when set, receives the wall-clock duration of each detailed
	// window run (the service exports these as a replay-latency histogram).
	// Like Parallel it cannot change results and is excluded from plan keys.
	Observe func(time.Duration)
}

// DefaultPlan samples 8 windows of 100K measured instructions, each after a
// 50K detailed warm-up, separated by 1M fast-forwarded instructions.
func DefaultPlan() Config {
	return Config{Windows: 8, FastForward: 1_000_000, Warmup: 50_000, Measure: 100_000}
}

// Validate checks the plan. Rejections wrap simerr.ErrInvalidConfig.
func (c Config) Validate() error {
	if c.Windows <= 0 {
		return fmt.Errorf("%w: sampling: need at least one window", simerr.ErrInvalidConfig)
	}
	if c.Measure == 0 {
		return fmt.Errorf("%w: sampling: measurement window must be positive", simerr.ErrInvalidConfig)
	}
	return nil
}

// WindowResult is one window's measurement.
type WindowResult struct {
	StartInst uint64 // instruction count at the start of the window's warm-up
	Result    pipeline.Result
}

// Result aggregates the windows.
type Result struct {
	Windows []WindowResult
	// Aggregate counters: total measured instructions over total cycles
	// (per-instruction weighting, the SMARTS estimator).
	Committed uint64
	Cycles    int64
}

// IPC returns the aggregate instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Committed) / float64(r.Cycles)
}

// BranchMPKI aggregates conditional-branch mispredictions per kilo-inst.
func (r Result) BranchMPKI() float64 {
	var m uint64
	for _, w := range r.Windows {
		m += w.Result.Mispredicts
	}
	if r.Committed == 0 {
		return 0
	}
	return float64(m) / float64(r.Committed) * 1000
}

// IPCStdev returns the per-window IPC standard deviation — the phase
// variability the sample observed.
func (r Result) IPCStdev() float64 {
	if len(r.Windows) < 2 {
		return 0
	}
	var sum float64
	for _, w := range r.Windows {
		sum += w.Result.IPC()
	}
	mean := sum / float64(len(r.Windows))
	var ss float64
	for _, w := range r.Windows {
		d := w.Result.IPC() - mean
		ss += d * d
	}
	return sqrt(ss / float64(len(r.Windows)-1))
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// Merged folds the per-window measurements into one pipeline.Result with
// the window counters summed — the form the experiment Runner memoizes,
// checkpoints, and serves through the service API for sampled cells. Every
// counter is a plain sum (stats.Sim.Add, cache.Stats.Add), so merging is
// order-independent and the aggregate IPC equals the SMARTS per-instruction
// estimator: total committed over total cycles. Profile-only fields
// (IQOccupancy, TopBranches) are per-window artifacts and stay unset.
func (r Result) Merged() pipeline.Result {
	var out pipeline.Result
	for i, w := range r.Windows {
		if i == 0 {
			out.Name = w.Result.Name
		}
		out.Sim.Add(w.Result.Sim)
		out.Measured += w.Result.Measured
		out.L1I.Add(w.Result.L1I)
		out.L1D.Add(w.Result.L1D)
		out.L2.Add(w.Result.L2)
	}
	return out
}

// Run executes the sampling plan: the functional emulator advances through
// the program placing windows, and each window gets a fresh machine
// (restored from the window's snapshot) and a fresh timing model (cold
// microarchitecture, mitigated by the per-window detailed warm-up).
func Run(cfg pipeline.Config, prog *isa.Program, plan Config) (Result, error) {
	return RunContext(context.Background(), cfg, prog, plan)
}

// RunContext is Run with cancellation and deadline support: the context is
// checked between windows and plumbed into each window's detailed
// simulation, so a cancelled campaign stops mid-window. On error the
// windows completed so far are returned alongside it. A progress hook
// installed with pipeline.WithProgress flows into every window: the
// reported counts are per-window (each window is a fresh timing model), so
// streaming consumers see them restart at each window boundary — and
// arrive concurrently when plan.Parallel > 1.
func RunContext(ctx context.Context, cfg pipeline.Config, prog *isa.Program, plan Config) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := plan.Validate(); err != nil {
		return Result{}, err
	}
	windows, err := PlanWindows(ctx, prog, plan)
	if err != nil {
		return Result{}, err
	}
	return RunWindows(ctx, cfg, prog, plan, windows)
}

// runWindow executes one detailed window without a trace: a fresh machine
// restored from the window's snapshot feeding a fresh timing model. It
// serves peer plans sent without traces, and tests use it as the reference
// the trace path must match bit for bit.
func runWindow(ctx context.Context, cfg pipeline.Config, prog *isa.Program, plan Config, w Window) (pipeline.Result, error) {
	m, err := emu.NewFromSnapshot(prog, w.Snap)
	if err != nil {
		return pipeline.Result{}, err
	}
	sim, err := pipeline.New(cfg)
	if err != nil {
		return pipeline.Result{}, err
	}
	sim.SetStaticCode(prog.Code)
	return sim.RunContext(ctx, pipeline.Stream{M: m}, plan.Warmup, plan.Measure)
}

// windowRunner executes windows for one machine configuration. It feeds
// the recorded predecode buffer to the simulator's trace front end and
// keeps one pooled simulator alive across windows (Reset between runs —
// bit-identical to fresh construction, but construction is paid once per
// sweep instead of once per window). A window without a trace falls back
// to the fresh-everything runWindow path. Not safe for concurrent use; the
// worker-pool paths build one runner per worker.
type windowRunner struct {
	cfg  pipeline.Config
	prog *isa.Program
	plan Config
	sd   *emu.StaticDecode
	sim  *pipeline.Sim // pooled; nil until the first trace window
}

func newWindowRunner(cfg pipeline.Config, prog *isa.Program, plan Config) *windowRunner {
	return &windowRunner{cfg: cfg, prog: prog, plan: plan, sd: emu.NewStaticDecode(prog.Code)}
}

func (wr *windowRunner) run(ctx context.Context, w Window) (pipeline.Result, error) {
	if wr.plan.Observe == nil {
		return wr.runWindow(ctx, w)
	}
	t0 := time.Now()
	res, err := wr.runWindow(ctx, w)
	wr.plan.Observe(time.Since(t0))
	return res, err
}

func (wr *windowRunner) runWindow(ctx context.Context, w Window) (pipeline.Result, error) {
	if w.Pre == nil {
		return runWindow(ctx, wr.cfg, wr.prog, wr.plan, w)
	}
	sim := wr.sim
	if sim == nil {
		var err error
		sim, err = pipeline.New(wr.cfg)
		if err != nil {
			return pipeline.Result{}, err
		}
		if !wr.cfg.Profile {
			// Profile runs return live pointers to the simulator's occupancy
			// histogram and branch profile; pooling would alias them across
			// window results, so profiled windows keep a fresh Sim each.
			wr.sim = sim
		}
	} else {
		sim.Reset()
	}
	sim.SetStaticCode(wr.prog.Code)
	pre, snap := w.Pre, w.Snap
	rp := &pipeline.Replay{
		Pre:    pre,
		Decode: wr.sd,
		Fallback: func() (pipeline.InstStream, error) {
			// Fetch overran the recorded slack (pathologically deep
			// front end): continue on a live machine positioned at the
			// first unrecorded instruction.
			m, err := emu.NewFromSnapshot(wr.prog, snap)
			if err != nil {
				return nil, err
			}
			m.Run(uint64(pre.Len()))
			return pipeline.Stream{M: m}, nil
		},
	}
	return sim.RunContext(ctx, rp, wr.plan.Warmup, wr.plan.Measure)
}

// RunWindows executes pre-placed windows (from PlanWindows or a shared
// Store) against one machine configuration and merges the per-window
// accumulators in window order. With plan.Parallel > 1 the windows run on
// a worker pool; because placement is fixed up front and the merge only
// sums counters indexed by window, the Result is bit-identical to the
// serial path regardless of completion order.
func RunWindows(ctx context.Context, cfg pipeline.Config, prog *isa.Program, plan Config, windows []Window) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := plan.Validate(); err != nil {
		return Result{}, err
	}
	if len(windows) == 0 {
		return Result{}, fmt.Errorf("sampling: program ended before any window completed")
	}

	results := make([]pipeline.Result, len(windows))
	errs := make([]error, len(windows))
	if workers := plan.workers(len(windows)); workers <= 1 {
		wr := newWindowRunner(cfg, prog, plan)
		for i, w := range windows {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				break
			}
			results[i], errs[i] = wr.run(ctx, w)
			if errs[i] != nil {
				break
			}
			if results[i].Committed == 0 {
				break // program ended inside this window; later ones are unreachable
			}
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for k := 0; k < workers; k++ {
			go func() {
				defer wg.Done()
				wr := newWindowRunner(cfg, prog, plan)
				for i := range jobs {
					if err := ctx.Err(); err != nil {
						errs[i] = err
						continue
					}
					results[i], errs[i] = wr.run(ctx, windows[i])
				}
			}()
		}
		for i := range windows {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}
	return mergeWindows(windows, results, errs)
}

// mergeWindows folds per-window results in window order with the serial
// path's truncation semantics: the first failed window returns the
// completed prefix alongside the error, and the first empty window (the
// program ended inside it) ends the plan. Shared by RunWindows and
// RunSweep so the two schedulers cannot drift.
func mergeWindows(windows []Window, results []pipeline.Result, errs []error) (Result, error) {
	var out Result
	for i, w := range windows {
		if errs[i] != nil {
			return out, fmt.Errorf("sampling: window %d: %w", w.Index, errs[i])
		}
		if results[i].Committed == 0 {
			break
		}
		out.Windows = append(out.Windows, WindowResult{StartInst: w.StartInst, Result: results[i]})
		out.Committed += results[i].Committed
		out.Cycles += results[i].Cycles
	}
	if len(out.Windows) == 0 {
		return Result{}, fmt.Errorf("sampling: program ended before any window completed")
	}
	return out, nil
}

// RunSweep executes pre-placed windows window-major across several machine
// configurations: the scheduler walks the windows in order and, for each
// one, replays every machine variant over the shared immutable window
// payload (snapshot + predecode buffer) before moving on — so a window's
// trace is touched while it is hot instead of once per machine at arbitrary
// times. Machines run concurrently on plan.workers(len(cfgs)) workers, and
// each machine keeps one persistent simulator across all windows. The
// returned slices are indexed like cfgs; each entry is bit-identical to
// calling RunWindows with that configuration alone.
func RunSweep(ctx context.Context, cfgs []pipeline.Config, prog *isa.Program, plan Config, windows []Window) ([]Result, []error) {
	n := len(cfgs)
	outs := make([]Result, n)
	errsOut := make([]error, n)
	if n == 0 {
		return outs, errsOut
	}
	fail := func(err error) ([]Result, []error) {
		for i := range errsOut {
			errsOut[i] = err
		}
		return outs, errsOut
	}
	if err := plan.Validate(); err != nil {
		return fail(err)
	}
	if len(windows) == 0 {
		return fail(fmt.Errorf("sampling: program ended before any window completed"))
	}
	if ctx == nil {
		ctx = context.Background()
	}

	runners := make([]*windowRunner, n)
	results := make([][]pipeline.Result, n)
	errs := make([][]error, n)
	for i, cfg := range cfgs {
		runners[i] = newWindowRunner(cfg, prog, plan)
		results[i] = make([]pipeline.Result, len(windows))
		errs[i] = make([]error, len(windows))
	}
	// stopped marks machines whose plan already truncated (error or empty
	// window): later windows cannot contribute to their merged result.
	stopped := make([]bool, n)

	runOne := func(mi, wi int) {
		if err := ctx.Err(); err != nil {
			errs[mi][wi] = err
			stopped[mi] = true
			return
		}
		results[mi][wi], errs[mi][wi] = runners[mi].run(ctx, windows[wi])
		if errs[mi][wi] != nil || results[mi][wi].Committed == 0 {
			stopped[mi] = true
		}
	}

	workers := plan.workers(n)
	for wi := range windows {
		if workers <= 1 {
			for mi := 0; mi < n; mi++ {
				if !stopped[mi] {
					runOne(mi, wi)
				}
			}
			continue
		}
		jobs := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for k := 0; k < workers; k++ {
			go func() {
				defer wg.Done()
				for mi := range jobs {
					runOne(mi, wi)
				}
			}()
		}
		for mi := 0; mi < n; mi++ {
			if !stopped[mi] {
				jobs <- mi
			}
		}
		close(jobs)
		wg.Wait() // window barrier: the next window starts only when all machines finish this one
	}

	for mi := range cfgs {
		outs[mi], errsOut[mi] = mergeWindows(windows, results[mi], errs[mi])
	}
	return outs, errsOut
}

// workers resolves plan.Parallel against the window count.
func (c Config) workers(windows int) int {
	w := c.Parallel
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > windows {
		w = windows
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Table renders the per-window and aggregate results.
func (r Result) Table() string {
	t := stats.NewTable("Sampled simulation", "window", "start-inst", "IPC", "brMPKI")
	for i, w := range r.Windows {
		t.Row(i, w.StartInst, w.Result.IPC(), w.Result.BranchMPKI())
	}
	return t.String() + fmt.Sprintf("aggregate IPC %.4f (per-window stdev %.4f) over %d instructions\n",
		r.IPC(), r.IPCStdev(), r.Committed)
}
