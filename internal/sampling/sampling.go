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
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
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

	// Parallel is the number of detailed windows simulated concurrently
	// (see RunSweep). 0 or 1 runs them serially on the calling goroutine; a
	// negative value means one worker per processor (runtime.GOMAXPROCS).
	// Window placement is purely functional and fixed up front, so Parallel
	// never changes the Result — only how fast it is computed. It is
	// deliberately excluded from plan keys (see Store) for the same reason.
	Parallel int
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
	return math.Sqrt(ss / float64(len(r.Windows)-1))
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
// microarchitecture, mitigated by the per-window detailed warm-up). The
// context is checked between windows and plumbed into each window's
// detailed simulation, so a cancelled campaign stops mid-window. On error
// the windows completed so far are returned alongside it. A progress hook
// installed with pipeline.WithProgress flows into every window: the
// reported counts are per-window (each window is a fresh timing model), so
// streaming consumers see them restart at each window boundary — and
// arrive concurrently when plan.Parallel > 1.
func Run(ctx context.Context, cfg pipeline.Config, prog *isa.Program, plan Config) (Result, error) {
	if err := plan.Validate(); err != nil {
		return Result{}, err
	}
	windows, err := PlanWindows(ctx, prog, plan)
	if err != nil {
		return Result{}, err
	}
	outs, errs := RunSweep(ctx, []pipeline.Config{cfg}, prog, plan, windows)
	return outs[0], errs[0]
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

// mergeWindows folds per-window results in window order with the serial
// path's truncation semantics: the first failed window returns the
// completed prefix alongside the error, and the first empty window (the
// program ended inside it) ends the plan. Completion order therefore never
// reaches the Result.
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

// RunSweep executes pre-placed windows across several machine
// configurations. It is the one window scheduler: (window, machine) tasks
// are handed out window-major — each window replays across every machine
// over the shared immutable payload (snapshot + predecode buffer) while its
// trace is hot — to plan.Parallel workers, or run as a plain loop on the
// calling goroutine when Parallel is 0 or 1. Each machine keeps a free list
// of simulators reused across windows (Reset between runs is bit-identical
// to fresh construction; profiled configs get a fresh Sim per window, since
// their results alias the simulator's profile), and takes no later windows
// after its first error or empty window. The returned slices are indexed
// like cfgs; each entry is what a serial window-by-window run of that
// configuration alone produces, whatever the worker count. The Window
// observer of the context's probe (pipeline.WithProbe), when set, receives
// each replayed window's wall-clock time.
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

	sd := emu.NewStaticDecode(prog.Code)
	results := make([][]pipeline.Result, n)
	errs := make([][]error, n)
	for mi := range cfgs {
		results[mi] = make([]pipeline.Result, len(windows))
		errs[mi] = make([]error, len(windows))
	}
	var mu sync.Mutex
	// stop is each machine's first failed or empty window: later windows
	// cannot reach its merged result. Only later ones are skipped, so every
	// window the merge reads has run even when a later one finished first.
	stop := make([]int, n)
	for mi := range stop {
		stop[mi] = len(windows)
	}
	free := make([][]*pipeline.Sim, n) // idle simulators per machine
	probe := pipeline.ProbeFrom(ctx)

	task := func(t int) {
		wi, mi := t/n, t%n
		mu.Lock()
		if wi > stop[mi] {
			mu.Unlock()
			return
		}
		var sim *pipeline.Sim
		if k := len(free[mi]); k > 0 {
			sim, free[mi] = free[mi][k-1], free[mi][:k-1]
		}
		mu.Unlock()

		var r pipeline.Result
		err := ctx.Err()
		if err == nil {
			t0 := time.Now()
			r, sim, err = replayWindow(ctx, cfgs[mi], prog, plan, sd, sim, windows[wi])
			if probe != nil && probe.Window != nil {
				probe.Window(time.Since(t0))
			}
		}

		mu.Lock()
		results[mi][wi], errs[mi][wi] = r, err
		if (err != nil || r.Committed == 0) && wi < stop[mi] {
			stop[mi] = wi
		}
		if sim != nil && err == nil && !cfgs[mi].Profile {
			free[mi] = append(free[mi], sim)
		}
		mu.Unlock()
	}

	tasks := len(windows) * n
	if workers := plan.workers(tasks); workers <= 1 {
		for t := 0; t < tasks; t++ {
			task(t)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		var once sync.Once
		var panicked *simerr.PanicError
		wg.Add(workers)
		for k := 0; k < workers; k++ {
			go func() {
				defer wg.Done()
				defer func() {
					if v := recover(); v != nil {
						// The stack is taken here, where it still shows the
						// frame that panicked; the batch has failed, so no
						// worker starts another task.
						once.Do(func() { panicked = &simerr.PanicError{Value: v, Stack: debug.Stack()} })
						next.Store(int64(tasks))
					}
				}()
				for t := int(next.Add(1) - 1); t < tasks; t = int(next.Add(1) - 1) {
					task(t)
				}
			}()
		}
		wg.Wait()
		if panicked != nil {
			// Re-raised on the caller's goroutine, where its recover (the
			// experiment runner's) can see it; on a worker it would end the
			// process.
			panic(panicked)
		}
	}

	for mi := range cfgs {
		outs[mi], errsOut[mi] = mergeWindows(windows, results[mi], errs[mi])
	}
	return outs, errsOut
}

// replayWindow runs one window on cfg. A traced window feeds the recorded
// predecode buffer to the simulator's trace front end on sim (nil builds a
// fresh one, anything else is Reset first) and returns the simulator for
// reuse; a window without a trace takes the fresh-everything runWindow path.
func replayWindow(ctx context.Context, cfg pipeline.Config, prog *isa.Program, plan Config, sd *emu.StaticDecode, sim *pipeline.Sim, w Window) (pipeline.Result, *pipeline.Sim, error) {
	if w.Pre == nil {
		res, err := runWindow(ctx, cfg, prog, plan, w)
		return res, sim, err
	}
	if sim == nil {
		var err error
		if sim, err = pipeline.New(cfg); err != nil {
			return pipeline.Result{}, nil, err
		}
	} else {
		sim.Reset()
	}
	sim.SetStaticCode(prog.Code)
	rp := &pipeline.Replay{
		Pre:    w.Pre,
		Decode: sd,
		Fallback: func() (pipeline.InstStream, error) {
			// Fetch overran the recorded slack (pathologically deep front
			// end): continue on a live machine positioned at the first
			// unrecorded instruction.
			m, err := emu.NewFromSnapshot(prog, w.Snap)
			if err != nil {
				return nil, err
			}
			m.Run(uint64(w.Pre.Len()))
			return pipeline.Stream{M: m}, nil
		},
	}
	res, err := sim.RunContext(ctx, rp, plan.Warmup, plan.Measure)
	return res, sim, err
}

// workers resolves plan.Parallel against the task count.
func (c Config) workers(tasks int) int {
	w := c.Parallel
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > tasks {
		w = tasks
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
