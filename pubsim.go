// Package pubsim is a cycle-level out-of-order processor simulator
// reproducing the PUBS scheme from:
//
//	Hideki Ando, "Performance Improvement by Prioritizing the Issue of the
//	Instructions in Unconfident Branch Slices", MICRO 2018.
//
// PUBS reduces the branch *misspeculation penalty* — the cycles a
// mispredicted branch spends between fetch and the end of its execution —
// by issuing the instructions in unconfident branch slices with the highest
// priority from the issue queue. The scheme links every instruction to the
// prediction-confidence counter of the branch that depends on it
// (def_tab → brslice_tab → conf_tab), reserves a few entries at the head of
// the issue queue for unconfident-slice instructions, and switches itself
// off in memory-bound phases where issue-queue capacity matters more.
//
// The package exposes:
//
//   - machine configuration (BaseConfig, PUBSConfig, ScaledConfig) matching
//     the paper's Table I / Table II / Table IV,
//   - a benchmark suite (Workloads) standing in for SPEC CPU2006 (see
//     DESIGN.md for the substitution argument),
//   - single simulations (Run, RunProgram) and the full experiment harness
//     (NewRunner + the Experiments catalogue) regenerating every table and
//     figure in the paper's evaluation,
//   - a program builder (NewProgram) for writing custom workloads against
//     the simulated ISA.
//
// Quick start:
//
//	ctx := context.Background()
//	base, _ := pubsim.Run(ctx, pubsim.BaseConfig(), "chess", 300_000, 1_000_000)
//	pubs, _ := pubsim.Run(ctx, pubsim.PUBSConfig(), "chess", 300_000, 1_000_000)
//	fmt.Printf("speedup: %+.2f%%\n", pubsim.Speedup(base.IPC(), pubs.IPC()))
package pubsim

import (
	"context"
	"io"

	"repro/internal/asm"
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/iq"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/sampling"
	"repro/internal/service"
	"repro/internal/simerr"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Re-exported configuration and result types. These are aliases, so the
// full method sets of the underlying implementations are available.
type (
	// Config describes a simulated processor (paper Table I).
	Config = pipeline.Config
	// Result holds one run's measurement-window statistics.
	Result = pipeline.Result
	// PUBSParams holds the PUBS scheme's parameters (paper Table II).
	PUBSParams = core.Config
	// PredictorConfig selects and sizes a branch direction predictor.
	PredictorConfig = bpred.Config
	// CacheConfig sizes one cache level.
	CacheConfig = cache.Config
	// Size selects one of the Fig. 16 processor models.
	Size = pipeline.Size
	// IQKind selects the issue-queue organisation (§III-B1 taxonomy).
	IQKind = iq.Kind
	// Program is an executable for the simulated ISA.
	Program = isa.Program
	// Builder assembles custom programs.
	Builder = asm.Builder
	// Reg names a logical register (R(0..31) integer, F(0..31) FP).
	Reg = isa.Reg
	// Options controls experiment windows, parallelism, and failure
	// handling (per-simulation timeout, transient-failure retries).
	Options = experiments.Options
	// Runner executes memoized experiment simulations; WithCheckpoint makes
	// campaigns resumable across process restarts.
	Runner = experiments.Runner
	// RunnerStats counts simulations run vs answered from cache/checkpoint.
	RunnerStats = experiments.RunnerStats
	// SkipTelemetry reports idle-skip efficacy: null spans skipped and the
	// cycles they covered (DESIGN.md §14). Deliberately not part of
	// Result — scheduling telemetry never enters the bit-identity surface.
	SkipTelemetry = pipeline.SkipTelemetry
	// Probe collects what the runs under one context report outside their
	// Results — their idle-skip totals (SkipTelemetry) and each sampled
	// window's wall-clock time (Window) — and never changes a Result.
	Probe = pipeline.Probe
	// Table renders aligned text tables.
	Table = stats.Table
)

// Failure taxonomy: every simulator and campaign error wraps exactly one of
// these sentinels, so callers classify failures with errors.Is.
var (
	// ErrInvalidConfig marks a structurally impossible configuration.
	ErrInvalidConfig = simerr.ErrInvalidConfig
	// ErrDeadlock marks a run the liveness watchdog stopped (no commit for
	// Config.WatchdogCycles cycles); errors.As to *DeadlockError for the dump.
	ErrDeadlock = simerr.ErrDeadlock
	// ErrTimeout marks a run cut off by its context deadline.
	ErrTimeout = simerr.ErrTimeout
	// ErrInvariant marks a failed structural invariant check (Config.Checks).
	ErrInvariant = simerr.ErrInvariant
	// ErrPanic marks a recovered worker panic (errors.As to *PanicError).
	ErrPanic = simerr.ErrPanic
)

// Typed failure reports.
type (
	// DeadlockError carries the watchdog's diagnosis: IQ/ROB/LSQ occupancy
	// and the oldest stalled instruction at the time commit stopped.
	DeadlockError = pipeline.DeadlockError
	// PanicError preserves a recovered worker panic's value and stack.
	PanicError = simerr.PanicError
	// RunError is one failed simulation inside a campaign.
	RunError = experiments.RunError
	// CampaignError aggregates a campaign's failed runs; the successful
	// subset is still returned alongside it.
	CampaignError = experiments.CampaignError
)

// DefaultWatchdogCycles is the liveness watchdog's default no-commit budget.
const DefaultWatchdogCycles = pipeline.DefaultWatchdogCycles

// Issue-queue organisations.
const (
	IQRandom   = iq.Random
	IQShifting = iq.Shifting
	IQCircular = iq.Circular
)

// Processor sizes (Fig. 16 / Table IV).
const (
	Small  = pipeline.Small
	Medium = pipeline.Medium
	Large  = pipeline.Large
	Huge   = pipeline.Huge
)

// AgeMatrixDelayFactor is the paper's measured 13% IQ-delay increase from
// an age matrix, applied to the clock in the Fig. 15b comparison.
const AgeMatrixDelayFactor = iq.AgeMatrixDelayFactor

// BaseConfig returns the paper's base processor (Table I), PUBS disabled.
func BaseConfig() Config { return pipeline.BaseConfig() }

// PUBSConfig returns the base processor with the default PUBS parameters
// (Table II): 6 priority entries, stall dispatch policy, 6-bit resetting
// counters, hashed-tag tables, mode switching at 1.0 LLC MPKI.
func PUBSConfig() Config { return pipeline.PUBSConfig() }

// DefaultPUBS returns the default PUBS parameters for embedding in a
// custom Config.
func DefaultPUBS() PUBSParams { return core.DefaultConfig() }

// ScaledConfig returns the base machine scaled to a Fig. 16 model.
func ScaledConfig(s Size) Config { return pipeline.ScaledConfig(s) }

// Sizes lists the four processor models in ascending order.
func Sizes() []Size { return pipeline.Sizes() }

// PUBSCostKB returns the hardware cost in KB of a PUBS parameter set
// (Table III; ≈4.1 KB for the defaults).
func PUBSCostKB(p PUBSParams) float64 { return core.Cost(p).TotalKB() }

// Workloads returns the names of the built-in benchmark suite, sorted.
func Workloads() []string { return workload.Names() }

// WorkloadProgram returns the built program for a named benchmark.
func WorkloadProgram(name string) (*Program, error) { return workload.Program(name) }

// Run simulates a named benchmark on cfg: `warmup` instructions to warm the
// predictors, caches, and PUBS tables (counters are then reset), followed
// by `measure` measured instructions. The context is polled inside the
// cycle loop, so a cancelled or expired context stops the simulation
// within ~1K cycles (deadline expiry surfaces as ErrTimeout).
func Run(ctx context.Context, cfg Config, workloadName string, warmup, measure uint64) (Result, error) {
	prog, err := workload.Program(workloadName)
	if err != nil {
		return Result{}, err
	}
	return pipeline.RunProgramContext(ctx, cfg, prog, warmup, measure)
}

// RunProgram simulates a custom program (built with NewProgram) on cfg.
func RunProgram(ctx context.Context, cfg Config, prog *Program, warmup, measure uint64) (Result, error) {
	return pipeline.RunProgramContext(ctx, cfg, prog, warmup, measure)
}

// RunWithPipeTrace is Run plus a stage-by-stage log of the first maxInsts
// committed instructions (fetch/dispatch/issue/execute/commit cycles and
// PUBS flags), written to w.
func RunWithPipeTrace(ctx context.Context, cfg Config, workloadName string, warmup, measure uint64, w io.Writer, maxInsts int64) (Result, error) {
	prog, err := workload.Program(workloadName)
	if err != nil {
		return Result{}, err
	}
	sim, err := pipeline.New(cfg)
	if err != nil {
		return Result{}, err
	}
	sim.SetPipeTrace(w, maxInsts)
	m, err := emu.New(prog)
	if err != nil {
		return Result{}, err
	}
	return sim.RunContext(ctx, pipeline.Stream{M: m}, warmup, measure)
}

// Emulate runs a program functionally (no timing) for up to max
// instructions and returns the number executed — useful for validating
// custom workloads.
func Emulate(prog *Program, max uint64) (uint64, error) {
	m, err := emu.New(prog)
	if err != nil {
		return 0, err
	}
	return m.Run(max), nil
}

// NewProgram returns a builder for a custom workload program.
func NewProgram(name string) *Builder { return asm.New(name) }

// R returns the i-th integer register (R(0) is hardwired zero, R(1) is the
// link register).
func R(i int) Reg { return isa.R(i) }

// F returns the i-th floating-point register.
func F(i int) Reg { return isa.F(i) }

// RZero is the hardwired zero register.
const RZero = isa.RZero

// Speedup converts an IPC pair into a percentage speedup.
func Speedup(baseIPC, newIPC float64) float64 { return stats.Speedup(baseIPC, newIPC) }

// Geomean returns the geometric mean of positive values.
func Geomean(xs []float64) float64 { return stats.Geomean(xs) }

// --- experiment harness ---

// DefaultOptions returns the full-size experiment windows.
func DefaultOptions() Options { return experiments.DefaultOptions() }

// QuickOptions returns reduced windows for smoke tests and benchmarks.
func QuickOptions() Options { return experiments.QuickOptions() }

// NewRunner builds a memoizing experiment runner.
func NewRunner(o Options) *Runner { return experiments.NewRunner(o) }

// Experiment is one table, figure or study of the paper's evaluation: its
// cmd/experiments id, its title, and Run, which returns a report with
// Table() and Chart() renderers. A run that lost some simulations returns
// the partial report alongside a *CampaignError.
type Experiment = experiments.Experiment

// Experiments lists every experiment once — the paper's Figs. 8–16 and
// Table III, the workload characterisation, the ablations and the
// extensions — in cmd/experiments' order.
func Experiments() []Experiment { return experiments.Experiments() }

// --- campaign grids ---

// Campaign grid types shared with cmd/pubsd: each finished Cell is a
// CellResult addressed by the same content key the checkpoint store uses.
type (
	// Cell is one (configuration, workload) point of a campaign grid.
	Cell = experiments.Cell
	// CellResult is the wire schema shared by pubsd and `pubsim -json`.
	CellResult = service.CellResult
)

// MachineSpec names a machine (base, pubs, age, pubs+age,
// {base,pubs}-{small,medium,large,huge}) plus optional PUBS overrides;
// Config() resolves it, folding each override into the machine's name. One
// scheme shared by cmd/pubsim, cmd/pubsd and CampaignSpec, so equal specs
// give equal content keys.
type MachineSpec = service.MachineSpec

// NewCellResult assembles the shared wire record for a finished cell.
func NewCellResult(cell Cell, o Options, res Result) CellResult {
	return service.NewCellResult(cell, o, res)
}

// WithProgress returns a context that delivers in-simulation progress
// callbacks: fn is invoked (on the simulation goroutine) roughly every
// `every` committed instructions by any run under the returned context. Progress observation never changes simulation results.
func WithProgress(ctx context.Context, every uint64, fn func(committed uint64)) context.Context {
	return pipeline.WithProgress(ctx, every, fn)
}

// WithProbe returns a context whose runs report to p.
func WithProbe(ctx context.Context, p *Probe) context.Context { return pipeline.WithProbe(ctx, p) }

// --- sampled simulation ---

// SamplingPlan describes SMARTS-style sampled simulation: fast-forward
// functionally between measurement windows, detailed-warm each window.
// Plan.Parallel > 1 runs windows concurrently (negative = GOMAXPROCS);
// results are bit-identical to the serial path either way.
type SamplingPlan = sampling.Config

// SampledResult aggregates per-window measurements. Merged() folds it into
// one Result with the window counters summed.
type SampledResult = sampling.Result

// SamplingStore is a content-addressed, singleflight-deduplicated cache of
// placed windows: every machine variant of a sweep shares one functional
// fast-forward pass — and one set of predecoded traces — per (workload,
// plan geometry).
type SamplingStore = sampling.Store

// NewSamplingStoreBudget returns a shared-window store bounded to roughly
// maxBytes of resident snapshot + predecode data, evicting whole plans
// LRU-first; in-flight plans are never evicted (maxBytes <= 0 = unbounded).
func NewSamplingStoreBudget(maxBytes int64) *SamplingStore {
	return sampling.NewStoreBudget(maxBytes)
}

// RunSampled executes a sampling plan over a named benchmark. The context
// is checked between windows and inside each window's detailed simulation;
// on error the windows completed so far are returned alongside it.
func RunSampled(ctx context.Context, cfg Config, workloadName string, plan SamplingPlan) (SampledResult, error) {
	prog, err := workload.Program(workloadName)
	if err != nil {
		return SampledResult{}, err
	}
	return sampling.Run(ctx, cfg, prog, plan)
}

// --- energy model ---

// Energy model types (activity-based, relative comparisons only).
type (
	EnergyConstants = energy.Constants
	EnergyReport    = energy.Report
	EnergyCompare   = energy.Compare
)

// DefaultEnergy returns the representative per-event energy constants.
func DefaultEnergy() EnergyConstants { return energy.Defaults() }

// EstimateEnergy computes the activity-model energy report for a run.
func EstimateEnergy(cfg Config, res Result, c EnergyConstants) EnergyReport {
	return energy.Estimate(cfg, res, c)
}
