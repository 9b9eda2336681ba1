package sampling

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/simerr"
	"repro/internal/workload"
)

// sweepOne runs pre-placed windows against one machine: RunSweep over a
// one-config sweep.
func sweepOne(ctx context.Context, cfg pipeline.Config, prog *isa.Program, plan Config, windows []Window) (Result, error) {
	outs, errs := RunSweep(ctx, []pipeline.Config{cfg}, prog, plan, windows)
	return outs[0], errs[0]
}

func TestPlanValidation(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Error("zero plan accepted")
	}
	if err := (Config{Windows: 2}).Validate(); err == nil {
		t.Error("zero measure accepted")
	}
	if err := DefaultPlan().Validate(); err != nil {
		t.Error(err)
	}
}

func TestSampledRunProducesWindows(t *testing.T) {
	ctx := context.Background()
	plan := Config{Windows: 4, FastForward: 50_000, Warmup: 10_000, Measure: 20_000}
	res, err := Run(ctx, pipeline.BaseConfig(), workload.MustProgram("parser"), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 4 {
		t.Fatalf("windows = %d", len(res.Windows))
	}
	// Window boundaries land on commit-group edges, so each window can be
	// off by up to the commit width.
	if res.Committed < 4*(20_000-4) || res.Committed > 4*(20_000+4) {
		t.Errorf("committed = %d, want ≈80000", res.Committed)
	}
	// Windows must advance through the program.
	for i := 1; i < len(res.Windows); i++ {
		if res.Windows[i].StartInst <= res.Windows[i-1].StartInst {
			t.Error("windows did not advance")
		}
	}
	if res.IPC() <= 0 || res.IPC() > 4 {
		t.Errorf("aggregate IPC %f", res.IPC())
	}
	out := res.Table()
	if !strings.Contains(out, "aggregate IPC") {
		t.Errorf("table missing aggregate:\n%s", out)
	}
}

// TestSampledMatchesContiguous: on a phase-free workload, the sampled IPC
// estimate must land close to a contiguous measurement.
func TestSampledMatchesContiguous(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := context.Background()
	prog := workload.MustProgram("chess")
	full, err := pipeline.RunProgramContext(ctx, pipeline.BaseConfig(), prog, 100_000, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	plan := Config{Windows: 4, FastForward: 100_000, Warmup: 30_000, Measure: 50_000}
	sampled, err := Run(ctx, pipeline.BaseConfig(), prog, plan)
	if err != nil {
		t.Fatal(err)
	}
	ratio := sampled.IPC() / full.IPC()
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("sampled IPC %.3f vs contiguous %.3f (ratio %.3f)", sampled.IPC(), full.IPC(), ratio)
	}
	if sampled.BranchMPKI() <= 0 {
		t.Error("sampled branch MPKI missing")
	}
}

// TestHaltingProgram: sampling a program that ends mid-plan returns the
// windows it completed, or a clear error if none did.
func TestHaltingProgram(t *testing.T) {
	ctx := context.Background()
	b := asm.New("short")
	r2 := isa.R(2)
	b.Li(r2, 100_000)
	b.Label("loop")
	b.Addi(r2, r2, -1)
	b.Bne(r2, isa.RZero, "loop")
	b.Halt()
	prog := b.MustBuild()

	// Plan longer than the program: at least one window, then stop.
	plan := Config{Windows: 10, FastForward: 20_000, Warmup: 5_000, Measure: 30_000}
	res, err := Run(ctx, pipeline.BaseConfig(), prog, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) == 0 || len(res.Windows) >= 10 {
		t.Errorf("windows = %d, want a partial plan", len(res.Windows))
	}

	// Fast-forward longer than the whole program: no windows at all.
	tiny := Config{Windows: 2, FastForward: 10_000_000, Warmup: 10, Measure: 10}
	if _, err := Run(ctx, pipeline.BaseConfig(), prog, tiny); err == nil {
		t.Error("plan past the program's end should error")
	}
}

// TestPlanValidationTyped: plan rejections must wrap simerr.ErrInvalidConfig
// so campaign code classifies them without string matching.
func TestPlanValidationTyped(t *testing.T) {
	ctx := context.Background()
	for _, plan := range []Config{
		{},                          // zero windows
		{Windows: -1, Measure: 100}, // negative windows
		{Windows: 2},                // zero measure
	} {
		if err := plan.Validate(); !errors.Is(err, simerr.ErrInvalidConfig) {
			t.Errorf("plan %+v: err = %v, want ErrInvalidConfig", plan, err)
		}
		if _, err := Run(ctx, pipeline.BaseConfig(), workload.MustProgram("parser"), plan); !errors.Is(err, simerr.ErrInvalidConfig) {
			t.Errorf("Run with plan %+v: err = %v, want ErrInvalidConfig", plan, err)
		}
	}
}

// TestRunContextCancelled: a cancelled campaign stops between windows with
// the completed windows returned alongside the typed error.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	plan := Config{Windows: 4, FastForward: 50_000, Warmup: 10_000, Measure: 20_000}
	res, err := Run(ctx, pipeline.BaseConfig(), workload.MustProgram("parser"), plan)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.Windows) != 0 {
		t.Errorf("cancelled-before-start run returned %d windows", len(res.Windows))
	}
}

// TestRunContextDeadlineMidWindow: an expiring deadline cuts the plan short
// mid-window; depending on which check observes it first the error is the
// pipeline's ErrTimeout or the between-window DeadlineExceeded.
func TestRunContextDeadlineMidWindow(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	plan := Config{Windows: 1_000, FastForward: 50_000, Warmup: 10_000, Measure: 20_000}
	res, err := Run(ctx, pipeline.BaseConfig(), workload.MustProgram("parser"), plan)
	if err == nil {
		t.Fatal("a 1000-window plan finished inside 5ms")
	}
	if !errors.Is(err, simerr.ErrTimeout) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrTimeout or DeadlineExceeded", err)
	}
	if len(res.Windows) >= 1_000 {
		t.Errorf("deadline did not cut the plan short (%d windows)", len(res.Windows))
	}
}
