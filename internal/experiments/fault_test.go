package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/pipeline"
	"repro/internal/simerr"
	"repro/internal/workload"
)

// faultRunner uses the smallest windows that still exercise the harness —
// the fault tests care about failure plumbing, not measurements.
func faultRunner(o Options) *Runner {
	if o.Warmup == 0 {
		o.Warmup = 5_000
	}
	if o.Measure == 0 {
		o.Measure = 15_000
	}
	if o.Parallelism == 0 {
		o.Parallelism = 2
	}
	return NewRunner(o)
}

// TestPanicFailsOnlyItsRun: a worker panic must be recovered into a typed
// error that fails only its own run; the figure still comes back, partial,
// with the failure reported.
func TestPanicFailsOnlyItsRun(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(faultinject.WorkerPanic, "regex", 1)

	r := faultRunner(Options{})
	fig, err := Fig8Context(context.Background(), r)
	if err == nil {
		t.Fatal("campaign with a panicking worker reported success")
	}
	var ce *CampaignError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T %v, want *CampaignError", err, err)
	}
	if !errors.Is(err, simerr.ErrPanic) {
		t.Fatalf("campaign error does not classify as ErrPanic: %v", err)
	}
	var pe *simerr.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("campaign error does not carry *PanicError: %v", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("recovered panic lost its stack trace")
	}
	if len(ce.Failures) != 1 || ce.Failures[0].Workload != "regex" {
		t.Fatalf("failures = %+v, want exactly the regex run", ce.Failures)
	}
	// Every other program must still be in the figure.
	if want := len(workload.Names()) - 1; len(fig.Rows) != want {
		t.Errorf("rows = %d, want %d (the suite minus the failed program)", len(fig.Rows), want)
	}
	for _, row := range fig.Rows {
		if row.Workload == "regex" {
			t.Error("failed program appears in the figure rows")
		}
	}
	if len(fig.Failed) != 1 {
		t.Errorf("result.Failed = %+v", fig.Failed)
	}
	if got := fig.Table(); !strings.Contains(got, "partial figure") {
		t.Errorf("partial table does not say so:\n%s", got)
	}
}

// faultCases: one contiguous cell, and a sampled two-machine sweep run as one batch.
var faultCases = []struct {
	name, wl string
	opts     Options
	cfgs     []pipeline.Config
}{
	{"run", "crypto", Options{Retries: 3, RetryBackoff: time.Millisecond}, []pipeline.Config{pipeline.BaseConfig()}},
	{"sampled-sweep", "parser", Options{SampleWindows: 2, SampleFastForward: 20_000, Retries: 3, RetryBackoff: time.Millisecond},
		[]pipeline.Config{pipeline.BaseConfig(), pipeline.PUBSConfig()}},
}

// TestTransientFailureRetried: a transient fault must be absorbed by the
// retry loop without surfacing to the caller; each faulted attempt retries
// every cell it covered.
func TestTransientFailureRetried(t *testing.T) {
	for _, tc := range faultCases {
		t.Run(tc.name, func(t *testing.T) {
			defer faultinject.Reset()
			want, err := faultRunner(tc.opts).RunSweep(tc.cfgs, tc.wl)
			if err != nil {
				t.Fatal(err)
			}
			faultinject.Arm(faultinject.WorkerTransient, tc.wl, 2)
			r := faultRunner(tc.opts)
			got, err := r.RunSweep(tc.cfgs, tc.wl)
			if err != nil {
				t.Fatalf("transient fault not absorbed: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("retried results differ from an unfaulted run")
			}
			if st := r.Stats(); st.Retries != uint64(2*len(tc.cfgs)) || st.Failures != 0 {
				t.Errorf("retries = %d, failures = %d; want %d and 0", st.Retries, st.Failures, 2*len(tc.cfgs))
			}
		})
	}
}

// TestTransientFailureExhaustsRetries: a persistent transient fault must
// fail after the retry budget, still typed as transient.
func TestTransientFailureExhaustsRetries(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(faultinject.WorkerTransient, "crypto", -1)

	r := faultRunner(Options{Retries: 1, RetryBackoff: time.Millisecond})
	_, err := r.Run(pipeline.BaseConfig(), "crypto")
	if err == nil {
		t.Fatal("persistent fault absorbed")
	}
	if !simerr.IsTransient(err) {
		t.Errorf("exhausted error lost its transient mark: %v", err)
	}
	st := r.Stats()
	if st.Retries != 1 || st.Failures != 1 {
		t.Errorf("stats = %+v, want 1 retry and 1 failure", st)
	}
}

// TestDeterministicFailureNotRetried: a panic is not transient, so the
// retry loop must not spend attempts on it.
func TestDeterministicFailureNotRetried(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(faultinject.WorkerPanic, "crypto", -1)

	r := faultRunner(Options{Retries: 5, RetryBackoff: time.Millisecond})
	if _, err := r.Run(pipeline.BaseConfig(), "crypto"); !errors.Is(err, simerr.ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic", err)
	}
	if st := r.Stats(); st.Retries != 0 {
		t.Errorf("retries = %d on a deterministic failure", st.Retries)
	}
}

// TestPerSimulationTimeout: an already-expired per-run budget surfaces as
// ErrTimeout on every cell through the runner.
func TestPerSimulationTimeout(t *testing.T) {
	for _, tc := range faultCases {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.opts
			o.Timeout = time.Nanosecond
			_, err := faultRunner(o).RunSweep(tc.cfgs, tc.wl)
			var ce *CampaignError
			if !errors.As(err, &ce) || len(ce.Failures) != len(tc.cfgs) {
				t.Fatalf("err = %v, want all %d cells failed", err, len(tc.cfgs))
			}
			for _, f := range ce.Failures {
				if !errors.Is(f, simerr.ErrTimeout) {
					t.Errorf("err = %v, want ErrTimeout", f)
				}
			}
		})
	}
}

// TestRunAllContextCancellation: a cancelled campaign returns the typed
// failure report rather than hanging or succeeding.
func TestRunAllContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := faultRunner(Options{})
	res, err := r.RunAllContext(ctx, pipeline.BaseConfig(), []string{"crypto", "regex"})
	if len(res) != 0 {
		t.Errorf("cancelled campaign returned %d results", len(res))
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCheckpointResume is the kill-and-resume scenario: a campaign that
// completed only some of its runs before dying must, when restarted with
// the same checkpoint directory, skip everything already done and produce a
// bit-identical figure table.
func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Warmup: 5_000, Measure: 15_000, Parallelism: 2}

	// First campaign: dies (simulated) after finishing only the base machine
	// on a few programs.
	r1, err := faultRunner(opts).WithCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.RunAll(pipeline.BaseConfig(), []string{"bfs", "cellular", "chess"}); err != nil {
		t.Fatal(err)
	}
	if n := r1.Stats().Simulated; n != 3 {
		t.Fatalf("first campaign simulated %d runs, want 3", n)
	}

	// Second campaign, same checkpoint dir: completes the whole figure. The
	// three checkpointed runs must not be re-simulated.
	r2, err := faultRunner(opts).WithCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	fig2, err := Fig8(r2)
	if err != nil {
		t.Fatal(err)
	}
	suiteRuns := 2 * len(workload.Names()) // base + PUBS over the whole suite
	st2 := r2.Stats()
	if st2.CheckpointHits != 3 {
		t.Errorf("resume hit %d checkpoints, want 3", st2.CheckpointHits)
	}
	if want := uint64(suiteRuns - 3); st2.Simulated != want {
		t.Errorf("resume simulated %d runs, want %d", st2.Simulated, want)
	}

	// Third campaign: everything is checkpointed; zero simulations and a
	// bit-identical table.
	r3, err := faultRunner(opts).WithCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	fig3, err := Fig8(r3)
	if err != nil {
		t.Fatal(err)
	}
	st3 := r3.Stats()
	if st3.Simulated != 0 {
		t.Errorf("fully-checkpointed campaign simulated %d runs", st3.Simulated)
	}
	if st3.CheckpointHits != uint64(suiteRuns) {
		t.Errorf("checkpoint hits = %d, want %d", st3.CheckpointHits, suiteRuns)
	}
	if fig2.Table() != fig3.Table() {
		t.Errorf("resumed figure differs from checkpointed figure:\n--- resumed\n%s\n--- checkpointed\n%s",
			fig2.Table(), fig3.Table())
	}
}

// TestCorruptCheckpointIsAMiss: torn or garbage checkpoint files must be
// recomputed, never trusted or fatal.
func TestCorruptCheckpointIsAMiss(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Warmup: 5_000, Measure: 15_000, Parallelism: 1}

	r1, err := faultRunner(opts).WithCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := r1.Run(pipeline.BaseConfig(), "crypto")
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("checkpoint files = %v (%v)", files, err)
	}
	// Tear the record as a mid-write kill would.
	if err := os.WriteFile(files[0], []byte(`{"version":1,"key":"tr`), 0o644); err != nil {
		t.Fatal(err)
	}

	r2, err := faultRunner(opts).WithCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r2.Run(pipeline.BaseConfig(), "crypto")
	if err != nil {
		t.Fatal(err)
	}
	st := r2.Stats()
	if st.CheckpointHits != 0 || st.Simulated != 1 {
		t.Errorf("corrupt checkpoint was not treated as a miss: %+v", st)
	}
	if got.Cycles != want.Cycles || got.Committed != want.Committed {
		t.Error("recomputed result differs from the original")
	}
}

// TestStudyReportsEveryFailedCell: a study runs as one grid, so a program
// that fails on every variant fails the study with all of its cells named,
// and the failed study renders nothing.
func TestStudyReportsEveryFailedCell(t *testing.T) {
	defer faultinject.Reset()
	r := faultRunner(Options{})
	if _, err := r.Classify(); err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.WorkerPanic, "chess", -1)
	s, err := Fig15(r)
	var ce *CampaignError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CampaignError", err)
	}
	var got []string
	for _, f := range ce.Failures {
		got = append(got, f.Config+" on "+f.Workload)
	}
	if want := "age on chess,pubs on chess,pubs+age on chess"; strings.Join(got, ",") != want {
		t.Errorf("failures = %s, want %s", strings.Join(got, ","), want)
	}
	if s.Table() != "" || s.Chart() != "" {
		t.Errorf("failed study rendered:\n%s", s.Table())
	}
}
