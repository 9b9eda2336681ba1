package service

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
)

// Small windows keep the E2E tests fast while still exercising warmup
// reset, sampling, and the progress hook.
func testOptions() experiments.Options {
	return experiments.Options{Warmup: 2_000, Measure: 8_000}
}

func testService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.DefaultOptions.Warmup == 0 && cfg.DefaultOptions.Measure == 0 {
		cfg.DefaultOptions = testOptions()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func waitJob(t *testing.T, j *Job) JobStatus {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", j.ID())
	}
	return j.Status()
}

func TestMachineConfigNames(t *testing.T) {
	for _, name := range []string{
		"base", "pubs", "age", "pubs+age",
		"base-small", "base-medium", "base-large", "base-huge",
		"pubs-small", "pubs-medium", "pubs-large", "pubs-huge",
	} {
		if _, err := MachineConfig(name); err != nil {
			t.Errorf("MachineConfig(%q): %v", name, err)
		}
	}
	for _, name := range []string{"", "pubs-tiny", "weird", "age-small"} {
		if _, err := MachineConfig(name); err == nil {
			t.Errorf("MachineConfig(%q): expected error", name)
		}
	}
}

func TestMachineSpecOverridesRenameConfig(t *testing.T) {
	cfg, err := MachineSpec{Machine: "pubs", PriorityEntries: 12, NoStall: true}.Config()
	if err != nil {
		t.Fatalf("Config: %v", err)
	}
	if cfg.Name != "pubs-p12-nostall" {
		t.Errorf("Name = %q, want pubs-p12-nostall", cfg.Name)
	}
	if cfg.PUBS.PriorityEntries != 12 || cfg.PUBS.StallDispatch {
		t.Errorf("overrides not applied: %+v", cfg.PUBS)
	}
	// Distinct parameterizations must have distinct content keys.
	base, _ := MachineSpec{Machine: "pubs"}.Config()
	if base.Name == cfg.Name {
		t.Error("override produced identical name; keys would collide")
	}
}

func TestCampaignSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec CampaignSpec
		max  int
	}{
		{"no machines", CampaignSpec{}, 0},
		{"bad machine", CampaignSpec{Machines: []MachineSpec{{Machine: "nope"}}}, 0},
		{"bad workload", CampaignSpec{
			Machines: []MachineSpec{{Machine: "base"}}, Workloads: []string{"nope"}}, 0},
		{"over cap", CampaignSpec{
			Machines: []MachineSpec{{Machine: "base"}, {Machine: "pubs"}}}, 3},
	}
	for _, tc := range cases {
		if _, err := tc.spec.Cells(tc.max); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	cells, err := CampaignSpec{
		Machines:  []MachineSpec{{Machine: "base"}, {Machine: "pubs"}},
		Workloads: []string{"matmul", "chess", "goplay"},
	}.Cells(0)
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
}

func TestResultCacheSingleflight(t *testing.T) {
	c := newResultCache()
	var builds int
	var mu sync.Mutex
	gate := make(chan struct{})
	build := func() (CellResult, error) {
		mu.Lock()
		builds++
		mu.Unlock()
		<-gate
		return CellResult{Key: "k", Workload: "w"}, nil
	}
	const callers = 8
	var wg sync.WaitGroup
	outcomes := make([]cacheOutcome, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, out, err := c.Do("k", build)
			if err != nil || res.Key != "k" {
				t.Errorf("Do: res=%+v err=%v", res, err)
			}
			outcomes[i] = out
		}(i)
	}
	// Let the goroutines pile up on the flight, then release.
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()
	if builds != 1 {
		t.Fatalf("build ran %d times, want 1", builds)
	}
	var runs, merged int
	for _, o := range outcomes {
		switch o {
		case outcomeRun:
			runs++
		case outcomeMerged:
			merged++
		}
	}
	if runs != 1 || merged != callers-1 {
		t.Fatalf("runs=%d merged=%d, want 1/%d", runs, merged, callers-1)
	}
	// After completion it's a plain hit.
	if _, out, _ := c.Do("k", build); out != outcomeHit {
		t.Fatalf("post-completion outcome = %v, want hit", out)
	}
}

func TestResultCacheDoesNotCacheFailures(t *testing.T) {
	c := newResultCache()
	boom := errors.New("boom")
	if _, _, err := c.Do("k", func() (CellResult, error) { return CellResult{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("failure was cached")
	}
	// Next attempt runs fresh and can succeed.
	res, out, err := c.Do("k", func() (CellResult, error) { return CellResult{Key: "k"}, nil })
	if err != nil || out != outcomeRun || res.Key != "k" {
		t.Fatalf("retry: res=%+v out=%v err=%v", res, out, err)
	}
}

// TestConcurrentDuplicateSubmissions is the issue's acceptance test: the
// same spec submitted twice concurrently completes both jobs with
// identical results, the grid executes exactly once, and the results are
// bit-identical to an equivalent direct Runner campaign.
func TestConcurrentDuplicateSubmissions(t *testing.T) {
	s := testService(t, Config{Workers: 4, MaxActiveJobs: 4})
	spec := CampaignSpec{
		Machines:  []MachineSpec{{Machine: "base"}, {Machine: "pubs"}},
		Workloads: []string{"matmul", "chess"},
	}
	j1, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	j2, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	st1, st2 := waitJob(t, j1), waitJob(t, j2)
	if st1.State != JobDone || st2.State != JobDone {
		t.Fatalf("states %s/%s, errors %v/%v", st1.State, st2.State, st1.Errors, st2.Errors)
	}
	if st1.CompletedCells != 4 || st2.CompletedCells != 4 {
		t.Fatalf("completed %d/%d, want 4/4", st1.CompletedCells, st2.CompletedCells)
	}

	// Identical results, in the same grid order.
	b1, _ := json.Marshal(st1.Results)
	b2, _ := json.Marshal(st2.Results)
	if string(b1) != string(b2) {
		t.Error("duplicate submissions returned different results")
	}

	// The grid executed exactly once: 4 unique cells → 4 simulations, no
	// matter how the 8 cell executions split between fresh runs, merges,
	// and cache hits.
	if rs, _ := s.runnerStats(); rs.Simulated != 4 {
		t.Errorf("Simulated = %d, want 4 (grid must execute exactly once)", rs.Simulated)
	}

	// Bit-identical to the equivalent direct-Runner campaign.
	runner := experiments.NewRunner(s.DefaultOptions())
	cells, err := spec.Cells(0)
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	for i, cell := range cells {
		want, err := runner.RunCell(context.Background(), cell)
		if err != nil {
			t.Fatalf("direct run %s/%s: %v", cell.Config.Name, cell.Workload, err)
		}
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(st1.Results[i].Result)
		if string(wb) != string(gb) {
			t.Errorf("cell %s/%s: daemon result differs from direct run",
				cell.Config.Name, cell.Workload)
		}
		if st1.Results[i].Key != cell.Key(s.DefaultOptions()) {
			t.Errorf("cell %d: key mismatch", i)
		}
	}

	// The content-address lookup serves the completed cells.
	for _, r := range st1.Results {
		got, ok := s.Result(r.Key)
		if !ok {
			t.Errorf("Result(%s): missing", r.Key)
			continue
		}
		if got.Machine != r.Machine || got.Workload != r.Workload {
			t.Errorf("Result(%s): wrong cell %s/%s", r.Key, got.Machine, got.Workload)
		}
	}
}

func TestResubmitServedFromCache(t *testing.T) {
	s := testService(t, Config{Workers: 2})
	spec := CampaignSpec{
		Machines:  []MachineSpec{{Machine: "pubs"}},
		Workloads: []string{"goplay"},
	}
	st := waitJob(t, mustSubmit(t, s, spec))
	if st.State != JobDone {
		t.Fatalf("first job: %s %v", st.State, st.Errors)
	}
	before, _ := s.runnerStats()
	st2 := waitJob(t, mustSubmit(t, s, spec))
	if st2.State != JobDone {
		t.Fatalf("second job: %s %v", st2.State, st2.Errors)
	}
	if after, _ := s.runnerStats(); after.Simulated != before.Simulated {
		t.Errorf("resubmission re-simulated: %d → %d", before.Simulated, after.Simulated)
	}
	if s.m.cacheHits.Load() == 0 {
		t.Error("no cache hits recorded for resubmission")
	}
}

func TestSpecWindowOverride(t *testing.T) {
	s := testService(t, Config{Workers: 2})
	spec := CampaignSpec{
		Machines:  []MachineSpec{{Machine: "base"}},
		Workloads: []string{"matmul"},
		Warmup:    1_000, Measure: 4_000,
	}
	st := waitJob(t, mustSubmit(t, s, spec))
	if st.State != JobDone {
		t.Fatalf("job: %s %v", st.State, st.Errors)
	}
	r := st.Results[0]
	if r.Warmup != 1_000 || r.Measure != 4_000 {
		t.Fatalf("windows %d/%d, want 1000/4000", r.Warmup, r.Measure)
	}
	// Commit width > 1 lets the warmup boundary overshoot by a few
	// instructions, so Measured lands within a commit group of the target.
	if r.Result.Measured < 3_900 || r.Result.Measured > 4_100 {
		t.Fatalf("Measured = %d, want ≈4000", r.Result.Measured)
	}
	// The override must produce a different content key than the default
	// windows — same discipline as the checkpoint store.
	cells, _ := spec.Cells(0)
	if k := cells[0].Key(s.DefaultOptions()); k == r.Key {
		t.Error("window override did not change the content key")
	}
}

func TestQueueFullRejects(t *testing.T) {
	s := testService(t, Config{Workers: 1, QueueDepth: 1, MaxActiveJobs: 1})
	// Stall the single worker with a job, fill the queue, then overflow.
	spec := func(wl string) CampaignSpec {
		return CampaignSpec{Machines: []MachineSpec{{Machine: "base"}}, Workloads: []string{wl}}
	}
	j1 := mustSubmit(t, s, spec("matmul"))
	var errFull error
	for i := 0; i < 20; i++ {
		if _, err := s.Submit(spec("chess")); err != nil {
			errFull = err
			break
		}
	}
	if !errors.Is(errFull, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", errFull)
	}
	if s.m.jobsRejected.Load() == 0 {
		t.Error("rejection not counted")
	}
	waitJob(t, j1)
}

func TestShutdownDrainsAcceptedJobs(t *testing.T) {
	s, err := New(Config{Workers: 2, DefaultOptions: testOptions()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	spec := CampaignSpec{
		Machines:  []MachineSpec{{Machine: "base"}},
		Workloads: []string{"matmul", "chess"},
	}
	j := mustSubmit(t, s, spec)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	st := j.Status()
	if st.State != JobDone || st.CompletedCells != 2 {
		t.Fatalf("drained job: %s, %d cells", st.State, st.CompletedCells)
	}
	if _, err := s.Submit(spec); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-shutdown submit err = %v, want ErrDraining", err)
	}
}

func TestCheckpointSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	spec := CampaignSpec{
		Machines:  []MachineSpec{{Machine: "pubs"}},
		Workloads: []string{"chess"},
	}
	s1 := testService(t, Config{Workers: 2, CheckpointDir: dir})
	st := waitJob(t, mustSubmit(t, s1, spec))
	if st.State != JobDone {
		t.Fatalf("first daemon: %s %v", st.State, st.Errors)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s1.Shutdown(ctx)

	// A fresh daemon over the same checkpoint dir answers from disk.
	s2 := testService(t, Config{Workers: 2, CheckpointDir: dir})
	st2 := waitJob(t, mustSubmit(t, s2, spec))
	if st2.State != JobDone {
		t.Fatalf("second daemon: %s %v", st2.State, st2.Errors)
	}
	rs, _ := s2.runnerStats()
	if rs.Simulated != 0 || rs.CheckpointHits == 0 {
		t.Errorf("restart re-simulated: Simulated=%d CheckpointHits=%d", rs.Simulated, rs.CheckpointHits)
	}
	b1, _ := json.Marshal(st.Results)
	b2, _ := json.Marshal(st2.Results)
	if string(b1) != string(b2) {
		t.Error("checkpoint round-trip changed results")
	}
}

func TestMetricsText(t *testing.T) {
	s := testService(t, Config{Workers: 2})
	waitJob(t, mustSubmit(t, s, CampaignSpec{
		Machines:  []MachineSpec{{Machine: "base"}},
		Workloads: []string{"matmul"},
	}))
	text := s.MetricsText()
	for _, want := range []string{
		"pubsd_jobs_submitted_total{node=\"local\"} 1",
		"pubsd_jobs_completed_total{node=\"local\"} 1",
		"pubsd_cells_completed_total{node=\"local\"} 1",
		"pubsd_sims_executed_total{node=\"local\"} 1",
		"pubsd_workers{node=\"local\"} 2",
		"pubsd_skip_spans_total{node=\"local\"}",
		"pubsd_skipped_cycles_total{node=\"local\"}",
		"pubsd_job_latency_count{node=\"local\"} 1",
		"pubsd_job_latency_ms{node=\"local\",quantile=\"0.5\"}",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

func TestJobEvents(t *testing.T) {
	s := testService(t, Config{Workers: 2})
	j := mustSubmit(t, s, CampaignSpec{
		Machines:  []MachineSpec{{Machine: "base"}},
		Workloads: []string{"matmul", "chess"},
	})
	waitJob(t, j)
	events, state := j.eventsSince(0)
	if state != JobDone {
		t.Fatalf("state %s", state)
	}
	counts := map[string]int{}
	for _, e := range events {
		counts[e.Type]++
	}
	if counts["queued"] != 1 || counts["started"] != 1 || counts["done"] != 1 {
		t.Errorf("lifecycle events off: %v", counts)
	}
	if counts["cell"] != 2 {
		t.Errorf("cell events = %d, want 2", counts["cell"])
	}
	if counts["progress"] == 0 {
		t.Error("no progress events streamed")
	}
	last := events[len(events)-1]
	if last.Type != "done" || last.Completed != 2 {
		t.Errorf("final event %+v", last)
	}
}

func mustSubmit(t *testing.T, s *Service, spec CampaignSpec) *Job {
	t.Helper()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return j
}
