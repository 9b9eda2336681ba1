package experiments

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/sampling"
	"repro/internal/workload"
)

func sampledOpts() Options {
	return Options{
		Warmup: 5_000, Measure: 10_000,
		SampleWindows: 3, SampleFastForward: 30_000,
		ParallelWindows: 2,
	}
}

// TestSampledSweepSharesFastForward: an N-machine sweep over one workload
// pays for exactly one functional fast-forward pass, and every cell equals
// the result of sampling that (config, workload) pair directly.
func TestSampledSweepSharesFastForward(t *testing.T) {
	r := NewRunner(sampledOpts())
	age := pipeline.PUBSConfig()
	age.Name = "pubs+age"
	age.AgeMatrix = true
	cfgs := []pipeline.Config{pipeline.BaseConfig(), pipeline.PUBSConfig(), age}

	for _, cfg := range cfgs {
		got, err := r.Run(cfg, "parser")
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		direct, err := sampling.Run(cfg, workload.MustProgram("parser"), sampledOpts().samplingPlan())
		if err != nil {
			t.Fatal(err)
		}
		if want := direct.Merged(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: runner's sampled result diverged from direct sampling:\n got %+v\nwant %+v", cfg.Name, got, want)
		}
	}

	st := r.SnapshotStats()
	if st.Plans != 1 {
		t.Errorf("sweep paid %d fast-forward passes, want 1", st.Plans)
	}
	if st.Hits != uint64(len(cfgs)-1) {
		t.Errorf("snapshot hits = %d, want %d", st.Hits, len(cfgs)-1)
	}
}

// TestSampledKeyedSeparately: sampled and contiguous runs of the same
// (config, workload, windows) must not collide in the memo cache, and
// different sampling geometries must not collide with each other.
func TestSampledKeyedSeparately(t *testing.T) {
	cfg := pipeline.BaseConfig()
	contiguous := Options{Warmup: 5_000, Measure: 10_000}
	sampled := sampledOpts()
	k1 := cfgKey(cfg, "parser", contiguous.normalized())
	k2 := cfgKey(cfg, "parser", sampled.normalized())
	if k1 == k2 {
		t.Fatal("sampled and contiguous runs share a memo key")
	}
	wider := sampled
	wider.SampleFastForward *= 2
	if cfgKey(cfg, "parser", wider.normalized()) == k2 {
		t.Fatal("different fast-forward gaps share a memo key")
	}
	// ParallelWindows is scheduling, not measurement: same key.
	serial := sampled
	serial.ParallelWindows = 0
	if cfgKey(cfg, "parser", serial.normalized()) != k2 {
		t.Fatal("ParallelWindows leaked into the memo key")
	}
}

// TestSampledMemoized: the second run of a sampled cell is a memo hit, not
// a second simulation.
func TestSampledMemoized(t *testing.T) {
	r := NewRunner(sampledOpts())
	first, err := r.Run(pipeline.BaseConfig(), "chess")
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Run(pipeline.BaseConfig(), "chess")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("memoized sampled result differs")
	}
	st := r.Stats()
	if st.Simulated != 1 || st.MemoHits != 1 {
		t.Errorf("simulated=%d memoHits=%d, want 1 and 1", st.Simulated, st.MemoHits)
	}
}

// TestSampledCheckpointRoundTrip: a sampled campaign resumes from its
// checkpoint bit-identically.
func TestSampledCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r1, err := NewRunner(sampledOpts()).WithCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := r1.Run(pipeline.PUBSConfig(), "compress")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRunner(sampledOpts()).WithCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r2.Run(pipeline.PUBSConfig(), "compress")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("checkpointed sampled result differs from original")
	}
	if st := r2.Stats(); st.Simulated != 0 || st.CheckpointHits != 1 {
		t.Errorf("resume simulated=%d ckptHits=%d, want 0 and 1", st.Simulated, st.CheckpointHits)
	}
}

// TestWindowMajorSweepBitIdentical: a window-major sweep produces, per
// cell, exactly what individual runs produce, pays one fast-forward pass,
// memoizes every cell, and interoperates with the checkpoint.
func TestWindowMajorSweepBitIdentical(t *testing.T) {
	opts := sampledOpts()
	dir := t.TempDir()
	r, err := NewRunner(opts).WithCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	age := pipeline.PUBSConfig()
	age.Name = "pubs+age"
	age.AgeMatrix = true
	cfgs := []pipeline.Config{pipeline.BaseConfig(), pipeline.PUBSConfig(), age}

	got, err := r.RunSweep(cfgs, "parser")
	if err != nil {
		t.Fatal(err)
	}
	ref := NewRunner(sampledOpts())
	for i, cfg := range cfgs {
		want, err := ref.Run(cfg, "parser")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("%s: window-major sweep diverged from individual run", cfg.Name)
		}
	}
	if st := r.SnapshotStats(); st.Plans != 1 {
		t.Errorf("sweep paid %d fast-forward passes, want 1", st.Plans)
	}
	if st := r.Stats(); st.Simulated != uint64(len(cfgs)) {
		t.Errorf("simulated = %d, want %d", st.Simulated, len(cfgs))
	}

	// A second sweep is pure memo hits; a fresh runner resumes from disk.
	if _, err := r.RunSweep(cfgs, "parser"); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Simulated != uint64(len(cfgs)) || st.MemoHits != uint64(len(cfgs)) {
		t.Errorf("re-sweep simulated=%d memoHits=%d, want %d and %d", st.Simulated, st.MemoHits, len(cfgs), len(cfgs))
	}
	r2, err := NewRunner(opts).WithCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	again, err := r2.RunSweep(cfgs, "parser")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, got) {
		t.Fatal("checkpointed sweep differs from original")
	}
	if st := r2.Stats(); st.Simulated != 0 || st.CheckpointHits != uint64(len(cfgs)) {
		t.Errorf("resume simulated=%d ckptHits=%d, want 0 and %d", st.Simulated, st.CheckpointHits, len(cfgs))
	}
}

// TestSweepWithoutWindowMajor: a batched sampled sweep of compress equals
// single runs of each machine.
func TestSweepWithoutWindowMajor(t *testing.T) {
	r := NewRunner(sampledOpts())
	cfgs := []pipeline.Config{pipeline.BaseConfig(), pipeline.PUBSConfig()}
	got, err := r.RunSweep(cfgs, "compress")
	if err != nil {
		t.Fatal(err)
	}
	ref := NewRunner(sampledOpts())
	for i, cfg := range cfgs {
		want, err := ref.Run(cfg, "compress")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("%s: batched sweep diverged from individual run", cfg.Name)
		}
	}
}

// TestGridOnePlanPerWorkload: a sampled 3-machine × 2-workload grid, run
// as one campaign the way a study runs it, pays one fast-forward plan per
// workload (the shared store single-flights it across the cells),
// simulates every cell once, and each cell equals per-config RunAll on a
// fresh runner.
func TestGridOnePlanPerWorkload(t *testing.T) {
	age := pipeline.PUBSConfig()
	age.Name = "pubs+age"
	age.AgeMatrix = true
	cfgs := []pipeline.Config{pipeline.BaseConfig(), pipeline.PUBSConfig(), age}
	wls := []string{"parser", "compress"}

	r := NewRunner(sampledOpts())
	got, errs := r.fanOut(context.Background(), Grid(cfgs, wls))
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
	if st := r.SnapshotStats(); st.Plans != uint64(len(wls)) {
		t.Errorf("grid paid %d fast-forward passes, want %d (one per workload)", st.Plans, len(wls))
	}
	if st := r.Stats(); st.Simulated != uint64(len(cfgs)*len(wls)) {
		t.Errorf("simulated = %d, want %d", st.Simulated, len(cfgs)*len(wls))
	}
	ref := NewRunner(sampledOpts())
	for i, cfg := range cfgs {
		want, err := ref.RunAll(cfg, wls)
		if err != nil {
			t.Fatal(err)
		}
		for j, wl := range wls {
			if !reflect.DeepEqual(got[i*len(wls)+j], want[wl]) {
				t.Errorf("%s on %s: grid result diverged from RunAll", cfg.Name, wl)
			}
		}
	}
}
