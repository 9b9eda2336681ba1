package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"regexp"
	"testing"

	"repro/internal/pipeline"
)

// TestGridEnumeration: the grid is the full cross product in deterministic
// order, and cell keys are unique per (config, workload) pair but stable
// across enumerations.
func TestGridEnumeration(t *testing.T) {
	cfgs := []pipeline.Config{pipeline.BaseConfig(), pipeline.PUBSConfig()}
	wls := []string{"chess", "fft", "sparse"}
	cells := Grid(cfgs, wls)
	if len(cells) != 6 {
		t.Fatalf("grid size = %d, want 6", len(cells))
	}
	o := QuickOptions()
	seen := map[string]bool{}
	for _, c := range cells {
		k := c.Key(o)
		if !regexp.MustCompile(`^[0-9a-f]{64}$`).MatchString(k) {
			t.Fatalf("cell key %q is not a hex sha256", k)
		}
		if seen[k] {
			t.Fatalf("duplicate key for cell %s/%s", c.Config.Name, c.Workload)
		}
		seen[k] = true
	}
	again := Grid(cfgs, wls)
	for i := range cells {
		if cells[i].Key(o) != again[i].Key(o) {
			t.Fatalf("cell %d key unstable across enumerations", i)
		}
	}
}

// TestCellKeyMatchesCheckpointDiscipline: a cell's Key is exactly the hash
// the checkpoint store files the same run under, so service-layer caches
// and on-disk checkpoints address identical content identically.
func TestCellKeyMatchesCheckpointDiscipline(t *testing.T) {
	o := QuickOptions()
	c := Cell{Config: pipeline.PUBSConfig(), Workload: "chess"}
	if got, want := c.Key(o), KeyHash(c.MemoKey(o)); got != want {
		t.Fatalf("Key = %s, want KeyHash(MemoKey) = %s", got, want)
	}
	// Different windows must change the key; other options must not.
	o2 := o
	o2.Measure *= 2
	if c.Key(o) == c.Key(o2) {
		t.Fatal("key ignores the measurement window")
	}
	o3 := o
	o3.Parallelism = 7
	o3.Retries = 3
	if c.Key(o) != c.Key(o3) {
		t.Fatal("key depends on options that do not change the computation")
	}
}

// TestRunCellMemoizes: the same cell run twice simulates once.
func TestRunCellMemoizes(t *testing.T) {
	r := NewRunner(Options{Warmup: 1_000, Measure: 4_000})
	c := Cell{Config: pipeline.BaseConfig(), Workload: "fft"}
	a, err := r.RunCell(context.Background(), c)
	if err != nil {
		t.Fatalf("RunCell: %v", err)
	}
	b, err := r.RunCell(context.Background(), c)
	if err != nil {
		t.Fatalf("RunCell (memo): %v", err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatal("memoized cell result differs")
	}
	st := r.Stats()
	if st.Simulated != 1 || st.MemoHits != 1 {
		t.Fatalf("stats = %+v, want 1 simulated / 1 memo hit", st)
	}
}

// TestRunCellCanceledContext: a canceled context fails a fresh cell with
// the cancellation while memoized results stay servable — the
// interrupted-campaign contract.
func TestRunCellCanceledContext(t *testing.T) {
	r := NewRunner(Options{Warmup: 1_000, Measure: 4_000})
	c := Cell{Config: pipeline.BaseConfig(), Workload: "chess"}
	if _, err := r.RunCell(context.Background(), c); err != nil {
		t.Fatalf("warm run: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunCell(ctx, c); err != nil {
		t.Fatalf("memoized cell under a canceled context: %v", err)
	}
	fresh := Cell{Config: pipeline.BaseConfig(), Workload: "sparse"}
	if _, err := r.RunCell(ctx, fresh); !errors.Is(err, context.Canceled) {
		t.Fatalf("fresh cell under a canceled context: err = %v, want context.Canceled", err)
	}
	if st := r.Stats(); st.Simulated != 1 {
		t.Fatalf("simulated = %d, want 1 (the warm run only)", st.Simulated)
	}
}
