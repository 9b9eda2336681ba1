package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/pipeline"
)

// tinyRunner returns a runner with very small windows, enough to exercise
// the harness plumbing without burning CPU.
func tinyRunner() *Runner {
	return NewRunner(Options{Warmup: 10_000, Measure: 30_000, Parallelism: 1})
}

func TestRunnerMemoizes(t *testing.T) {
	ctx := context.Background()
	r := tinyRunner()
	a, err := r.RunCell(ctx, Cell{Config: pipeline.BaseConfig(), Workload: "crypto"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunCell(ctx, Cell{Config: pipeline.BaseConfig(), Workload: "crypto"})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Error("memoized result differs")
	}
	if len(r.cache) != 1 {
		t.Errorf("cache has %d entries, want 1", len(r.cache))
	}
}

func TestRunnerDistinguishesConfigs(t *testing.T) {
	ctx := context.Background()
	r := tinyRunner()
	if _, err := r.RunCell(ctx, Cell{Config: pipeline.BaseConfig(), Workload: "crypto"}); err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.BaseConfig()
	cfg.IQSize = 32
	if _, err := r.RunCell(ctx, Cell{Config: cfg, Workload: "crypto"}); err != nil {
		t.Fatal(err)
	}
	if len(r.cache) != 2 {
		t.Errorf("cache has %d entries, want 2 (configs must not collide)", len(r.cache))
	}
}

func TestRunnerUnknownWorkload(t *testing.T) {
	ctx := context.Background()
	r := tinyRunner()
	if _, err := r.RunCell(ctx, Cell{Config: pipeline.BaseConfig(), Workload: "nope"}); err == nil {
		t.Error("unknown workload accepted")
	}
}

var (
	suiteOnce   sync.Once
	suiteShared *Runner
)

// suiteRunner is the memoizing runner TestClassifySplitsSuite and
// TestFig8QuickShape share, so the 20-program base campaign both classify
// with runs once.
func suiteRunner() *Runner {
	suiteOnce.Do(func() { suiteShared = NewRunner(Options{Warmup: 30_000, Measure: 80_000, Parallelism: 1}) })
	return suiteShared
}

func TestClassifySplitsSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := context.Background()
	cls, err := Classify(ctx, suiteRunner())
	if err != nil {
		t.Fatal(err)
	}
	if len(cls.DBP)+len(cls.EBP) != 20 {
		t.Fatalf("classification lost programs: %v | %v", cls.DBP, cls.EBP)
	}
	// The suite's design intent: the 8 hard-branch programs land in D-BP.
	for _, want := range []string{"chess", "pathfind", "parser", "sparse"} {
		if !contains(cls.DBP, want) {
			t.Errorf("%s not classified D-BP (got %v)", want, cls.DBP)
		}
	}
	for _, want := range []string{"crypto", "stencil", "quantsim", "fft"} {
		if !contains(cls.EBP, want) {
			t.Errorf("%s not classified E-BP (got %v)", want, cls.EBP)
		}
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TestCatalogue pins the experiment ids in the order cmd/experiments runs
// them: the ids are its command-line vocabulary and its output order.
func TestCatalogue(t *testing.T) {
	var ids []string
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q has no title or no Run", e.ID)
		}
		ids = append(ids, e.ID)
	}
	if got, want := strings.Join(ids, " "), "wchar 8 9 10 11 12 t3 13 15 16 aiq xdist xflex xnrg xwp apred atab"; got != want {
		t.Errorf("ids = %s, want %s", got, want)
	}
}

func TestTable3Static(t *testing.T) {
	t3 := table3()
	if kb := t3.Breakdown.TotalKB(); kb < 3.5 || kb > 4.5 {
		t.Errorf("cost %.2f KB, want ≈4.0", kb)
	}
	if t3.Unhashed.TotalKB() <= t3.Breakdown.TotalKB() {
		t.Error("full tags must cost more than hashed tags")
	}
	out := t3.Table()
	for _, want := range []string{"def_tab", "brslice_tab", "conf_tab", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table III output missing %q:\n%s", want, out)
		}
	}
}

func TestSpeedupGM(t *testing.T) {
	base := map[string]pipeline.Result{}
	next := map[string]pipeline.Result{}
	mk := func(ipc float64) pipeline.Result {
		var r pipeline.Result
		r.Cycles = 1000
		r.Committed = uint64(ipc * 1000)
		return r
	}
	base["a"], next["a"] = mk(1.0), mk(1.1)
	base["b"], next["b"] = mk(2.0), mk(2.2)
	gm := speedupGM([]string{"a", "b"}, base, next)
	if gm < 9.9 || gm > 10.1 {
		t.Errorf("geomean speedup = %f, want 10", gm)
	}
}

func TestPearson(t *testing.T) {
	if r := pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); r < 0.999 {
		t.Errorf("perfect correlation = %f", r)
	}
	if r := pearson([]float64{1, 2, 3}, []float64{6, 4, 2}); r > -0.999 {
		t.Errorf("perfect anticorrelation = %f", r)
	}
	if r := pearson([]float64{1}, []float64{1}); r != 0 {
		t.Error("degenerate input should yield 0")
	}
	if r := pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); r != 0 {
		t.Error("zero variance should yield 0")
	}
}

func TestOptionsNormalization(t *testing.T) {
	o := Options{}.normalized()
	if o.Warmup == 0 && o.Measure == 0 {
		t.Error("zero options not defaulted")
	}
	if o.Parallelism <= 0 {
		t.Error("parallelism not defaulted")
	}
	q := QuickOptions()
	d := DefaultOptions()
	if q.Measure >= d.Measure {
		t.Error("quick windows should be smaller than default")
	}
}

// TestFig8QuickShape runs the headline experiment with tiny windows and
// checks structural invariants (not magnitudes): every program appears
// once, D-BP rows precede E-BP rows, and the table renders.
func TestFig8QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := context.Background()
	f8, err := fig8(ctx, suiteRunner())
	if err != nil {
		t.Fatal(err)
	}
	if len(f8.Rows) != 20 {
		t.Fatalf("Fig8 has %d rows", len(f8.Rows))
	}
	seen := map[string]bool{}
	lastDBP := true
	for _, row := range f8.Rows {
		if seen[row.Workload] {
			t.Errorf("duplicate row %s", row.Workload)
		}
		seen[row.Workload] = true
		if row.DBP && !lastDBP {
			t.Error("D-BP rows must precede E-BP rows")
		}
		lastDBP = row.DBP
	}
	out := f8.Table()
	if !strings.Contains(out, "GM diff") || !strings.Contains(out, "GM easy") {
		t.Errorf("Fig8 table missing geomeans:\n%s", out)
	}
}
