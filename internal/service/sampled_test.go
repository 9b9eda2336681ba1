package service

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sampling"
	"repro/internal/workload"
)

// TestSampledJob: a sampled campaign runs through the daemon, shares one
// fast-forward pass across its machines, and its cells equal direct
// sampling of the same (machine, workload, plan).
func TestSampledJob(t *testing.T) {
	s := testService(t, Config{Workers: 2})
	spec := CampaignSpec{
		Machines:  []MachineSpec{{Machine: "base"}, {Machine: "pubs"}, {Machine: "pubs+age"}},
		Workloads: []string{"parser"},
		Warmup:    2_000, Measure: 5_000,
		Windows: 2, FastForward: 20_000, ParallelWindows: 2,
	}
	st := waitJob(t, mustSubmit(t, s, spec))
	if st.State != JobDone {
		t.Fatalf("job: %s %v", st.State, st.Errors)
	}
	if len(st.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(st.Results))
	}

	plan := sampling.Config{Windows: 2, FastForward: 20_000, Warmup: 2_000, Measure: 5_000}
	for _, cr := range st.Results {
		if cr.Windows != 2 || cr.FastForward != 20_000 {
			t.Errorf("%s: cell record missing sampling geometry: %+v", cr.Machine, cr)
		}
		cfg, err := MachineConfig(cr.Machine)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := sampling.Run(cfg, workload.MustProgram("parser"), plan)
		if err != nil {
			t.Fatal(err)
		}
		if want := direct.Merged(); !reflect.DeepEqual(cr.Result, want) {
			t.Errorf("%s: daemon result diverged from direct sampling", cr.Machine)
		}
	}

	_, snaps := s.runnerStats()
	if snaps.Plans != 1 {
		t.Errorf("snapshot plans = %d, want 1 (one workload, one geometry)", snaps.Plans)
	}
	if snaps.Hits != 2 {
		t.Errorf("snapshot hits = %d, want 2 (remaining machines)", snaps.Hits)
	}
	for _, metric := range []string{"pubsd_snapshot_plans_total{node=\"local\"} 1", "pubsd_snapshot_hits_total{node=\"local\"} 2"} {
		if !strings.Contains(s.MetricsText(), metric) {
			t.Errorf("metrics missing %q", metric)
		}
	}
}

// TestSampledSpecKeying: sampled and contiguous campaigns with the same
// windows get distinct runners and distinct cell keys.
func TestSampledSpecKeying(t *testing.T) {
	def := testOptions()
	contiguous := CampaignSpec{Machines: []MachineSpec{{Machine: "base"}}, Workloads: []string{"chess"}}
	sampled := contiguous
	sampled.Windows = 2
	sampled.FastForward = 20_000
	if keyFor(contiguous.options(def)) == keyFor(sampled.options(def)) {
		t.Fatal("sampled and contiguous jobs share a runner key")
	}
	cells, err := sampled.Cells(0)
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Key(contiguous.options(def)) == cells[0].Key(sampled.options(def)) {
		t.Fatal("sampled and contiguous cells share a content key")
	}
}

// TestWindowMajorJob: a window-major sampled campaign completes with cells
// bit-identical to per-cell scheduling, pays one fast-forward pass, and
// exports the new trace metrics (resident bytes, predecode counters, and a
// populated replay-latency histogram).
func TestWindowMajorJob(t *testing.T) {
	s := testService(t, Config{Workers: 2, TraceBudgetBytes: 1 << 30})
	spec := CampaignSpec{
		Machines:  []MachineSpec{{Machine: "base"}, {Machine: "pubs"}, {Machine: "pubs+age"}},
		Workloads: []string{"parser"},
		Warmup:    2_000, Measure: 5_000,
		Windows: 2, FastForward: 20_000, ParallelWindows: 2,
		WindowMajor: true,
	}
	st := waitJob(t, mustSubmit(t, s, spec))
	if st.State != JobDone {
		t.Fatalf("job: %s %v", st.State, st.Errors)
	}
	if len(st.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(st.Results))
	}

	// Same cells via per-cell scheduling on a fresh daemon.
	ref := testService(t, Config{Workers: 2})
	perCell := spec
	perCell.WindowMajor = false
	rst := waitJob(t, mustSubmit(t, ref, perCell))
	if rst.State != JobDone {
		t.Fatalf("reference job: %s %v", rst.State, rst.Errors)
	}
	for i := range st.Results {
		if !reflect.DeepEqual(st.Results[i], rst.Results[i]) {
			t.Errorf("%s: window-major cell diverged from per-cell scheduling", st.Results[i].Machine)
		}
	}

	_, snaps := s.runnerStats()
	if snaps.Plans != 1 {
		t.Errorf("snapshot plans = %d, want 1", snaps.Plans)
	}
	if snaps.ResidentBytes <= 0 || snaps.ResidentBytes > 1<<30 {
		t.Errorf("resident trace bytes = %d, want within (0, budget]", snaps.ResidentBytes)
	}
	text := s.MetricsText()
	for _, metric := range []string{
		"pubsd_predecode_misses_total{node=\"local\"} 1",
		"pubsd_predecode_evictions_total{node=\"local\"} 0",
		"pubsd_trace_budget_bytes{node=\"local\"} 1073741824",
		"pubsd_trace_resident_bytes",
		"pubsd_window_replay_latency_count",
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("metrics missing %q", metric)
		}
	}
	if strings.Contains(text, "pubsd_window_replay_latency_count{node=\"local\"} 0") {
		t.Error("replay-latency histogram never observed a window")
	}
}

// TestPlanBudgetBoundsDaemon: TraceBudgetBytes bounds the daemon, not
// each window-geometry runner. Four sampled geometries under a one-byte
// budget leave exactly the most recent plan resident.
func TestPlanBudgetBoundsDaemon(t *testing.T) {
	s := testService(t, Config{Workers: 2, TraceBudgetBytes: 1})
	for _, ff := range []uint64{20_000, 21_000, 22_000, 23_000} {
		spec := CampaignSpec{
			Machines:  []MachineSpec{{Machine: "base"}},
			Workloads: []string{"parser"},
			Warmup:    2_000, Measure: 5_000,
			Windows: 2, FastForward: ff,
			WindowMajor: true,
		}
		if st := waitJob(t, mustSubmit(t, s, spec)); st.State != JobDone {
			t.Fatalf("ff %d: %s %v", ff, st.State, st.Errors)
		}
	}
	_, snaps := s.runnerStats()
	if snaps.ResidentPlans != 1 || snaps.Evictions < 3 {
		t.Errorf("four geometries under a 1-byte budget: %d plans resident, %d evictions; want 1 and >= 3",
			snaps.ResidentPlans, snaps.Evictions)
	}
}

// TestEvictedPlanIsNotServed: once later plans evict a plan, peers asking
// for it get a miss from both HasPlan and PlanData, even after it was
// served (and its wire form memoized) while resident.
func TestEvictedPlanIsNotServed(t *testing.T) {
	s := testService(t, Config{Workers: 2, TraceBudgetBytes: 1})
	var keys []string
	for _, wl := range []string{"parser", "chess", "bfs", "regex"} {
		spec := CampaignSpec{
			Machines:  []MachineSpec{{Machine: "base"}},
			Workloads: []string{wl},
			Warmup:    2_000, Measure: 5_000,
			Windows: 2, FastForward: 20_000,
		}
		if st := waitJob(t, mustSubmit(t, s, spec)); st.State != JobDone {
			t.Fatalf("%s: %s %v", wl, st.State, st.Errors)
		}
		key, err := spec.options(s.DefaultOptions()).PlanKey(wl)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.PlanData(key); !ok {
			t.Fatalf("%s: the most recent plan is not served", wl)
		}
		keys = append(keys, key)
	}
	last := len(keys) - 1
	for i, key := range keys {
		_, served := s.PlanData(key)
		if has := s.HasPlan(key); has != (i == last) || served != (i == last) {
			t.Errorf("plan %d of %d: HasPlan %v, PlanData hit %v; want both %v",
				i+1, len(keys), has, served, i == last)
		}
	}
}

// TestWindowMajorSpecKeying: WindowMajor picks a distinct runner but must
// NOT change cell content keys — results are bit-identical by
// construction.
func TestWindowMajorSpecKeying(t *testing.T) {
	def := testOptions()
	base := CampaignSpec{
		Machines: []MachineSpec{{Machine: "base"}}, Workloads: []string{"chess"},
		Windows: 2, FastForward: 20_000,
	}
	wm := base
	wm.WindowMajor = true
	if keyFor(base.options(def)) == keyFor(wm.options(def)) {
		t.Fatal("window-major job shares a runner with per-cell scheduling")
	}
	cells, err := base.Cells(0)
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Key(base.options(def)) != cells[0].Key(wm.options(def)) {
		t.Fatal("scheduling mode leaked into the cell content key")
	}
}
