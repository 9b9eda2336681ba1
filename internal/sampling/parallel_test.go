package sampling

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/iq"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// variantCases mirrors the pipeline golden-fingerprint set: every issue
// queue organisation and PUBS mode. The parallel engine must be
// bit-identical to the serial reference on all of them.
func variantCases() []struct {
	name     string
	workload string
	cfg      pipeline.Config
} {
	kind := func(k iq.Kind, name string) pipeline.Config {
		cfg := pipeline.BaseConfig()
		cfg.Name = name
		cfg.IQKind = k
		return cfg
	}
	pubs := func(name string, mutate func(*pipeline.Config)) pipeline.Config {
		cfg := pipeline.PUBSConfig()
		cfg.Name = name
		mutate(&cfg)
		return cfg
	}
	age := pipeline.BaseConfig()
	age.Name = "age"
	age.AgeMatrix = true
	return []struct {
		name     string
		workload string
		cfg      pipeline.Config
	}{
		{"base-random", "chess", pipeline.BaseConfig()},
		{"base-shifting", "chess", kind(iq.Shifting, "base-shifting")},
		{"base-circular", "chess", kind(iq.Circular, "base-circular")},
		{"base-age", "chess", age},
		{"pubs-stall", "chess", pubs("pubs-stall", func(*pipeline.Config) {})},
		{"pubs-goplay", "goplay", pubs("pubs-goplay", func(*pipeline.Config) {})},
		{"pubs-nostall", "chess", pubs("pubs-nostall", func(c *pipeline.Config) { c.PUBS.StallDispatch = false })},
		{"pubs-noswitch", "chess", pubs("pubs-noswitch", func(c *pipeline.Config) { c.PUBS.ModeSwitch = false })},
		{"pubs-flexible", "chess", pubs("pubs-flexible", func(c *pipeline.Config) { c.PUBS.FlexibleSelect = true })},
		{"pubs-blind", "chess", pubs("pubs-blind", func(c *pipeline.Config) { c.PUBS.Blind = true })},
		{"pubs-age", "chess", pubs("pubs-age", func(c *pipeline.Config) { c.AgeMatrix = true })},
		{"pubs-distributed", "chess", pubs("pubs-distributed", func(c *pipeline.Config) { c.DistributedIQ = true })},
		{"pubs-profile", "chess", pubs("pubs-profile", func(c *pipeline.Config) { c.Profile = true })},
		{"pubs-wrongpath", "chess", pubs("pubs-wrongpath", func(c *pipeline.Config) { c.WrongPathDecode = true })},
	}
}

// TestParallelBitIdenticalToSerial: for every machine variant, the
// parallel engine's Result — per-window measurements, aggregates, and the
// merged pipeline.Result — must equal the serial reference bit for bit.
func TestParallelBitIdenticalToSerial(t *testing.T) {
	ctx := context.Background()
	for _, vc := range variantCases() {
		t.Run(vc.name, func(t *testing.T) {
			prog := workload.MustProgram(vc.workload)
			serialPlan := Config{Windows: 3, FastForward: 30_000, Warmup: 5_000, Measure: 10_000}
			parallelPlan := serialPlan
			parallelPlan.Parallel = 4

			want, err := Run(ctx, vc.cfg, prog, serialPlan)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(ctx, vc.cfg, prog, parallelPlan)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("parallel result diverged from serial:\n got %+v\nwant %+v", got, want)
			}
			if !reflect.DeepEqual(got.Merged(), want.Merged()) {
				t.Fatal("merged results diverged")
			}
		})
	}
}

// TestRunWindowsSharedAcrossConfigs: windows planned once through a Store
// feed every machine variant, and each produces the same Result as a
// self-planned serial run — snapshot sharing changes cost, never results.
func TestRunWindowsSharedAcrossConfigs(t *testing.T) {
	prog := workload.MustProgram("parser")
	plan := Config{Windows: 3, FastForward: 30_000, Warmup: 5_000, Measure: 10_000, Parallel: 2}
	store := NewStore()
	ctx := context.Background()

	cfgs := []pipeline.Config{pipeline.BaseConfig(), pipeline.PUBSConfig()}
	age := pipeline.PUBSConfig()
	age.Name = "pubs+age"
	age.AgeMatrix = true
	cfgs = append(cfgs, age)

	for _, cfg := range cfgs {
		windows, err := store.Windows(ctx, prog, plan)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sweepOne(ctx, cfg, prog, plan, windows)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(ctx, cfg, workload.MustProgram("parser"), Config{
			Windows: plan.Windows, FastForward: plan.FastForward,
			Warmup: plan.Warmup, Measure: plan.Measure,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: shared-window result diverged from self-planned serial run", cfg.Name)
		}
	}
	st := store.Stats()
	if st.Plans != 1 {
		t.Errorf("store planned %d times for one (program, plan), want 1", st.Plans)
	}
	if st.Hits != uint64(len(cfgs)-1) {
		t.Errorf("store hits = %d, want %d", st.Hits, len(cfgs)-1)
	}
}

// TestStoreSingleflight: concurrent requests for one key compute once.
func TestStoreSingleflight(t *testing.T) {
	prog := workload.MustProgram("chess")
	plan := Config{Windows: 2, FastForward: 20_000, Warmup: 2_000, Measure: 5_000}
	store := NewStore()
	const callers = 8
	var wg sync.WaitGroup
	outs := make([][]Window, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := store.Windows(context.Background(), workload.MustProgram("chess"), plan)
			if err != nil {
				t.Error(err)
				return
			}
			outs[i] = w
		}(i)
	}
	wg.Wait()
	st := store.Stats()
	if st.Plans != 1 {
		t.Errorf("plans = %d, want 1", st.Plans)
	}
	if st.Plans+st.Hits != callers {
		t.Errorf("plans+hits = %d, want %d", st.Plans+st.Hits, callers)
	}
	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(outs[i], outs[0]) {
			t.Fatalf("caller %d got different windows", i)
		}
	}
	// A different geometry is a different key.
	other := plan
	other.FastForward++
	if _, err := store.Windows(context.Background(), prog, other); err != nil {
		t.Fatal(err)
	}
	if got := store.Len(); got != 2 {
		t.Errorf("store holds %d plans, want 2", got)
	}
	// Parallel does not change the key: no new plan.
	par := plan
	par.Parallel = 4
	if _, err := store.Windows(context.Background(), prog, par); err != nil {
		t.Fatal(err)
	}
	if got := store.Stats().Plans; got != 2 {
		t.Errorf("Parallel changed the plan key (plans = %d, want 2)", got)
	}
}

// TestStoreFailureNotCached: a cancelled planning pass must not poison the
// store for later callers.
func TestStoreFailureNotCached(t *testing.T) {
	prog := workload.MustProgram("chess")
	plan := Config{Windows: 2, FastForward: 20_000, Warmup: 2_000, Measure: 5_000}
	store := NewStore()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := store.Windows(ctx, prog, plan); err == nil {
		t.Fatal("cancelled planning succeeded")
	}
	w, err := store.Windows(context.Background(), prog, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 2 {
		t.Fatalf("windows = %d, want 2", len(w))
	}
}

// TestMergedAggregates: the merged pipeline.Result sums the windows and
// reproduces the sampling aggregates.
func TestMergedAggregates(t *testing.T) {
	ctx := context.Background()
	res, err := Run(ctx, pipeline.BaseConfig(), workload.MustProgram("parser"),
		Config{Windows: 3, FastForward: 30_000, Warmup: 5_000, Measure: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Merged()
	if m.Committed != res.Committed || m.Cycles != res.Cycles {
		t.Fatalf("merged totals %d/%d, want %d/%d", m.Committed, m.Cycles, res.Committed, res.Cycles)
	}
	if m.IPC() != res.IPC() {
		t.Errorf("merged IPC %f, sampling IPC %f", m.IPC(), res.IPC())
	}
	var wantL1D uint64
	for _, w := range res.Windows {
		wantL1D += w.Result.L1D.Accesses
	}
	if m.L1D.Accesses != wantL1D {
		t.Errorf("merged L1D accesses %d, want %d", m.L1D.Accesses, wantL1D)
	}
	if m.Name != "base" {
		t.Errorf("merged name %q", m.Name)
	}
}
