package main

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

func TestServeInputsSeededAndMixed(t *testing.T) {
	a := serveInputs(7, 20, serveRate)
	if b := serveInputs(7, 20, serveRate); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if c := serveInputs(8, 20, serveRate); reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave one schedule")
	}
	counts := map[string]int{}
	warmups := map[uint64]bool{}
	combos := map[string]int{}
	for i, j := range a {
		counts[j.kind]++
		if j.kind == "fresh" {
			combos[fmt.Sprintf("%s×%d", j.spec.Workloads[0], len(j.spec.Machines))]++
		}
		if i > 0 && j.due < a[i-1].due {
			t.Fatalf("job %d due before job %d", i, i-1)
		}
		switch j.kind {
		case "fresh":
			if warmups[j.spec.Warmup] {
				t.Fatalf("fresh job %d repeats warm-up %d", i, j.spec.Warmup)
			}
			warmups[j.spec.Warmup] = true
			if n := len(j.spec.Machines); n < 1 || n > 4 {
				t.Fatalf("fresh job %d has %d machines", i, n)
			}
		case "repeat":
			if o := a[j.of]; o.kind == "repeat" || j.due-o.due < serveRepeatAge || !reflect.DeepEqual(o.spec, j.spec) {
				t.Fatalf("repeat %d copies job %d due %v earlier", i, j.of, j.due-o.due)
			}
		case "duplicate":
			if o := a[j.of]; j.of != i-1 || o.kind != "fresh" || j.due-o.due > time.Millisecond || !reflect.DeepEqual(o.spec, j.spec) {
				t.Fatalf("duplicate %d does not follow its original within 1ms", i)
			}
		}
	}
	// Rounds of 3 fresh, 2 repeats, 1 duplicated fresh: 4/7, 2/7 and 1/7
	// of the jobs, except that repeats in the first second are fresh.
	n := float64(len(a))
	if f, r, d := float64(counts["fresh"])/n, float64(counts["repeat"])/n, float64(counts["duplicate"])/n; f < 4.0/7-0.01 || f > 4.0/7+0.05 || r < 2.0/7-0.05 || r > 2.0/7+0.01 || d < 1.0/7-0.01 || d > 1.0/7+0.01 {
		t.Errorf("mix fresh %.3f repeat %.3f duplicate %.3f", f, r, d)
	}
	// Whole rounds of slots, and every workload × size dealt equally often
	// (give or take the one card of a deck's unfinished round).
	if slots := counts["fresh"] + counts["repeat"]; slots%serveRound != 0 {
		t.Errorf("%d slots, not whole rounds of %d", slots, serveRound)
	}
	if len(combos) != len(serveWorkloads)*len(serveMachines) {
		t.Fatalf("%d workload × size combinations dealt", len(combos))
	}
	lo, hi := len(a), 0
	for _, c := range combos {
		lo, hi = min(lo, c), max(hi, c)
	}
	if hi-lo > 1 {
		t.Errorf("combinations dealt between %d and %d times", lo, hi)
	}
}

func TestClusterInputsSeededAndUnique(t *testing.T) {
	a := clusterInputs(3, 150)
	if b := clusterInputs(3, 150); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two campaign lists")
	}
	if c := clusterInputs(4, 150); reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave one campaign list")
	}
	type geom struct {
		wl string
		ff uint64
	}
	owner := map[geom]int{} // the client that introduced a geometry
	cells := map[string]bool{}
	for i, c := range a {
		client, k := i%clusterClients, i/clusterClients
		if k%5 == 0 && i+5*clusterClients <= len(a) {
			fresh := 0
			for j := i; j < i+5*clusterClients; j += clusterClients {
				if a[j].fresh {
					fresh++
				}
			}
			if fresh != 2 {
				t.Fatalf("client %d's block at %d has %d new geometries, want 2", client, i, fresh)
			}
		}
		g := geom{c.spec.Workloads[0], c.spec.FastForward}
		o, known := owner[g]
		switch {
		case c.fresh && known:
			t.Fatalf("campaign %d introduces a known geometry", i)
		case !c.fresh && !known:
			t.Fatalf("campaign %d reuses a geometry that does not exist", i)
		case !c.fresh && o != client:
			t.Fatalf("campaign %d of client %d reuses client %d's geometry", i, client, o)
		case c.fresh:
			owner[g] = client
		}
		if len(c.spec.Machines) != clusterMachines || !c.spec.WindowMajor {
			t.Fatalf("campaign %d is not a window-major sweep of %d machines", i, clusterMachines)
		}
		for _, m := range c.spec.Machines {
			cfg, err := m.Config()
			if err != nil {
				t.Fatalf("campaign %d: %v", i, err)
			}
			key := fmt.Sprintf("%s|%s|%d", cfg.Name, g.wl, g.ff)
			if cells[key] {
				t.Fatalf("campaign %d repeats cell %s", i, key)
			}
			cells[key] = true
		}
	}
	// The first campaigns, which the digest covers, do not depend on how
	// many campaigns a run makes.
	if short := clusterInputs(3, clusterDigestCampaigns); !reflect.DeepEqual(short, a[:clusterDigestCampaigns]) {
		t.Error("the digest prefix depends on the campaign count")
	}
}

func TestGridInputsSeeded(t *testing.T) {
	cells, rng, err := gridInputs(5)
	if err != nil {
		t.Fatal(err)
	}
	cells2, rng2, _ := gridInputs(5)
	order := rng.Perm(len(cells))
	if !reflect.DeepEqual(cells, cells2) || !reflect.DeepEqual(order, rng2.Perm(len(cells2))) {
		t.Fatal("the same seed gave two grids")
	}
	if len(cells) != len(gridMachines)*len(gridWorkloads) {
		t.Fatalf("%d cells", len(cells))
	}
	seen := make([]bool, len(cells))
	for _, i := range order {
		seen[i] = true
	}
	for i, c := range cells {
		if !seen[i] {
			t.Fatalf("cell %d never issued", i)
		}
		if c.cell.Config.Name != gridMachines[i/len(gridWorkloads)] || c.cell.Workload != gridWorkloads[i%len(gridWorkloads)] {
			t.Fatalf("cell %d is %s/%s: not in grid order", i, c.cell.Config.Name, c.cell.Workload)
		}
		if c.warmup < gridWarmup || c.warmup >= gridWarmup+gridOffsets {
			t.Fatalf("cell %d warm-up %d", i, c.warmup)
		}
	}
}
