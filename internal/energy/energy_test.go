package energy

import (
	"context"
	"strings"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/workload"
)

func TestEstimateComponents(t *testing.T) {
	var res pipeline.Result
	res.Name = "synthetic"
	res.Committed = 1000
	res.Cycles = 500
	res.Issued = 900
	res.CondBranches = 100
	res.L1D.Accesses = 200
	res.L1I.Accesses = 50
	res.L2.Accesses = 20
	res.L2.Misses = 5
	cfg := pipeline.BaseConfig()
	c := Defaults()
	rep := Estimate(cfg, res, c)

	if rep.PUBS != 0 {
		t.Error("base machine must have zero PUBS energy")
	}
	wantCaches := 250*c.L1Access + 20*c.L2Access
	if rep.Caches != wantCaches {
		t.Errorf("caches = %f, want %f", rep.Caches, wantCaches)
	}
	if rep.Memory != 5*c.MemAccess {
		t.Errorf("memory = %f", rep.Memory)
	}
	if rep.Leakage != 500*c.LeakPerCycle {
		t.Errorf("leakage = %f", rep.Leakage)
	}
	if rep.EPI() <= 0 {
		t.Error("EPI must be positive")
	}
	sum := rep.Caches + rep.Memory + rep.Pipeline + rep.Predictor + rep.Leakage
	if rep.Total() != sum {
		t.Error("total does not add up")
	}
}

func TestPUBSEnergyAccounted(t *testing.T) {
	var res pipeline.Result
	res.Committed = 1000
	res.DecodedBranches = 100
	res.Cycles = 1
	cfg := pipeline.PUBSConfig()
	rep := Estimate(cfg, res, Defaults())
	if rep.PUBS <= 0 {
		t.Error("PUBS machine must charge table energy")
	}
	if rep.TableOverheadPct() <= 0 || rep.TableOverheadPct() > 50 {
		t.Errorf("table overhead %.2f%% implausible", rep.TableOverheadPct())
	}
}

// TestPUBSNetEnergyWin: on a compute D-BP workload, PUBS's speedup must
// outweigh its table-access energy — the extended Table III argument.
func TestPUBSNetEnergyWin(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := context.Background()
	prog := workload.MustProgram("chess")
	base, err := pipeline.RunProgramContext(ctx, pipeline.BaseConfig(), prog, 50_000, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	pubs, err := pipeline.RunProgramContext(ctx, pipeline.PUBSConfig(), prog, 50_000, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	cp := Compare{
		Base:  Estimate(pipeline.BaseConfig(), base, Defaults()),
		Other: Estimate(pipeline.PUBSConfig(), pubs, Defaults()),
	}
	if cp.SavingsPct() <= 0 {
		t.Errorf("PUBS should save net energy on chess, got %+.2f%%", cp.SavingsPct())
	}
	// The tables themselves must be a small fraction of total energy.
	if oh := cp.Other.TableOverheadPct(); oh > 2.0 {
		t.Errorf("PUBS table energy %.2f%% of total — should be marginal", oh)
	}
	out := cp.Table()
	for _, want := range []string{"caches", "leakage", "net energy saving"} {
		if !strings.Contains(out, want) {
			t.Errorf("energy table missing %q:\n%s", want, out)
		}
	}
}

func TestCostKB(t *testing.T) {
	if kb := CostKB(pipeline.PUBSConfig().PUBS); kb < 3.5 || kb > 4.5 {
		t.Errorf("cost %.2f KB", kb)
	}
}
