package pubsim

import (
	"context"
	"strings"
	"testing"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	ctx := context.Background()
	if len(Workloads()) != 20 {
		t.Fatalf("workloads = %v", Workloads())
	}
	res, err := Run(ctx, BaseConfig(), "crypto", 5_000, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC() <= 0 || res.IPC() > 4 {
		t.Errorf("IPC = %f", res.IPC())
	}
	if _, err := Run(ctx, BaseConfig(), "missing", 0, 1000); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestCustomProgramAPI(t *testing.T) {
	ctx := context.Background()
	b := NewProgram("tiny")
	b.Li(R(2), 10)
	b.Label("loop")
	b.Addi(R(2), R(2), -1)
	b.Bne(R(2), R(0), "loop")
	b.Halt()
	prog := b.MustBuild()

	n, err := Emulate(prog, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 22 { // li + 10×(addi+bne) + halt
		t.Errorf("emulated %d instructions, want 22", n)
	}
	res, err := RunProgram(ctx, PUBSConfig(), prog, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 22 {
		t.Errorf("committed %d, want 22", res.Committed)
	}
}

func TestConfigConstructors(t *testing.T) {
	if BaseConfig().PUBS.Enable {
		t.Error("base config must have PUBS disabled")
	}
	p := PUBSConfig()
	if !p.PUBS.Enable || p.PUBS.PriorityEntries != 6 || !p.PUBS.StallDispatch {
		t.Errorf("PUBS defaults wrong: %+v", p.PUBS)
	}
	if kb := PUBSCostKB(DefaultPUBS()); kb < 3.5 || kb > 4.5 {
		t.Errorf("PUBS cost %.2f KB", kb)
	}
	if len(Sizes()) != 4 {
		t.Error("four processor sizes expected")
	}
	small, huge := ScaledConfig(Small), ScaledConfig(Huge)
	if small.IQSize >= huge.IQSize || small.IssueWidth >= huge.IssueWidth {
		t.Error("scaled configs not ordered")
	}
	if AgeMatrixDelayFactor != 1.13 {
		t.Errorf("delay factor = %v, paper says 1.13", AgeMatrixDelayFactor)
	}
}

func TestHelpers(t *testing.T) {
	if s := Speedup(1.0, 1.1); s < 9.99 || s > 10.01 {
		t.Errorf("speedup = %f", s)
	}
	if g := Geomean([]float64{4, 9}); g != 6 {
		t.Errorf("geomean = %f", g)
	}
	if p, err := WorkloadProgram("fft"); err != nil || p == nil || p.Name != "fft" {
		t.Errorf("WorkloadProgram: %v %v", p, err)
	}
}

// experiment returns the catalogue entry with the given id.
func experiment(t *testing.T, id string) Experiment {
	t.Helper()
	for _, e := range Experiments() {
		if e.ID == id {
			return e
		}
	}
	t.Fatalf("no experiment %q in the catalogue", id)
	return Experiment{}
}

func TestTable3API(t *testing.T) {
	rep, err := experiment(t, "t3").Run(context.Background(), nil) // simulates nothing
	if err != nil {
		t.Fatal(err)
	}
	if out := rep.Table(); !strings.Contains(out, "brslice_tab") {
		t.Errorf("Table III output:\n%s", out)
	}
}

func TestQuickRunnerExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := context.Background()
	r := NewRunner(Options{Warmup: 20_000, Measure: 50_000, Parallelism: 1})
	f9, err := experiment(t, "9").Run(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	out := f9.Table()
	for _, w := range Workloads() {
		if !strings.Contains(out, "\n"+w+" ") {
			t.Errorf("Fig9 table has no point for %s", w)
		}
	}
	if !strings.Contains(out, "Pearson") {
		t.Error("Fig9 table missing correlation")
	}
}

func TestSampledAPI(t *testing.T) {
	ctx := context.Background()
	plan := SamplingPlan{Windows: 2, FastForward: 30_000, Warmup: 5_000, Measure: 10_000}
	res, err := RunSampled(ctx, BaseConfig(), "hashmix", plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 2 || res.IPC() <= 0 {
		t.Errorf("sampled run: %d windows, IPC %f", len(res.Windows), res.IPC())
	}
}

func TestEnergyAPI(t *testing.T) {
	ctx := context.Background()
	res, err := Run(ctx, PUBSConfig(), "parser", 5_000, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	rep := EstimateEnergy(PUBSConfig(), res, DefaultEnergy())
	if rep.EPI() <= 0 || rep.PUBS <= 0 {
		t.Errorf("energy report: EPI %f, PUBS %f", rep.EPI(), rep.PUBS)
	}
}

func TestPipeTraceAPI(t *testing.T) {
	ctx := context.Background()
	var sb strings.Builder
	res, err := RunWithPipeTrace(ctx, BaseConfig(), "crypto", 0, 2_000, &sb, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Error("no commits")
	}
	if lines := strings.Count(sb.String(), "\n"); lines != 5 {
		t.Errorf("pipetrace lines = %d, want 5", lines)
	}
}
