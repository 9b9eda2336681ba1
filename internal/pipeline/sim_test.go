package pipeline

import (
	"context"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/workload"
)

func runBench(t testing.TB, cfg Config, name string, warmup, measure uint64) Result {
	ctx := context.Background()
	t.Helper()
	res, err := RunProgramContext(ctx, cfg, workload.MustProgram(name), warmup, measure)
	if err != nil {
		t.Fatalf("%s on %s: %v", cfg.Name, name, err)
	}
	return res
}

// TestBaseRunsAllWorkloads: the base machine simulates every benchmark and
// produces sane IPC (0 < IPC ≤ issue width).
func TestBaseRunsAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			res := runBench(t, BaseConfig(), w.Name, 50_000, 150_000)
			if res.IPC() <= 0 || res.IPC() > 4 {
				t.Errorf("IPC %f out of range", res.IPC())
			}
			t.Logf("IPC=%.3f brMPKI=%.1f llcMPKI=%.2f mispred=%.1f%%",
				res.IPC(), res.BranchMPKI(), res.LLCMPKI(), res.MispredictRate()*100)
		})
	}
}

// TestHaltTerminates: a program that halts ends the simulation cleanly.
func TestHaltTerminates(t *testing.T) {
	ctx := context.Background()
	b := asm.New("halting")
	r2 := isa.R(2)
	b.Li(r2, 5)
	b.Label("loop")
	b.Addi(r2, r2, -1)
	b.Bne(r2, isa.RZero, "loop")
	b.Halt()
	p := b.MustBuild()
	res, err := RunProgramContext(ctx, BaseConfig(), p, 0, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 12 { // 1 li + 5×(addi+bne) + halt
		t.Errorf("committed %d instructions, want 12", res.Committed)
	}
}

// TestDependentChainLatency: a dependent add chain must sustain ≈1 IPC
// (back-to-back wakeup/select), measured with warm caches and predictors.
func TestDependentChainLatency(t *testing.T) {
	ctx := context.Background()
	b := asm.New("chain")
	r2 := isa.R(2)
	b.Label("top")
	for i := 0; i < 100; i++ {
		b.Addi(r2, r2, 1)
	}
	b.Jmp("top")
	p := b.MustBuild()
	const n = 5000
	res, err := RunProgramContext(ctx, BaseConfig(), p, 2_000, n)
	if err != nil {
		t.Fatal(err)
	}
	adds := int64(n) * 100 / 101 // one jmp per 100 adds
	if res.Cycles < adds {
		t.Errorf("dependent chain: %d committed in %d cycles — faster than 1/cycle", n, res.Cycles)
	}
	if res.Cycles > adds+adds/5 {
		t.Errorf("dependent chain took %d cycles for ~%d chained adds — wakeup is not back-to-back", res.Cycles, adds)
	}
}

// TestIndependentOpsReachWidth: independent work must exploit the machine
// width (2 iALUs limit integer throughput).
func TestIndependentOpsReachWidth(t *testing.T) {
	ctx := context.Background()
	b := asm.New("ilp")
	// Four independent accumulator chains.
	b.Label("top")
	for i := 0; i < 25; i++ {
		b.Addi(isa.R(2), isa.R(2), 1)
		b.Addi(isa.R(3), isa.R(3), 1)
		b.Addi(isa.R(4), isa.R(4), 1)
		b.Addi(isa.R(5), isa.R(5), 1)
	}
	b.Jmp("top")
	p := b.MustBuild()
	res, err := RunProgramContext(ctx, BaseConfig(), p, 10_000, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	// 2 iALUs bound integer IPC near 2 (jmp is free).
	if res.IPC() < 1.5 {
		t.Errorf("independent-op IPC %.2f; expected ≈2 (iALU bound)", res.IPC())
	}
	if res.IPC() > 2.2 {
		t.Errorf("independent-op IPC %.2f exceeds the 2-iALU limit", res.IPC())
	}
}

// TestMispredictionPenaltyVisible: a hard random branch must cost cycles —
// IPC with hard branches must be well below the same code with a
// predictable branch.
func TestMispredictionPenaltyVisible(t *testing.T) {
	ctx := context.Background()
	build := func(hard bool) *isa.Program {
		b := asm.New("br")
		base := isa.R(2)
		st, t0, c := isa.R(3), isa.R(4), isa.R(5)
		acc := isa.R(6)
		tbl := b.Words(func() []uint64 {
			out := make([]uint64, 4096)
			s := uint64(12345)
			for i := range out {
				s ^= s << 13
				s ^= s >> 7
				s ^= s << 17
				out[i] = s
			}
			return out
		}()...)
		b.Li(base, int64(tbl))
		b.Li(st, 99)
		b.Label("top")
		b.Addi(st, st, 8)
		b.Andi(t0, st, 4095*8)
		b.Add(t0, t0, base)
		b.Ld(c, t0, 0)
		if hard {
			b.Andi(c, c, 1)
		} else {
			b.Li(c, 1)
		}
		b.Bne(c, isa.RZero, "taken")
		b.Addi(acc, acc, 1)
		b.Jmp("top")
		b.Label("taken")
		b.Addi(acc, acc, 3)
		b.Jmp("top")
		return b.MustBuild()
	}
	easy, err := RunProgramContext(ctx, BaseConfig(), build(false), 20_000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	hard, err := RunProgramContext(ctx, BaseConfig(), build(true), 20_000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if easy.MispredictRate() > 0.05 {
		t.Errorf("predictable branch mispredicted %.1f%%", easy.MispredictRate()*100)
	}
	if hard.MispredictRate() < 0.3 {
		t.Errorf("random branch mispredicted only %.1f%%", hard.MispredictRate()*100)
	}
	if hard.IPC() >= easy.IPC() {
		t.Errorf("misprediction has no cost: hard IPC %.2f ≥ easy IPC %.2f", hard.IPC(), easy.IPC())
	}
	if hard.MisspecPenaltyCycles == 0 {
		t.Error("misspeculation penalty not accounted")
	}
}

// TestPUBSRunsAndHelps: PUBS must run and not slow down a D-BP workload.
func TestPUBSRunsAndHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	base := runBench(t, BaseConfig(), "chess", 50_000, 200_000)
	pubs := runBench(t, PUBSConfig(), "chess", 50_000, 200_000)
	t.Logf("base IPC=%.3f pubs IPC=%.3f speedup=%.2f%%",
		base.IPC(), pubs.IPC(), (pubs.IPC()/base.IPC()-1)*100)
	if pubs.IPC() < base.IPC()*0.99 {
		t.Errorf("PUBS slowed chess down: %.3f vs %.3f", pubs.IPC(), base.IPC())
	}
	if pubs.UnconfBranches == 0 {
		t.Error("PUBS saw no unconfident branches on a D-BP workload")
	}
	if pubs.UnconfSliceInsts == 0 {
		t.Error("PUBS identified no slice instructions")
	}
}

// TestConfigValidation exercises Validate error paths.
func TestConfigValidation(t *testing.T) {
	good := BaseConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("base config invalid: %v", err)
	}
	bad := BaseConfig()
	bad.IssueWidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero issue width accepted")
	}
	bad = PUBSConfig()
	bad.PUBS.PriorityEntries = bad.IQSize
	if err := bad.Validate(); err == nil {
		t.Error("priority entries == IQ size accepted")
	}
}

// TestScaledConfigs: all four processor sizes validate and run.
func TestScaledConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, sz := range Sizes() {
		cfg := ScaledConfig(sz)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%v: %v", sz, err)
		}
		res := runBench(t, cfg, "parser", 20_000, 50_000)
		if res.IPC() <= 0 {
			t.Errorf("%v: IPC %f", sz, res.IPC())
		}
	}
}

// TestDeterministicRuns: identical configs produce identical cycle counts.
func TestDeterministicRuns(t *testing.T) {
	a := runBench(t, PUBSConfig(), "goplay", 20_000, 60_000)
	b := runBench(t, PUBSConfig(), "goplay", 20_000, 60_000)
	if a.Cycles != b.Cycles || a.Mispredicts != b.Mispredicts {
		t.Errorf("non-deterministic: %d/%d vs %d/%d cycles/mispredicts",
			a.Cycles, a.Mispredicts, b.Cycles, b.Mispredicts)
	}
}
