package pipeline

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/iq"
	"repro/internal/isa"
	"repro/internal/workload"
)

// TestPriorityEntriesExercised: on a D-BP workload, PUBS must actually
// route instructions through priority entries, and too few entries must
// stall dispatch (the left edge of Fig. 10).
func TestPriorityEntriesExercised(t *testing.T) {
	cfg := PUBSConfig()
	cfg.PUBS.PriorityEntries = 2
	two := runBench(t, cfg, "goplay", 30_000, 100_000)
	if two.DispatchStallPriority == 0 {
		t.Error("2 priority entries should stall on a D-BP workload")
	}
	cfg6 := PUBSConfig()
	six := runBench(t, cfg6, "goplay", 30_000, 100_000)
	if six.DispatchStallPriority >= two.DispatchStallPriority {
		t.Errorf("6 entries stall (%d) not below 2 entries stall (%d)",
			six.DispatchStallPriority, two.DispatchStallPriority)
	}
	if six.IPC() <= two.IPC() {
		t.Errorf("6 entries IPC %.3f not above 2 entries IPC %.3f", six.IPC(), two.IPC())
	}
}

// TestNonStallPolicyNeverStallsOnPriority: the non-stall policy falls back
// to normal entries instead of stalling.
func TestNonStallPolicyNeverStallsOnPriority(t *testing.T) {
	cfg := PUBSConfig()
	cfg.PUBS.PriorityEntries = 2
	cfg.PUBS.StallDispatch = false
	res := runBench(t, cfg, "goplay", 20_000, 60_000)
	if res.DispatchStallPriority != 0 {
		t.Errorf("non-stall policy recorded %d priority stalls", res.DispatchStallPriority)
	}
}

// TestModeSwitchDisablesOnMemoryPressure: sparse (mcf-like, LLC MPKI ≫ 1)
// must run with PUBS switched off in essentially every window.
func TestModeSwitchDisablesOnMemoryPressure(t *testing.T) {
	res := runBench(t, PUBSConfig(), "sparse", 40_000, 80_000)
	if res.ModeSwitchChecks == 0 {
		t.Fatal("mode switch never checked")
	}
	if res.ModeEnabledWindows*5 > res.ModeSwitchChecks {
		t.Errorf("PUBS enabled in %d/%d windows on a memory-bound program",
			res.ModeEnabledWindows, res.ModeSwitchChecks)
	}
	// And on a compute-bound program it stays on.
	comp := runBench(t, PUBSConfig(), "chess", 40_000, 80_000)
	if comp.ModeEnabledWindows != comp.ModeSwitchChecks {
		t.Errorf("PUBS disabled on a compute-bound program: %d/%d",
			comp.ModeEnabledWindows, comp.ModeSwitchChecks)
	}
}

// TestAgeMatrixImprovesIPCOnDataflowCriticalCode: age priority must pay
// off where instruction age tracks criticality — latency-chain-bound E-BP
// kernels (matmul/crypto). On this suite's branch-dominated D-BP kernels
// age priority delays the young branch slices and mildly hurts; that
// divergence from the paper's SPEC D-BP AGE gains is documented in
// EXPERIMENTS.md.
func TestAgeMatrixImprovesIPCOnDataflowCriticalCode(t *testing.T) {
	base := runBench(t, BaseConfig(), "matmul", 30_000, 100_000)
	age := BaseConfig()
	age.Name = "age"
	age.AgeMatrix = true
	ageRes := runBench(t, age, "matmul", 30_000, 100_000)
	if ageRes.IPC() <= base.IPC() {
		t.Errorf("age matrix IPC %.3f not above base %.3f on matmul", ageRes.IPC(), base.IPC())
	}
	// And on a branch-dominated kernel it must stay within a modest band of
	// base (the select logic is not broken, just differently prioritised).
	baseD := runBench(t, BaseConfig(), "pathfind", 30_000, 100_000)
	ageD := runBench(t, age, "pathfind", 30_000, 100_000)
	if ageD.IPC() < baseD.IPC()*0.85 {
		t.Errorf("age matrix IPC %.3f collapsed vs base %.3f on pathfind", ageD.IPC(), baseD.IPC())
	}
}

// TestShiftingQueueAgePriority: the compacting age-ordered queue must beat
// the random queue on latency-chain code (its raison d'être) and stay
// within a modest band on branch-dominated code.
func TestShiftingQueueAgePriority(t *testing.T) {
	sh := BaseConfig()
	sh.Name = "shifting"
	sh.IQKind = iq.Shifting
	base := runBench(t, BaseConfig(), "matmul", 30_000, 100_000)
	shRes := runBench(t, sh, "matmul", 30_000, 100_000)
	if shRes.IPC() < base.IPC() {
		t.Errorf("shifting queue IPC %.3f below random %.3f on matmul", shRes.IPC(), base.IPC())
	}
	baseD := runBench(t, BaseConfig(), "chess", 30_000, 100_000)
	shD := runBench(t, sh, "chess", 30_000, 100_000)
	if shD.IPC() < baseD.IPC()*0.80 {
		t.Errorf("shifting queue IPC %.3f collapsed vs base %.3f on chess", shD.IPC(), baseD.IPC())
	}
}

// TestStoreToLoadForwarding: a tight store→load same-address pattern must
// use the forwarding path.
func TestStoreToLoadForwarding(t *testing.T) {
	ctx := context.Background()
	b := asm.New("fwd")
	buf := b.Alloc(64)
	r2, r3, r4 := isa.R(2), isa.R(3), isa.R(4)
	b.Li(r2, int64(buf))
	b.Label("top")
	b.Addi(r3, r3, 1)
	b.St(r3, r2, 0)
	b.Ld(r4, r2, 0) // forwarded from the store above
	b.Add(r3, r3, r4)
	b.Jmp("top")
	res, err := RunProgramContext(ctx, BaseConfig(), b.MustBuild(), 1_000, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.LoadsForwarded == 0 {
		t.Error("no loads forwarded on a store→load chain")
	}
}

// TestMisspecPenaltyAccounting: total misspeculation penalty must be at
// least the minimum structural cost (front-end depth + 1 execute cycle) per
// misprediction, and recovery cycles exactly 10 per misprediction.
func TestMisspecPenaltyAccounting(t *testing.T) {
	cfg := BaseConfig()
	res := runBench(t, cfg, "pathfind", 20_000, 60_000)
	if res.Mispredicts == 0 {
		t.Fatal("no mispredicts on astar-like workload")
	}
	perMiss := float64(res.MisspecPenaltyCycles) / float64(res.Mispredicts)
	if perMiss < float64(cfg.FrontEndDepth)+1 {
		t.Errorf("misspec penalty %.1f per mispredict below structural minimum", perMiss)
	}
	// Recovery accounting counts blocked-resume events (conditional and
	// indirect), each exactly RecoveryPenalty cycles.
	blocked := int64(res.Mispredicts+res.IndirectMispred) * cfg.RecoveryPenalty
	if res.RecoveryCycles > blocked {
		t.Errorf("recovery cycles %d exceed %d", res.RecoveryCycles, blocked)
	}
	// A few in-flight branches straddle the warm-up boundary (issued before
	// it, committed after), so allow a small tolerance.
	slack := 16 * cfg.RecoveryPenalty
	if res.RecoveryCycles < int64(res.Mispredicts)*cfg.RecoveryPenalty-slack {
		t.Errorf("recovery cycles %d below conditional mispredicts × penalty", res.RecoveryCycles)
	}
}

// TestPUBSReducesIQWait: with PUBS on, the misspeculation penalty per
// misprediction must shrink on a compute D-BP workload — the paper's core
// mechanism, measured directly.
func TestPUBSReducesIQWait(t *testing.T) {
	base := runBench(t, BaseConfig(), "chess", 50_000, 150_000)
	pubs := runBench(t, PUBSConfig(), "chess", 50_000, 150_000)
	basePer := float64(base.MisspecPenaltyCycles) / float64(base.Mispredicts)
	pubsPer := float64(pubs.MisspecPenaltyCycles) / float64(pubs.Mispredicts)
	if pubsPer >= basePer {
		t.Errorf("PUBS misspec penalty %.2f not below base %.2f", pubsPer, basePer)
	}
}

// TestBlindCoversEverything: the blind estimator marks every branch
// unconfident (unconfident rate 100%).
func TestBlindCoversEverything(t *testing.T) {
	cfg := PUBSConfig()
	cfg.PUBS.Blind = true
	res := runBench(t, cfg, "parser", 20_000, 60_000)
	if res.UnconfidentRate() < 0.999 {
		t.Errorf("blind unconfident rate = %.3f", res.UnconfidentRate())
	}
}

// TestCounterBitsAffectCoverage: fewer counter bits make branches confident
// sooner, so the unconfident rate must not increase when bits shrink
// (the Fig. 11 line).
func TestCounterBitsAffectCoverage(t *testing.T) {
	rate := func(bits int) float64 {
		cfg := PUBSConfig()
		cfg.PUBS.ConfCounterBits = bits
		return runBench(t, cfg, "compress", 30_000, 80_000).UnconfidentRate()
	}
	r2, r8 := rate(2), rate(8)
	if r2 > r8 {
		t.Errorf("unconfident rate at 2 bits (%.3f) above 8 bits (%.3f)", r2, r8)
	}
}

// TestWeightedDispatchUsesWholeIQ: with the mode switch forcing PUBS off
// (memory-bound workload), priority entries must still get used via the
// weighted free-list draw — capacity is not wasted.
func TestWeightedDispatchUsesWholeIQ(t *testing.T) {
	res := runBench(t, PUBSConfig(), "sparse", 40_000, 60_000)
	// No stalls attributable to reserved entries while PUBS is off, and no
	// ROB-capacity loss versus base beyond noise.
	base := runBench(t, BaseConfig(), "sparse", 40_000, 60_000)
	if res.IPC() < base.IPC()*0.98 {
		t.Errorf("mode-switched PUBS IPC %.4f lost capacity vs base %.4f", res.IPC(), base.IPC())
	}
}

// TestJrMispredictionPenalised: indirect jumps whose target alternates
// must mispredict through the BTB and block fetch like branch
// mispredictions.
func TestJrMispredictionPenalised(t *testing.T) {
	ctx := context.Background()
	b := asm.New("jr")
	ctr, tgt, tab, off, dest := isa.R(2), isa.R(3), isa.R(4), isa.R(5), isa.R(6)
	table := b.Words(0, 0) // patched with block indices below
	b.Li(tab, int64(table))
	b.Label("top")
	b.Addi(ctr, ctr, 1)
	b.Andi(tgt, ctr, 1)
	b.Shli(off, tgt, 3)
	b.Add(off, off, tab)
	b.Ld(dest, off, 0)
	b.Jr(dest) // alternates between blockA and blockB
	blockA := b.Here()
	b.Label("blockA")
	b.Addi(isa.R(7), isa.R(7), 1)
	b.Jmp("top")
	blockB := b.Here()
	b.Label("blockB")
	b.Addi(isa.R(8), isa.R(8), 1)
	b.Jmp("top")
	prog := b.MustBuild()
	prog.Data[table] = byte(blockA)
	prog.Data[table+8] = byte(blockB)

	res, err := RunProgramContext(ctx, BaseConfig(), prog, 2_000, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.IndirectJumps == 0 {
		t.Fatal("no indirect jumps executed")
	}
	if res.IndirectMispred == 0 {
		t.Error("alternating indirect targets never mispredicted")
	}
}

// TestProfileInstrumentation: with Config.Profile, the run reports an IQ
// occupancy histogram covering every cycle and a branch profile whose
// totals reconcile with the headline counters.
func TestProfileInstrumentation(t *testing.T) {
	cfg := BaseConfig()
	cfg.Profile = true
	res := runBench(t, cfg, "parser", 20_000, 60_000)
	if res.IQOccupancy == nil {
		t.Fatal("occupancy histogram missing")
	}
	if res.IQOccupancy.Total() != uint64(res.Cycles) {
		t.Errorf("histogram sampled %d cycles of %d", res.IQOccupancy.Total(), res.Cycles)
	}
	if len(res.TopBranches) == 0 {
		t.Fatal("branch profile empty")
	}
	var prof uint64
	for _, bs := range res.TopBranches {
		prof += bs.Mispredicts
		if bs.Mispredicts > bs.Executed {
			t.Errorf("branch %d: %d mispredicts > %d executions", bs.PC, bs.Mispredicts, bs.Executed)
		}
	}
	if prof > res.Mispredicts {
		t.Errorf("profiled mispredicts %d exceed total %d", prof, res.Mispredicts)
	}
	// Profile off: no histogram.
	plain := runBench(t, BaseConfig(), "parser", 20_000, 60_000)
	if plain.IQOccupancy != nil || plain.TopBranches != nil {
		t.Error("profiling data present without Config.Profile")
	}
	if plain.Cycles != res.Cycles {
		t.Errorf("profiling changed timing: %d vs %d cycles", plain.Cycles, res.Cycles)
	}
}

// TestPipeTraceOutput: the stage log must cover exactly the requested
// number of instructions with monotone stage timestamps.
func TestPipeTraceOutput(t *testing.T) {
	var buf strings.Builder
	sim, err := New(PUBSConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim.SetPipeTrace(&buf, 25)
	m, err := emu.New(workload.MustProgram("chess"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunContext(context.Background(), Stream{M: m}, 0, 5_000); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 25 {
		t.Fatalf("pipetrace has %d lines, want 25", len(lines))
	}
	for _, ln := range lines {
		var seq, pc, f, d, x, c int64
		var op, issue, rest string
		n, err := fmt.Sscanf(ln, "seq=%d pc=%d %s", &seq, &pc, &op)
		if n != 3 || err != nil {
			t.Fatalf("unparseable line %q", ln)
		}
		fi := strings.Index(ln, "F=")
		n, err = fmt.Sscanf(ln[fi:], "F=%d D=%d I=%s X=%d C=%d%s", &f, &d, &issue, &x, &c, &rest)
		if n < 5 || (err != nil && n < 5) {
			t.Fatalf("unparseable stages in %q (n=%d err=%v)", ln, n, err)
		}
		if !(f <= d && d <= x && x <= c) {
			t.Errorf("non-monotone stages: %q", ln)
		}
	}
}
