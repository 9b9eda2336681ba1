package pipeline

import (
	"context"
	"testing"

	"repro/internal/workload"
)

// TestDistributedIQRuns: the §III-C2 machine simulates correctly and PUBS
// still earns a speedup over the distributed base on a D-BP workload.
func TestDistributedIQRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := context.Background()
	base := BaseConfig()
	base.Name = "dist-base"
	base.DistributedIQ = true
	b, err := RunProgramContext(ctx, base, workload.MustProgram("goplay"), 40_000, 120_000)
	if err != nil {
		t.Fatal(err)
	}
	pubs := PUBSConfig()
	pubs.Name = "dist-pubs"
	pubs.DistributedIQ = true
	p, err := RunProgramContext(ctx, pubs, workload.MustProgram("goplay"), 40_000, 120_000)
	if err != nil {
		t.Fatal(err)
	}
	if b.IPC() <= 0 || p.IPC() <= 0 {
		t.Fatal("distributed machines produced no progress")
	}
	if p.IPC() <= b.IPC() {
		t.Errorf("distributed PUBS IPC %.3f not above distributed base %.3f", p.IPC(), b.IPC())
	}
}

// TestFlexibleSelectUpperBound: the idealized flexible select must do at
// least as well as the partitioned design (it has no reserved-entry
// capacity loss and no dispatch stalls) on a D-BP workload.
func TestFlexibleSelectUpperBound(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := context.Background()
	part, err := RunProgramContext(ctx, PUBSConfig(), workload.MustProgram("chess"), 40_000, 120_000)
	if err != nil {
		t.Fatal(err)
	}
	flex := PUBSConfig()
	flex.Name = "pubs-flexible"
	flex.PUBS.FlexibleSelect = true
	f, err := RunProgramContext(ctx, flex, workload.MustProgram("chess"), 40_000, 120_000)
	if err != nil {
		t.Fatal(err)
	}
	if f.DispatchStallPriority != 0 {
		t.Errorf("flexible select recorded %d priority stalls", f.DispatchStallPriority)
	}
	if f.IPC() < part.IPC()*0.97 {
		t.Errorf("flexible select IPC %.3f well below partitioned %.3f", f.IPC(), part.IPC())
	}
}

// TestWrongPathDecodePollutes: enabling wrong-path decode changes the PUBS
// tables' contents (pollution is real) but the run still completes with a
// similar speedup (pollution is second-order).
func TestWrongPathDecodePollutes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := context.Background()
	clean := PUBSConfig()
	cleanRes, err := RunProgramContext(ctx, clean, workload.MustProgram("goplay"), 30_000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	wp := PUBSConfig()
	wp.Name = "pubs-wp"
	wp.WrongPathDecode = true
	wpRes, err := RunProgramContext(ctx, wp, workload.MustProgram("goplay"), 30_000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	// Pollution alters decode-side statistics (different table contents).
	if cleanRes.UnconfSliceInsts == wpRes.UnconfSliceInsts && cleanRes.Cycles == wpRes.Cycles {
		t.Error("wrong-path decode had no observable effect")
	}
	// But remains second-order on performance (< 2% relative).
	ratio := wpRes.IPC() / cleanRes.IPC()
	if ratio < 0.98 || ratio > 1.02 {
		t.Errorf("wrong-path pollution changed IPC by %.1f%% — not second-order",
			(ratio-1)*100)
	}
}
