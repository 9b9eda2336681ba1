package pipeline

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/workload"
)

// TestProgressCallback: the hook fires monotonically at the configured
// granularity and covers the whole run, warm-up included.
func TestProgressCallback(t *testing.T) {
	const warmup, measure, every = 5_000, 20_000, 4_000
	var reports []uint64
	ctx := WithProgress(context.Background(), every, func(committed uint64) {
		reports = append(reports, committed)
	})
	prog, err := workload.Program("fft")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunProgramContext(ctx, BaseConfig(), prog, warmup, measure); err != nil {
		t.Fatalf("RunProgramContext: %v", err)
	}
	if len(reports) < (warmup+measure)/every-1 {
		t.Fatalf("only %d progress reports for a %d-instruction run at %d granularity",
			len(reports), warmup+measure, every)
	}
	last := uint64(0)
	for i, c := range reports {
		if c < last {
			t.Fatalf("report %d went backwards: %d after %d", i, c, last)
		}
		last = c
	}
	if last < warmup+measure-every {
		t.Fatalf("last report at %d, run target %d", last, warmup+measure)
	}
}

// TestProgressDoesNotPerturbResults: an instrumented run is bit-identical
// to a bare one — the hook observes, never steers.
func TestProgressDoesNotPerturbResults(t *testing.T) {
	prog, err := workload.Program("chess")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bare, err := RunProgramContext(ctx, PUBSConfig(), prog, 2_000, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	ctx = WithProgress(ctx, 1_000, func(uint64) {})
	hooked, err := RunProgramContext(ctx, PUBSConfig(), prog, 2_000, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	bj, _ := json.Marshal(bare)
	hj, _ := json.Marshal(hooked)
	if string(bj) != string(hj) {
		t.Fatal("progress hook perturbed the simulation result")
	}
}

// TestProgressDisabled: zero interval and nil fn are inert.
func TestProgressDisabled(t *testing.T) {
	base := context.Background()
	if ctx := WithProgress(base, 0, func(uint64) {}); ctx != base {
		t.Error("zero interval should leave the context unchanged")
	}
	if ctx := WithProgress(base, 100, nil); ctx != base {
		t.Error("nil fn should leave the context unchanged")
	}
}
