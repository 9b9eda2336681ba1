package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/faultinject"
	"repro/internal/iq"
	"repro/internal/simerr"
	"repro/internal/workload"
)

// TestValidateRejections: every structural impossibility must be rejected
// with an error wrapping simerr.ErrInvalidConfig, not silently clamped.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero fetch width", func(c *Config) { c.FetchWidth = 0 }},
		{"negative issue width", func(c *Config) { c.IssueWidth = -1 }},
		{"zero commit width", func(c *Config) { c.CommitWidth = 0 }},
		{"zero front-end depth", func(c *Config) { c.FrontEndDepth = 0 }},
		{"zero ROB", func(c *Config) { c.ROBSize = 0 }},
		{"zero IQ", func(c *Config) { c.IQSize = 0 }},
		{"zero LSQ", func(c *Config) { c.LSQSize = 0 }},
		{"too few int regs", func(c *Config) { c.PhysIntRegs = 31 }},
		{"too few fp regs", func(c *Config) { c.PhysFPRegs = 0 }},
		{"no ALUs", func(c *Config) { c.NumIntALU = 0 }},
		{"no load/store units", func(c *Config) { c.NumLdSt = 0 }},
		{"zero store buffer", func(c *Config) { c.StoreBufferSize = 0 }},
		{"priority entries fill the IQ", func(c *Config) {
			c.PUBS = core.DefaultConfig()
			c.PUBS.PriorityEntries = c.IQSize
		}},
		{"PUBS on a shifting queue", func(c *Config) {
			c.PUBS = core.DefaultConfig()
			c.IQKind = iq.Shifting
		}},
		{"distributed shifting queue", func(c *Config) {
			c.DistributedIQ = true
			c.IQKind = iq.Shifting
		}},
		{"zero-width confidence counter", func(c *Config) {
			c.PUBS = core.DefaultConfig()
			c.PUBS.ConfCounterBits = 0
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := BaseConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("accepted")
			}
			if !errors.Is(err, simerr.ErrInvalidConfig) {
				t.Fatalf("error %v does not wrap ErrInvalidConfig", err)
			}
		})
	}
	if err := BaseConfig().Validate(); err != nil {
		t.Errorf("base config rejected: %v", err)
	}
	if err := PUBSConfig().Validate(); err != nil {
		t.Errorf("PUBS config rejected: %v", err)
	}
}

// TestRunContextZeroMeasure: an empty measurement window is a config error,
// not a zero-division hazard downstream.
func TestRunContextZeroMeasure(t *testing.T) {
	ctx := context.Background()
	_, err := RunProgramContext(ctx, BaseConfig(), workload.MustProgram("parser"), 0, 0)
	if !errors.Is(err, simerr.ErrInvalidConfig) {
		t.Fatalf("err = %v, want ErrInvalidConfig", err)
	}
}

// TestWatchdogCatchesInjectedHang: suppressing commit mid-run must trip the
// liveness watchdog within its cycle budget and produce the full diagnosis.
func TestWatchdogCatchesInjectedHang(t *testing.T) {
	t.Parallel()
	cfg := BaseConfig()
	cfg.Name = "base-hangtest"
	cfg.WatchdogCycles = 2_000
	faults := &faultinject.Set{}
	faults.Arm(faultinject.PipelineHang, cfg.Name, 1)
	ctx := WithProbe(context.Background(), &Probe{Faults: faults})

	_, err := RunProgramContext(ctx, cfg, workload.MustProgram("parser"), 1_000, 100_000)
	if !errors.Is(err, simerr.ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	if de.Config != cfg.Name {
		t.Errorf("diagnosis names %q", de.Config)
	}
	if de.SinceCommit < cfg.WatchdogCycles {
		t.Errorf("tripped after %d cycles, budget %d", de.SinceCommit, cfg.WatchdogCycles)
	}
	// Commit stopped but dispatch kept running, so the window structures
	// must have backed up and the ROB head must be identified.
	if de.ROBLen == 0 {
		t.Error("diagnosis shows an empty ROB")
	}
	if de.Oldest == nil {
		t.Fatal("diagnosis missing the oldest stalled instruction")
	}
	// The ROB head is the next instruction in program order to commit:
	// replay the program functionally to it and check the report names it.
	if de.Oldest.Seq != de.Committed {
		t.Errorf("oldest seq %d, want %d (the first uncommitted instruction)", de.Oldest.Seq, de.Committed)
	}
	m := emu.MustNew(workload.MustProgram("parser"))
	var stalled emu.DynInst
	for m.Seq() <= de.Oldest.Seq {
		stalled, _ = m.Step()
	}
	if stalled.Seq != de.Oldest.Seq || de.Oldest.PC != stalled.PC || de.Oldest.Inst != fmt.Sprint(stalled.Inst) {
		t.Errorf("oldest = seq %d pc %d %q, want the stalled instruction seq %d pc %d %q",
			de.Oldest.Seq, de.Oldest.PC, de.Oldest.Inst, stalled.Seq, stalled.PC, stalled.Inst)
	}
	msg := de.Error()
	for _, want := range []string{"no commit", "ROB", "IQ", "LSQ", "oldest"} {
		if !strings.Contains(msg, want) {
			t.Errorf("dump missing %q:\n%s", want, msg)
		}
	}
}

// TestWatchdogQuietOnHealthyRun: the default budget must never trip on a
// normal simulation.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	ctx := context.Background()
	cfg := PUBSConfig()
	cfg.WatchdogCycles = 10_000 // far tighter than the default, still quiet
	if _, err := RunProgramContext(ctx, cfg, workload.MustProgram("parser"), 5_000, 20_000); err != nil {
		t.Fatal(err)
	}
}

// TestRunContextCancellation: a cancelled context stops the simulation with
// an error wrapping context.Canceled; an expired deadline surfaces as
// simerr.ErrTimeout.
func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunProgramContext(ctx, BaseConfig(), workload.MustProgram("parser"), 1_000, 100_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, err = RunProgramContext(ctx, BaseConfig(), workload.MustProgram("parser"), 1_000, 100_000)
	if !errors.Is(err, simerr.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

// TestInvariantChecksCleanRun: the structural sweep, including the IQ
// ready-set audit, must stay silent on a healthy machine of every issue-
// queue organisation — it exists to catch corruption, not to veto correct
// configurations.
func TestInvariantChecksCleanRun(t *testing.T) {
	ctx := context.Background()
	for _, org := range iqOrganisations() {
		cfg := org.cfg
		cfg.Checks = true
		if _, err := RunProgramContext(ctx, cfg, workload.MustProgram("parser"), 5_000, 20_000); err != nil {
			t.Errorf("%s: %v", org.name, err)
		}
	}
}
