// Package pipeline implements the cycle-level out-of-order superscalar core
// that ties the substrates together: front end (I-cache, perceptron
// predictor, BTB, RAS), rename/dispatch with the PUBS decode-time slice
// tables, the issue queue with priority entries, function units, the
// load/store queue with forwarding, the cache hierarchy with a stream
// prefetcher, and in-order commit. The modelled machine follows the paper's
// Table I; §V-H's scaled processor models are provided for Fig. 16.
package pipeline

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/iq"
	"repro/internal/simerr"
)

// Config describes one simulated processor.
type Config struct {
	Name string

	// Widths (Table I: 4-wide fetch, decode, issue, and commit).
	FetchWidth  int
	IssueWidth  int
	CommitWidth int

	// FrontEndDepth is the number of cycles between fetch and the earliest
	// dispatch of an instruction — the front-end pipeline the mispredicted
	// branch of Fig. 1 flows down.
	FrontEndDepth int64

	// Window structures.
	ROBSize int // Table I: 128
	IQSize  int // Table I: 64
	LSQSize int // Table I: 64

	// Physical registers (Table I: 128 int + 128 fp). 32 of each back the
	// architectural state, so in-flight destinations are bounded by
	// PhysIntRegs-32 and PhysFPRegs-32.
	PhysIntRegs int
	PhysFPRegs  int

	// Function units (Table I / Cortex-A72: 2 iALU, 1 iMULT/DIV, 2 Ld/St,
	// 2 FPU).
	NumIntALU    int
	NumIntMulDiv int
	NumLdSt      int
	NumFPU       int

	// Branch handling.
	Bpred           bpred.Config
	BTBSets         int // Table I: 2K sets
	BTBWays         int // Table I: 4-way
	RASDepth        int
	RecoveryPenalty int64 // Table I: 10-cycle state recovery
	BTBMissPenalty  int64 // decode-time redirect bubble on a taken BTB miss

	// Issue queue organisation.
	IQKind    iq.Kind
	AgeMatrix bool
	// DistributedIQ splits the unified queue into one queue per
	// function-unit pool (§III-C2, AMD Zen style), dividing capacity and
	// priority entries across them.
	DistributedIQ bool

	// PUBS (the paper's scheme; Enable=false gives the base machine).
	PUBS core.Config

	// Memory hierarchy.
	L1I        cache.Config
	L1D        cache.Config
	L2         cache.Config
	MemLatency int64 // Table I: 300-cycle minimum
	MemBW      int64 // Table I: 8 B/cycle
	Prefetch   bool  // stream prefetcher into L2

	StoreBufferSize int

	// Profile enables per-run analysis instrumentation: an IQ-occupancy
	// histogram sampled every cycle and a per-PC branch misprediction
	// profile. Off by default (costs ~10% simulation speed).
	Profile bool

	// WrongPathDecode models the pollution of the PUBS tables by wrong-path
	// instructions: while fetch is blocked on a mispredicted branch, the
	// decode stage keeps walking the *wrong* static path (fall-through on
	// conditionals, targets on direct jumps) and updates def_tab and
	// brslice_tab with what it sees, exactly as real hardware would before
	// the squash. Requires the static code (RunProgramContext provides it);
	// ignored on raw streams. Default off — the ablation quantifies that
	// the correct-path-only simplification is second-order.
	WrongPathDecode bool

	// noIdleSkip disables event-driven idle-cycle skipping and polls every
	// structure every cycle, the pre-skip behaviour. The default (skip
	// enabled) fast-forwards across provably quiescent spans — fetch
	// drained or redirecting, no selectable instruction, store buffer
	// waiting on a port — directly to the next wakeup event (a cache-miss
	// completion, a function-unit writeback, a redirect arrival, a
	// front-end pipeline arrival). Skipping is bit-identical by
	// construction: a span is only skipped when the just-simulated cycle
	// mutated nothing, and the per-cycle accumulators that do tick during
	// stalls (dispatch-stall counters, the weighted-dispatch RNG, the
	// profile occupancy histogram) are integrated over the span. The poll
	// loop is the reference the skipping loop is tested against, so only
	// tests set this field. See DESIGN.md §14.
	noIdleSkip bool

	// WatchdogCycles is the liveness budget: a run that commits nothing for
	// this many consecutive polled (non-skipped) cycles is declared
	// deadlocked and aborted with a DeadlockError (wrapping
	// simerr.ErrDeadlock) carrying an occupancy dump. Idle-skipped spans
	// do not count against the budget: a skip is only taken when the next
	// wakeup event is known, which is a proof of progress, not a hang.
	// 0 selects DefaultWatchdogCycles; negative disables the watchdog
	// entirely.
	WatchdogCycles int64

	// Checks enables the structural invariant sweep: every
	// checkInterval cycles the issue queue, ROB, LSQ, and PUBS tables are
	// audited (entry counts within capacity, priority-entry usage within
	// the configured reservation, table pointers within their index/tag
	// ranges). A violation aborts the run with an error wrapping
	// simerr.ErrInvariant. Off by default; costs a few percent.
	Checks bool
}

// DefaultWatchdogCycles is the liveness budget used when
// Config.WatchdogCycles is zero. No modelled machine goes anywhere near
// this long without committing unless its scheduler has genuinely wedged.
const DefaultWatchdogCycles = 500_000

// BaseConfig returns the paper's base processor (Table I) with PUBS
// disabled: the "base" every speedup is measured against.
func BaseConfig() Config {
	return Config{
		Name:          "base",
		FetchWidth:    4,
		IssueWidth:    4,
		CommitWidth:   4,
		FrontEndDepth: 4,
		ROBSize:       128,
		IQSize:        64,
		LSQSize:       64,
		PhysIntRegs:   128,
		PhysFPRegs:    128,
		NumIntALU:     2,
		NumIntMulDiv:  1,
		NumLdSt:       2,
		NumFPU:        2,

		Bpred:           bpred.Default(),
		BTBSets:         2048,
		BTBWays:         4,
		RASDepth:        16,
		RecoveryPenalty: 10,
		BTBMissPenalty:  3,

		IQKind:    iq.Random,
		AgeMatrix: false,
		PUBS:      core.Config{Enable: false},

		L1I:        cache.Config{Name: "L1I", Sets: 64, Ways: 8, LineBytes: 64, HitLat: 0, MSHRs: 4},
		L1D:        cache.Config{Name: "L1D", Sets: 64, Ways: 8, LineBytes: 64, HitLat: 2, MSHRs: 8},
		L2:         cache.Config{Name: "L2", Sets: 2048, Ways: 16, LineBytes: 64, HitLat: 12, MSHRs: 16},
		MemLatency: 300,
		MemBW:      8,
		Prefetch:   true,

		StoreBufferSize: 8,
	}
}

// PUBSConfig returns the paper's full PUBS machine: the base processor plus
// the default Table II PUBS parameters.
func PUBSConfig() Config {
	c := BaseConfig()
	c.Name = "pubs"
	c.PUBS = core.DefaultConfig()
	return c
}

// Size selects one of the Fig. 16 processor models.
type Size int

// Processor sizes for the §V-H sensitivity study. Seven parameters scale;
// everything else keeps its default value.
const (
	Small Size = iota
	Medium
	Large
	Huge
)

func (s Size) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	case Huge:
		return "huge"
	default:
		return fmt.Sprintf("size(%d)", int(s))
	}
}

// Sizes lists the four models in ascending order.
func Sizes() []Size { return []Size{Small, Medium, Large, Huge} }

// ScaledConfig returns the base machine scaled to the given model (Table IV
// analogue): width, IQ, LSQ, ROB, physical registers, and function units.
func ScaledConfig(s Size) Config {
	c := BaseConfig()
	switch s {
	case Small:
		c.FetchWidth, c.IssueWidth, c.CommitWidth = 2, 2, 2
		c.IQSize, c.LSQSize, c.ROBSize = 32, 32, 64
		c.PhysIntRegs, c.PhysFPRegs = 64, 64
		c.NumIntALU, c.NumIntMulDiv, c.NumLdSt, c.NumFPU = 1, 1, 1, 1
	case Medium:
		// The default.
	case Large:
		c.FetchWidth, c.IssueWidth, c.CommitWidth = 6, 6, 6
		c.IQSize, c.LSQSize, c.ROBSize = 128, 128, 256
		c.PhysIntRegs, c.PhysFPRegs = 256, 256
		c.NumIntALU, c.NumIntMulDiv, c.NumLdSt, c.NumFPU = 3, 2, 3, 3
	case Huge:
		c.FetchWidth, c.IssueWidth, c.CommitWidth = 8, 8, 8
		c.IQSize, c.LSQSize, c.ROBSize = 256, 256, 512
		c.PhysIntRegs, c.PhysFPRegs = 512, 512
		c.NumIntALU, c.NumIntMulDiv, c.NumLdSt, c.NumFPU = 4, 2, 4, 4
	default:
		panic(fmt.Sprintf("pipeline: unknown size %d", s))
	}
	c.Name = "base-" + s.String()
	return c
}

// Validate checks structural consistency. Every rejection wraps
// simerr.ErrInvalidConfig so campaign code can classify it with errors.Is.
func (c Config) Validate() error {
	invalid := func(format string, args ...any) error {
		return fmt.Errorf("%w: pipeline %s: %s", simerr.ErrInvalidConfig, c.Name, fmt.Sprintf(format, args...))
	}
	switch {
	case c.FetchWidth <= 0 || c.IssueWidth <= 0 || c.CommitWidth <= 0:
		return invalid("widths must be positive")
	case c.FrontEndDepth < 1:
		return invalid("front-end depth must be ≥ 1")
	case c.ROBSize <= 0 || c.IQSize <= 0 || c.LSQSize <= 0:
		return invalid("window sizes must be positive")
	case c.PhysIntRegs < 32 || c.PhysFPRegs < 32:
		return invalid("need at least 32 physical registers per file")
	case c.NumIntALU <= 0 || c.NumIntMulDiv <= 0 || c.NumLdSt <= 0 || c.NumFPU <= 0:
		return invalid("need at least one unit of each class")
	case c.PUBS.Enable && !c.PUBS.FlexibleSelect && c.PUBS.PriorityEntries >= c.IQSize:
		return invalid("priority entries (%d) must leave normal entries in a %d-entry IQ",
			c.PUBS.PriorityEntries, c.IQSize)
	case c.PUBS.Enable && c.IQKind != iq.Random:
		return invalid("PUBS requires the random queue")
	case c.DistributedIQ && c.IQKind != iq.Random:
		return invalid("the distributed IQ uses random queues")
	case c.DistributedIQ && c.PUBS.Enable && c.PUBS.FlexibleSelect:
		return invalid("flexible select is modelled for the unified IQ only")
	case c.StoreBufferSize <= 0:
		return invalid("store buffer must be positive")
	}
	if err := c.PUBS.Validate(); err != nil {
		return fmt.Errorf("pipeline %s: %w", c.Name, err)
	}
	return nil
}
