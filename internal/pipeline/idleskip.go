package pipeline

import (
	"math"
	"sync/atomic"
)

// Event-driven idle-cycle skipping (DESIGN.md §14).
//
// The cycle loop normally polls every structure every cycle. On memory-bound
// workloads most of those cycles are null: commit is blocked on a
// fixed-latency miss, the issue queue holds nothing ready, dispatch is
// stalled on a full window, the store buffer is drained or port-blocked, and
// fetch is either redirecting or waiting on an instruction line. Rather than
// poll through such a span, the simulator jumps s.now directly to the next
// cycle at which anything can change.
//
// Correctness rests on a null-cycle induction, not on per-structure idle
// heuristics:
//
//  1. Every stage sets s.act when it mutates any persistent state:
//     committing, granting, draining a store, decoding or dispatching,
//     walking the wrong path, pulling from the instruction stream,
//     requesting an I-line, or staging a fetched instruction. A cycle
//     that ends with s.act still false mutated nothing except the
//     recorded integrable tick (below) — machine state at the end of the
//     cycle equals state at its start. Releasing due wakeups into the IQ
//     ready set (wakeup.go) is not activity: the ready set is a function
//     of the cycle and of which producers have issued, and every release
//     cycle is a completion threshold in the event calendar.
//
//  2. Every stage predicate depends on time only through comparisons
//     against absolute-cycle thresholds (uop completion cycles, fuBusy
//     busy-until cycles, D-port free cycles, fetchResumeAt, lineReadyAt,
//     fetch-queue entry age). Each threshold is pushed into the event
//     calendar (calendar.go) at the instant a stage assigns it, so the
//     calendar's next threshold bounds the next cycle at which any
//     predicate can change truth value. If it lies at
//     or beyond T, a null cycle at `now` implies cycles now+1 .. T-1 are
//     null too, with byte-identical state and therefore the identical
//     per-cycle tick.
//
//  3. The only state that legitimately advances during a stalled cycle is
//     integrable: exactly one dispatch-stall counter (recorded as
//     s.stallCtr by the stall site that fired this cycle), one xorshift
//     draw when the failing dispatch path was the weighted §III-B3 policy
//     (s.stallRand), and one occupancy-histogram sample under
//     Config.Profile. skipCycles replays k of each in closed form — the
//     RNG via the precomputed GF(2) jump matrices (rngjump.go), O(log k).
//
// The skip is disabled while any fault-injection point is armed (the
// robustness tests count per-cycle Fire calls) and after an injected hang
// (the watchdog must diagnose it on the polled path). A machine with no
// future event — a genuine deadlock — never skips, so the watchdog retains
// its full diagnostic power.

// neverWakes is nextWake's "no future event" sentinel.
const neverWakes = int64(math.MaxInt64)

// nextWake returns the earliest future cycle at which any stage predicate
// can change its truth value, or neverWakes if no such cycle is known. It
// reads the event calendar that stages feed as they create thresholds, so
// a skip attempt costs a bitmap search rather than a rescan of every uop,
// function unit, and port (nextWakeScan, kept below, is that rescan — the
// audit tests and the microbenchmark compare against it).
// The calendar may hold thresholds that cannot matter in the current machine
// state (a busy FU nobody waits for, an overwritten line-fill time): a
// spurious wakeup only shortens the skip — the landing cycle is simulated
// normally and re-enters the skip if it too is null.
func (s *Sim) nextWake() int64 {
	return s.cal.next(s.now)
}

// nextWakeScan is the pre-index threshold rescan: the ground truth the
// event index is audited against (TestWakeHeapNeverLate) and benchmarked
// against (BenchmarkNextWake). The index must never report a later wake
// than this scan — that would skip across a real threshold — while it may
// report an earlier, spurious one.
func (s *Sim) nextWakeScan() int64 {
	t := neverWakes
	consider := func(v int64) {
		if v > s.now && v < t {
			t = v
		}
	}
	// Execution completions: wake IQ dependents and unblock the ROB head.
	for i := range s.uops {
		u := &s.uops[i]
		if u.live && u.scheduled {
			consider(u.completeCycle)
		}
	}
	// Non-pipelined function units freeing up can turn a zero-grant select
	// into a granting one.
	for p := range s.fuBusy {
		for _, busy := range s.fuBusy[p] {
			consider(busy)
		}
	}
	// A D-port freeing lets a committed store drain.
	if s.sbLen > 0 {
		for _, d := range s.dports {
			consider(d)
		}
	}
	// Fetch redirect arrival and the in-flight I-line fill.
	consider(s.fetchResumeAt)
	consider(s.lineReadyAt)
	// The oldest fetched instruction clearing the front-end pipeline makes
	// it eligible for dispatch.
	if s.fqLen > 0 {
		consider(s.fetchQ[s.fqHead].fetchCycle + s.cfg.FrontEndDepth)
	}
	return t
}

// skipCycles advances the machine k cycles in one step, integrating the
// per-cycle accumulators the skipped cycles would have produced: the
// occupancy histogram sample, the dispatch-stall counter recorded by this
// cycle's stall site, and the weighted-dispatch RNG draws (jumped in
// O(log k) via the GF(2) matrices — bit-identical to k sequential draws).
// lastCommitAt advances with the span so the watchdog keeps counting
// polled cycles since the last commit (a proven-idle span is proven
// progress, not a hang). Callers guarantee the current cycle was null and
// that no stage threshold lies inside the span.
func (s *Sim) skipCycles(k int64) {
	if s.occHist != nil {
		s.occHist.AddN(s.q.Occupancy(), uint64(k))
	}
	if s.stallCtr != nil {
		*s.stallCtr += uint64(k)
	}
	if s.stallRand {
		s.rng = jumpRNG(s.rng, k)
	}
	s.lastCommitAt += k
	s.now += k
	s.skipSpans++
	s.skippedCycles += uint64(k)
}

// SkipStats reports the null-span idle-skip telemetry for the whole run so
// far: the number of skipped spans and the total cycles they covered. The
// counters live outside Result on purpose — skip on and skip off must
// produce DeepEqual-identical Results.
func (s *Sim) SkipStats() (spans, cycles uint64) {
	return s.skipSpans, s.skippedCycles
}

// SkipTelemetry is the idle-skip efficacy report: null spans skipped and
// the cycles they covered. Like SkipStats it is deliberately not part of
// Result — scheduling telemetry must never leak into the bit-identity
// surface.
type SkipTelemetry struct {
	SkipSpans     uint64 `json:"skip_spans"`
	SkippedCycles uint64 `json:"skipped_cycles"`

	// FetchBurstCycles and CommitBurstCycles are always zero and never
	// serialized. They counted the retired quasi-null burst spans
	// (DESIGN.md §14.2) and stay only because the pubsbench harness still
	// reads them; they go when that harness next changes.
	FetchBurstCycles  uint64 `json:"-"`
	CommitBurstCycles uint64 `json:"-"`
}

// SkipTelemetry returns the per-run skip counters so far.
func (s *Sim) SkipTelemetry() SkipTelemetry {
	return SkipTelemetry{SkipSpans: s.skipSpans, SkippedCycles: s.skippedCycles}
}

// globalSkip aggregates skip telemetry across every Sim in the process,
// for the daemon's /metrics endpoint. Sims flush once per RunContext (not
// per span — atomics on the skip hot path would tax exactly the cycles
// the skip exists to cheapen).
var globalSkip struct {
	skipSpans     atomic.Uint64
	skippedCycles atomic.Uint64
}

// flushSkipTelemetry publishes the counters accumulated since the last
// flush to the process-wide totals. Called once per RunContext (deferred,
// so error exits flush too).
func (s *Sim) flushSkipTelemetry() {
	cur := s.SkipTelemetry()
	if d := cur.SkipSpans - s.telemetryFlushed.SkipSpans; d != 0 {
		globalSkip.skipSpans.Add(d)
		globalSkip.skippedCycles.Add(cur.SkippedCycles - s.telemetryFlushed.SkippedCycles)
	}
	s.telemetryFlushed = cur
}

// GlobalSkipTelemetry returns the process-wide totals.
func GlobalSkipTelemetry() SkipTelemetry {
	return SkipTelemetry{
		SkipSpans:     globalSkip.skipSpans.Load(),
		SkippedCycles: globalSkip.skippedCycles.Load(),
	}
}

// SkipCounters reports the process-wide skip telemetry: null-skip spans
// and the cycles they covered. This is what pubsd's node-labeled
// pubsd_skip_* metrics export.
func SkipCounters() (skipSpans, skippedCycles uint64) {
	t := GlobalSkipTelemetry()
	return t.SkipSpans, t.SkippedCycles
}
