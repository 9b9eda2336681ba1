package pipeline

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
)

// Progress reporting and the run's probe are carried on the context rather
// than the Config so that (a) they compose with every existing entry point
// — RunProgramContext, sampling windows, the experiment Runner — without
// new signatures, and (b) Config stays a pure value: its fmt-rendered form
// is the memoization and checkpoint key, which a function pointer field
// would poison with a nondeterministic address.

type progressKey struct{}

type progressHook struct {
	every uint64
	fn    func(committed uint64)
}

// WithProgress returns a context under which any simulation reports
// committed-instruction progress: fn is called synchronously from the
// simulation goroutine roughly every `every` committed instructions,
// warm-up included (the caller knows its warmup+measure target). fn must be
// fast and must not block; a service streaming NDJSON progress should hand
// the count to a channel or buffer, not do I/O inline. A zero interval or
// nil fn leaves the context unchanged.
//
// The cadence keys on committed instructions, not cycles, so it is
// unaffected by the idle-cycle skip: skipped spans commit nothing by
// construction, and the hook fires at identical counts in skip and poll
// mode (pinned by TestIdleSkipProgressCadence).
func WithProgress(ctx context.Context, every uint64, fn func(committed uint64)) context.Context {
	if every == 0 || fn == nil {
		return ctx
	}
	return context.WithValue(ctx, progressKey{}, progressHook{every: every, fn: fn})
}

// progressFrom extracts the hook; the zero hook (nil fn) means disabled.
func progressFrom(ctx context.Context) progressHook {
	h, _ := ctx.Value(progressKey{}).(progressHook)
	return h
}

// Probe is what the runs under one context report outside their Results,
// which it never changes: the fault points armed for them, their idle-skip
// totals (each run adds its own once, when RunContext returns, so the hot
// loop touches no shared memory) and each sampled window's wall-clock time.
// One Probe serves any number of concurrent runs.
type Probe struct {
	Faults *faultinject.Set    // points armed for these runs (nil = none)
	Window func(time.Duration) // each sampling.RunSweep window; concurrency-safe

	skipSpans, skippedCycles atomic.Uint64
}

type probeKey struct{}

// WithProbe returns a context whose runs report to p.
func WithProbe(ctx context.Context, p *Probe) context.Context {
	return context.WithValue(ctx, probeKey{}, p)
}

// ProbeFrom returns the context's probe, or nil.
func ProbeFrom(ctx context.Context) *Probe {
	p, _ := ctx.Value(probeKey{}).(*Probe)
	return p
}

// SkipTelemetry returns the idle-skip totals of the runs that have returned.
func (p *Probe) SkipTelemetry() SkipTelemetry {
	return SkipTelemetry{SkipSpans: p.skipSpans.Load(), SkippedCycles: p.skippedCycles.Load()}
}

// addRun adds what s skipped since its counters read (spans, cycles).
func (p *Probe) addRun(s *Sim, spans, cycles uint64) {
	if p != nil {
		p.skipSpans.Add(s.skipSpans - spans)
		p.skippedCycles.Add(s.skippedCycles - cycles)
	}
}
