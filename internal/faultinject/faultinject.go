// Package faultinject is the test-only fault-injection harness: a global
// registry of named injection points that production code consults at
// carefully chosen spots (the pipeline's commit loop, the experiment
// runner's worker body). Tests arm a point to make it fire — suppressing
// commit to fake a hang, panicking a worker, or failing a run with a
// transient error — and the robustness tests then assert that every
// injected fault surfaces as the right typed error (see internal/simerr)
// with the rest of the campaign unharmed.
//
// When nothing is armed, Fire costs one atomic load, so the hooks are safe
// to leave in hot paths. Arming a point changes nothing else: the pipeline
// keeps its idle skip, so fault tests exercise the loop that ships. The
// registry is process-global: tests that arm faults must not run in
// parallel with each other and should defer Reset.
package faultinject

import (
	"strings"
	"sync"
	"sync/atomic"
)

// Injection point names. The detail string passed to Fire identifies the
// victim (a config name, a workload name) so tests can target one run out
// of a parallel campaign.
const (
	// PipelineHang suppresses the commit stage for the rest of the run once
	// fired (detail: config name). The liveness watchdog must catch it.
	PipelineHang = "pipeline.hang"
	// WorkerPanic panics the experiment worker (detail: workload name).
	WorkerPanic = "worker.panic"
	// WorkerTransient fails the worker with a retryable error (detail:
	// workload name). The runner's backoff/retry loop must absorb it.
	WorkerTransient = "worker.transient"
	// ServicePanic panics a pubsd pool worker mid-cell, above the
	// runner's own recovery (detail: workload name). The service-level
	// recover must fail only the task's cells and keep the pool serving.
	ServicePanic = "service.worker.panic"
	// JournalAppend fails a pubsd job-journal write (detail: record
	// type). The daemon must count the error and keep serving — a lossy
	// journal degrades crash recovery, never availability.
	JournalAppend = "journal.append"
	// CacheEvict drops a freshly stored result from the pubsd result
	// cache (detail: content key), simulating eviction under memory
	// pressure. Later submissions must recompute (or checkpoint-hit),
	// never fail.
	CacheEvict = "service.cache.evict"
)

var (
	armed atomic.Int64 // number of currently armed faults (fast path)

	mu     sync.Mutex
	faults = map[string]*fault{}
)

// fault is one armed injection point.
type fault struct {
	match     string // substring the Fire detail must contain ("" = any)
	remaining int    // fires left; <0 = unlimited
}

// Arm makes the named point fire `times` times (times < 0 = every call)
// whenever the Fire detail contains match (empty match hits everything).
// Re-arming a point replaces its previous state.
func Arm(point, match string, times int) {
	mu.Lock()
	defer mu.Unlock()
	if _, exists := faults[point]; !exists {
		armed.Add(1)
	}
	faults[point] = &fault{match: match, remaining: times}
}

// Disarm removes one point.
func Disarm(point string) {
	mu.Lock()
	defer mu.Unlock()
	if _, exists := faults[point]; exists {
		delete(faults, point)
		armed.Add(-1)
	}
}

// Reset disarms everything (defer this from every arming test).
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	for p := range faults {
		delete(faults, p)
	}
	armed.Store(0)
}

// Fire reports whether the named point should inject a fault for the given
// detail, consuming one firing when it does. The disarmed fast path is a
// single atomic load.
func Fire(point, detail string) bool {
	if armed.Load() == 0 {
		return false
	}
	mu.Lock()
	defer mu.Unlock()
	f, ok := faults[point]
	if !ok || f.remaining == 0 {
		return false
	}
	if f.match != "" && !strings.Contains(detail, f.match) {
		return false
	}
	if f.remaining > 0 {
		f.remaining--
	}
	return true
}
