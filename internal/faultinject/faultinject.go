// Package faultinject is the test-only fault-injection harness: a Set of
// named injection points that production code consults at carefully
// chosen spots (the pipeline's commit loop, the experiment runner's worker
// body, the daemon's pool, journal and result cache). Tests arm a point
// to make it fire — suppressing commit to fake a hang, panicking a worker,
// or failing a run with a transient error — and the robustness tests then
// assert that every injected fault surfaces as the right typed error (see
// internal/simerr) with the rest of the campaign unharmed.
//
// A Set reaches the code it faults through the run's probe
// (pipeline.Probe) or the daemon's configuration, so each test arms its own
// Set and fault tests run in parallel. A nil Set never fires, and Fire on
// a Set with nothing armed costs one atomic load, so the hooks are safe to
// leave in hot paths. Arming a point changes nothing else: the pipeline
// keeps its idle skip, so fault tests exercise the loop that ships.
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

// Set is a group of armed injection points. The zero Set has nothing
// armed; it is safe for concurrent use.
type Set struct {
	armed atomic.Int64 // len(faults), read without the lock (fast path)

	mu     sync.Mutex
	faults map[string]*fault
}

// fault is one armed injection point.
type fault struct {
	match     string // substring the Fire detail must contain ("" = any)
	remaining int    // fires left; <0 = unlimited
}

// Arm makes the named point fire `times` times (times < 0 = every call)
// whenever the Fire detail contains match (empty match hits everything).
// Re-arming a point replaces its previous state.
func (s *Set) Arm(point, match string, times int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.faults == nil {
		s.faults = map[string]*fault{}
	}
	s.faults[point] = &fault{match: match, remaining: times}
	s.armed.Store(int64(len(s.faults)))
}

// Disarm removes one point.
func (s *Set) Disarm(point string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.faults, point)
	s.armed.Store(int64(len(s.faults)))
}

// Reset disarms everything.
func (s *Set) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.faults)
	s.armed.Store(0)
}

// Fire reports whether the named point should inject a fault for the given
// detail, consuming one firing when it does. A nil Set never fires, and
// one with nothing armed answers from a single atomic load.
func (s *Set) Fire(point, detail string) bool {
	if s == nil || s.armed.Load() == 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.faults[point]
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
