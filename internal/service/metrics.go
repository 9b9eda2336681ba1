package service

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// metrics is the daemon's observable state: queue/worker gauges, traffic
// and dedup counters, and a per-job latency histogram. Rendered as
// Prometheus-style text by /metrics.
type metrics struct {
	start time.Time

	jobsSubmitted atomic.Uint64
	jobsRejected  atomic.Uint64 // queue-full and draining refusals
	jobsDone      atomic.Uint64
	jobsFailed    atomic.Uint64

	jobsShed    atomic.Uint64 // overload evictions and high-water refusals
	rateLimited atomic.Uint64 // tenant token-bucket refusals

	cellsCompleted atomic.Uint64
	cellsFailed    atomic.Uint64
	cacheHits      atomic.Uint64
	cacheMisses    atomic.Uint64 // fresh executions
	merged         atomic.Uint64 // singleflight-deduped concurrent cells
	degradedCells  atomic.Uint64 // fresh simulations refused by the open breaker

	// Runner work, folded in from each task's runner when it returns.
	simulated  atomic.Uint64 // detailed simulations executed (attempts, including retries)
	ckptHits   atomic.Uint64 // cells answered from the on-disk checkpoint
	retries    atomic.Uint64 // transient failures retried
	failures   atomic.Uint64 // cells that failed after exhausting retries
	ckptErrors atomic.Uint64 // checkpoint writes that failed (the cell still succeeds)

	journalRecords atomic.Uint64 // successful journal appends (fed to the journal)
	journalErrors  atomic.Uint64 // failed journal appends
	jobsRecovered  atomic.Uint64 // jobs re-enqueued from the journal at boot

	activeJobs  atomic.Int64
	workersBusy atomic.Int64

	// Latency histograms: lat is per-job submit-to-finish latency; win is
	// per-window detailed replay latency, fed by the probe's Window observer.
	lat, win msHistogram

	// Plan exchange: the pubsd_plan_* family (zero-valued on a standalone
	// daemon). Peer hits count plans fetched from peers instead of computed
	// (pushed plans count as pubsd_snapshot_peer_plans_total when adopted);
	// pushes count plans this node serialized and replicated proactively.
	planPeerHits   atomic.Uint64
	planPushes     atomic.Uint64
	planPushBytes  atomic.Uint64
	planFetchBytes atomic.Uint64

	// cluster is the pubsd_cluster_* family, fed by the cluster package
	// (zero-valued on a standalone daemon).
	cluster ClusterCounters

	// probe rides the daemon's root context: every run adds its idle-skip
	// counts to it and every sampled window its replay time to win.
	probe pipeline.Probe
}

// latBuckets covers up to ~2^39 ms (≈17 years) of job latency.
const latBuckets = 40

func newMetrics() *metrics {
	m := &metrics{start: time.Now()}
	m.lat.h, m.win.h = stats.NewHistogram(latBuckets), stats.NewHistogram(latBuckets)
	m.probe.Window = m.win.observe
	return m
}

// msHistogram is a latency histogram safe for concurrent use: log2 buckets
// of whole milliseconds (bucket i covers [2^(i-1), 2^i) ms, bucket 0 is
// <1 ms) over the stats package histogram.
type msHistogram struct {
	mu sync.Mutex
	h  *stats.Histogram
}

func (l *msHistogram) observe(d time.Duration) {
	l.mu.Lock()
	l.h.Add(bits.Len64(uint64(max(d.Milliseconds(), 0))))
	l.mu.Unlock()
}

func (l *msHistogram) count() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.h.Total()
}

// quantileMS returns the upper bound in ms of the bucket holding the
// q-quantile observation (0 when empty).
func (l *msHistogram) quantileMS(q float64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.h.Total() == 0 {
		return 0
	}
	return 1 << l.h.Quantile(q)
}

// addRunnerStats folds one task runner's counters into the daemon's.
func (m *metrics) addRunnerStats(st experiments.RunnerStats) {
	m.simulated.Add(st.Simulated)
	m.ckptHits.Add(st.CheckpointHits)
	m.retries.Add(st.Retries)
	m.failures.Add(st.Failures)
	m.ckptErrors.Add(st.CheckpointErrors)
}

// snapshotGauges is what the Service contributes at render time.
type snapshotGauges struct {
	queueDepth    int
	workers       int
	cacheEntries  int
	snapPlans     uint64 // functional fast-forward passes for sampled jobs (local only)
	snapSeeded    uint64 // of those, passes seeded from a resident snapshot of the same program
	snapPeerPlans uint64 // plans fetched or adopted from the cluster instead of computed
	snapHits      uint64 // sampled runs answered from shared snapshots
	snapEvictions uint64 // predecoded plans evicted by the trace byte budget
	traceResident int64  // bytes of snapshots + predecoded traces + wire memos resident
	traceBudget   int64  // configured budget (0 = unbounded)
	draining      bool
	breakerState  int    // 0 closed | 1 half-open | 2 open
	breakerTrips  uint64 // closed→open transitions since boot
}

// render emits the metrics in Prometheus text exposition format. Every
// series carries a `node` label — the daemon's stable cluster identity —
// so dashboards scraping a whole fabric can attribute load per node.
func (m *metrics) render(node string, g snapshotGauges) string {
	var sb strings.Builder
	up := time.Since(m.start).Seconds()
	line := func(name string, v any) {
		fmt.Fprintf(&sb, "%s{node=%q} %v\n", name, node, v)
	}
	b := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	line("pubsd_uptime_seconds", fmt.Sprintf("%.3f", up))
	line("pubsd_draining", b(g.draining))

	line("pubsd_queue_depth", g.queueDepth)
	line("pubsd_active_jobs", m.activeJobs.Load())
	line("pubsd_workers", g.workers)
	line("pubsd_workers_busy", m.workersBusy.Load())

	line("pubsd_jobs_submitted_total", m.jobsSubmitted.Load())
	line("pubsd_jobs_rejected_total", m.jobsRejected.Load())
	line("pubsd_jobs_shed_total", m.jobsShed.Load())
	line("pubsd_rate_limited_total", m.rateLimited.Load())
	line("pubsd_jobs_completed_total", m.jobsDone.Load())
	line("pubsd_jobs_failed_total", m.jobsFailed.Load())

	line("pubsd_breaker_state", g.breakerState)
	line("pubsd_breaker_trips_total", g.breakerTrips)
	line("pubsd_degraded_cells_total", m.degradedCells.Load())

	line("pubsd_journal_records_total", m.journalRecords.Load())
	line("pubsd_journal_errors_total", m.journalErrors.Load())
	line("pubsd_journal_recovered_jobs", m.jobsRecovered.Load())

	line("pubsd_cluster_peers", m.cluster.peers.Load())
	line("pubsd_cluster_steals_total", m.cluster.steals.Load())
	line("pubsd_cluster_peer_cache_hits_total", m.cluster.peerHits.Load())
	line("pubsd_cluster_remote_cells_total", m.cluster.remoteCells.Load())
	line("pubsd_cluster_node_failures_total", m.cluster.nodeFailures.Load())
	line("pubsd_cluster_result_pushes_total", m.cluster.resultPushes.Load())

	// Plan exchange: how the fleet shares functional fast-forward work.
	// pubsd_snapshot_plans_total (below) stays local-passes-only, so
	// summing it across a cluster counts the fleet's true functional cost.
	line("pubsd_plan_peer_hits_total", m.planPeerHits.Load())
	line("pubsd_plan_pushes_total", m.planPushes.Load())
	line("pubsd_plan_bytes_pushed_total", m.planPushBytes.Load())
	line("pubsd_plan_bytes_fetched_total", m.planFetchBytes.Load())

	line("pubsd_cells_completed_total", m.cellsCompleted.Load())
	line("pubsd_cells_failed_total", m.cellsFailed.Load())
	line("pubsd_cache_entries", g.cacheEntries)
	line("pubsd_cache_hits_total", m.cacheHits.Load())
	line("pubsd_cache_misses_total", m.cacheMisses.Load())
	line("pubsd_singleflight_merged_total", m.merged.Load())

	// Idle-skip efficacy (pipeline §14): spans/cycles covered by null
	// skips in this daemon's runs, added once per simulation run.
	skip := m.probe.SkipTelemetry()
	line("pubsd_skip_spans_total", skip.SkipSpans)
	line("pubsd_skipped_cycles_total", skip.SkippedCycles)

	simulated := m.simulated.Load()
	line("pubsd_sims_executed_total", simulated)
	line("pubsd_runner_checkpoint_hits_total", m.ckptHits.Load())
	line("pubsd_runner_retries_total", m.retries.Load())
	line("pubsd_runner_failures_total", m.failures.Load())
	line("pubsd_runner_checkpoint_errors_total", m.ckptErrors.Load())
	line("pubsd_snapshot_plans_total", g.snapPlans)
	line("pubsd_snapshot_seeded_plans_total", g.snapSeeded)
	line("pubsd_snapshot_peer_plans_total", g.snapPeerPlans)
	line("pubsd_snapshot_hits_total", g.snapHits)
	line("pubsd_predecode_evictions_total", g.snapEvictions)
	line("pubsd_trace_resident_bytes", g.traceResident)
	line("pubsd_trace_budget_bytes", g.traceBudget)
	rate := 0.0
	if up > 0 {
		rate = float64(simulated) / up
	}
	line("pubsd_sims_per_second", fmt.Sprintf("%.3f", rate))

	for _, h := range []struct {
		name string
		l    *msHistogram
	}{{"pubsd_job_latency", &m.lat}, {"pubsd_window_replay_latency", &m.win}} {
		line(h.name+"_count", h.l.count())
		for _, q := range []float64{0.5, 0.9, 0.99} {
			fmt.Fprintf(&sb, "%s_ms{node=%q,quantile=\"%g\"} %d\n", h.name, node, q, h.l.quantileMS(q))
		}
	}
	return sb.String()
}
