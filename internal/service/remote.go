package service

import (
	"context"
	"sync/atomic"
)

// RemoteCell is one cell handed to the remote-execution seam: the content
// address the cluster shards by, and a single-cell CampaignSpec a worker
// daemon can run through its own Submit path (admission control, journal,
// runner) to produce the byte-identical CellResult. The spec carries the
// job's fully resolved windows, so the worker's own defaults can never
// shift the content address.
type RemoteCell struct {
	Key  string       `json:"key"`
	Spec CampaignSpec `json:"spec"`
}

// RemoteFunc is the dispatcher's remote-execution seam, installed via
// Config.Remote. It is called inside the result cache's singleflight
// critical section — at most one call per content address is in flight —
// so whatever fabric sits behind it observes each unique cell exactly
// once per coordinator. Returning handled=false (only meaningful with a
// nil error) declines the cell: the dispatcher falls back to the local
// worker pool, which keeps a coordinator with no live peers behaving
// exactly like a single-node daemon. When handled is true, res/err are the
// cell's outcome, errors included — a remote simulation failure is the
// cell's failure, not a reason to retry locally.
type RemoteFunc func(ctx context.Context, rc RemoteCell) (res CellResult, handled bool, err error)

// RemoteSweepFunc is the batched companion to RemoteFunc, installed via
// Config.RemoteSweep and used for window-major sampled jobs: one call
// carries a whole workload sweep's unresolved cells (each already claimed
// in the singleflight table, so the exactly-once contract is preserved at
// batch granularity). planKey is the sampling-plan content address every
// cell of the batch shares — the fabric uses it to designate exactly one
// plan-computing node per workload window set. The maps carry per-key
// outcomes; a key absent from both was declined (no live peers, ring
// churn) and falls back to the local window-major sweep. handled=false
// declines the whole batch.
type RemoteSweepFunc func(ctx context.Context, planKey string, cells []RemoteCell) (res map[string]CellResult, errs map[string]error, handled bool)

// remoteSpec builds the single-cell CampaignSpec for cell idx: its machine
// and workload plus the job's resolved simulation windows. ok is false for
// jobs whose grid could not be reconstructed (a recovery-failed job).
func (j *Job) remoteSpec(idx int) (CampaignSpec, bool) {
	if j.perMachine <= 0 || idx/j.perMachine >= len(j.spec.Machines) || idx >= len(j.cells) {
		return CampaignSpec{}, false
	}
	return CampaignSpec{
		Machines:  []MachineSpec{j.spec.Machines[idx/j.perMachine]},
		Workloads: []string{j.cells[idx].Workload},
		// Resolved windows, not the submitter's (possibly zero) ones: the
		// worker must derive the identical content address with no help
		// from its own defaults.
		Warmup:      j.opts.Warmup,
		Measure:     j.opts.Measure,
		Windows:     j.opts.SampleWindows,
		FastForward: j.opts.SampleFastForward,
		// Result-neutral scheduling knobs are relayed so the worker runs
		// the cell the way the submitter asked, but they never enter keys.
		ParallelWindows: j.opts.ParallelWindows,
		WindowMajor:     j.opts.WindowMajor,
		Tenant:          j.spec.Tenant,
		Priority:        j.spec.Priority,
	}, true
}

// AdoptResult installs a finished cell into the local result cache — the
// peer-fetch path of the cluster's two-tier cache. An existing entry wins
// (both are bit-identical by contract, and the local one may be serving
// readers). Adopted results live in memory only; the checkpoint store
// keeps holding just the cells this node simulated itself.
func (s *Service) AdoptResult(res CellResult) {
	if res.Key == "" {
		return
	}
	s.cache.Adopt(res)
}

// ClusterCounters is the pubsd_cluster_* metric family: fabric-level
// counters a cluster coordinator or worker feeds and /metrics renders on
// every node (zero-valued outside cluster mode). All methods are nil-safe
// so cluster code can run before a Service exists.
type ClusterCounters struct {
	peers        atomic.Int64  // live peer nodes on the coordinator's ring
	steals       atomic.Uint64 // cells executed away from their ring owner
	peerHits     atomic.Uint64 // cells answered by a peer-cache fetch
	remoteCells  atomic.Uint64 // cells dispatched to (or served by) the fabric
	nodeFailures atomic.Uint64 // nodes dropped from the ring after transport failures
	resultPushes atomic.Uint64 // completed cells proactively replicated to the ring successor
}

// SetPeers records the live-peer gauge.
func (c *ClusterCounters) SetPeers(n int) {
	if c != nil {
		c.peers.Store(int64(n))
	}
}

// AddSteal counts a cell executed by a node other than its ring owner.
func (c *ClusterCounters) AddSteal() {
	if c != nil {
		c.steals.Add(1)
	}
}

// AddPeerHit counts a cell answered from a peer's cache by content address.
func (c *ClusterCounters) AddPeerHit() {
	if c != nil {
		c.peerHits.Add(1)
	}
}

// AddRemoteCell counts a cell that flowed through the cluster fabric.
func (c *ClusterCounters) AddRemoteCell() {
	if c != nil {
		c.remoteCells.Add(1)
	}
}

// AddNodeFailure counts a node removed from the ring after it stopped
// answering.
func (c *ClusterCounters) AddNodeFailure() {
	if c != nil {
		c.nodeFailures.Add(1)
	}
}

// AddResultPush counts a completed cell proactively replicated to the
// node's ring successor.
func (c *ClusterCounters) AddResultPush() {
	if c != nil {
		c.resultPushes.Add(1)
	}
}

// ClusterCounters exposes the daemon's cluster metric family for the
// cluster package to feed.
func (s *Service) ClusterCounters() *ClusterCounters { return &s.m.cluster }

// NodeID returns the daemon's stable node identity — the value of the
// `node` label on every metric this daemon exports.
func (s *Service) NodeID() string { return s.cfg.NodeID }
