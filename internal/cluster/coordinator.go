package cluster

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"

	"repro/internal/service"
)

// Coordinator shards cells across worker nodes by content address. It
// plugs into a pubsd daemon as its service.RemoteFunc: the daemon keeps
// owning admission control, job lifecycle, and the cluster-wide
// singleflight (each unique cell reaches Remote once), while the
// coordinator owns placement — ring ownership first, work-stealing onto
// idle peers when the owner is saturated, and re-sharding when a node
// stops answering.
type Coordinator struct {
	hc *http.Client

	mu    sync.Mutex
	ring  *Ring
	urls  map[string]string // node ID -> base URL
	epoch uint64            // membership epoch; stamps every snapshot that leaves here

	counters *service.ClusterCounters
}

// NewCoordinator builds an empty coordinator; nodes arrive via AddNode
// (the join endpoint) or static configuration.
func NewCoordinator() *Coordinator {
	return &Coordinator{hc: SharedClient(), ring: NewRing(), urls: make(map[string]string)}
}

// BindCounters connects the coordinator to its daemon's pubsd_cluster_*
// family. Called after service.New — the daemon's Config needs Remote
// before the daemon exists — and nil-safe until then.
func (c *Coordinator) BindCounters(cc *service.ClusterCounters) {
	c.mu.Lock()
	c.counters = cc
	c.mu.Unlock()
	cc.SetPeers(c.ring.Len())
}

func (c *Coordinator) countersRef() *service.ClusterCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters
}

// AddNode adds (or re-adds, after a restart under the same ID) a worker to
// the ring and pushes the updated member map to every worker, so the peer
// tier of each node's cache sees the whole fleet.
func (c *Coordinator) AddNode(node, url string) {
	c.mu.Lock()
	c.ring.Add(node)
	c.urls[node] = url
	c.bumpEpochLocked()
	peers, epoch := c.membershipLocked()
	n := c.ring.Len()
	c.mu.Unlock()
	c.countersRef().SetPeers(n)
	c.broadcastPeers(peers, epoch)
}

// RemoveNode drops a worker from the ring. Keys it owned fall to the next
// point clockwise (see Ring.Remove), so the unfinished cells of a dead
// node re-shard across the survivors on their next dispatch.
func (c *Coordinator) RemoveNode(node string) {
	c.mu.Lock()
	c.ring.Remove(node)
	delete(c.urls, node)
	c.bumpEpochLocked()
	peers, epoch := c.membershipLocked()
	n := c.ring.Len()
	c.mu.Unlock()
	c.countersRef().SetPeers(n)
	c.broadcastPeers(peers, epoch)
}

// bumpEpochLocked advances the membership epoch past both its previous
// value and the wall clock. Successive snapshots from one coordinator are
// strictly ordered, and a replacement coordinator over the same fleet
// (fresh counter, later clock) naturally outranks its predecessor's pushes
// instead of having its own silently dropped.
func (c *Coordinator) bumpEpochLocked() {
	e := uint64(time.Now().UnixNano())
	if e <= c.epoch {
		e = c.epoch + 1
	}
	c.epoch = e
}

// Nodes snapshots the member map.
func (c *Coordinator) Nodes() map[string]string {
	peers, _ := c.membership()
	return peers
}

// membership snapshots the member map together with the epoch it was taken
// under — the pair every peersMsg that leaves the coordinator must carry
// atomically, or workers could pin a stale map under a fresh epoch.
func (c *Coordinator) membership() (map[string]string, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.membershipLocked()
}

func (c *Coordinator) membershipLocked() (map[string]string, uint64) {
	out := make(map[string]string, len(c.urls))
	for n, u := range c.urls {
		out[n] = u
	}
	return out, c.epoch
}

// broadcastPeers pushes an epoch-stamped membership snapshot to every
// worker, asynchronously and best-effort: the joiner already got the map in
// its join response, and a worker that misses a push only loses peer-fetch
// reach until the next membership change. The epoch is what makes the
// asynchrony safe — two rapid changes race their broadcasts, and workers
// keep whichever snapshot is newest, not whichever arrived last.
func (c *Coordinator) broadcastPeers(peers map[string]string, epoch uint64) {
	for _, url := range peers {
		go func(base string) {
			_ = pushPeers(context.Background(), c.hc, base, peers, epoch)
		}(url)
	}
}

// plan snapshots the dispatch order for a key: the ring owner first, then
// every other member in deterministic ring order — the steal candidates.
func (c *Coordinator) plan(key string) (order []string, urls map[string]string, owner string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	owner, ok = c.ring.Owner(key)
	if !ok {
		return nil, nil, "", false
	}
	order = append(order, owner)
	for _, n := range c.ring.Nodes() {
		if n != owner {
			order = append(order, n)
		}
	}
	urls = make(map[string]string, len(order))
	for _, n := range order {
		urls[n] = c.urls[n]
	}
	return order, urls, owner, true
}

// stealBackoffCap bounds the wait between dispatch rounds when the whole
// fleet is saturated; workers' Retry-After hints shorten it, never extend
// it past a second, so a draining queue is re-offered promptly.
const stealBackoffCap = time.Second

// Remote is the service.RemoteFunc a coordinator daemon runs with: a
// one-cell sweep batch with no plan key, so it takes dispatchBatch's
// placement loop — ring owner first, steals on saturation, node removal on
// transport failure, capped backoff when the fleet is full. With no live
// workers it declines the cell, which makes an empty or fully failed
// cluster degrade to a plain single-node daemon.
func (c *Coordinator) Remote(ctx context.Context, rc service.RemoteCell) (service.CellResult, bool, error) {
	// A declined batch returns nil maps, and a key missing from both maps
	// was declined too.
	res, errs, _ := c.RemoteSweep(ctx, "", []service.RemoteCell{rc})
	if r, ok := res[rc.Key]; ok {
		return r, true, nil
	}
	if err, ok := errs[rc.Key]; ok {
		return service.CellResult{}, true, err
	}
	return service.CellResult{}, false, nil
}

// RemoteSweep is the service.RemoteSweepFunc a coordinator daemon runs
// with: one workload sweep's unresolved cells arrive together, and leave as
// one batched dispatch per owning node instead of a POST per cell. The
// coordinator also designates the sweep's planner — the single node that
// pays the workload's functional fast-forward pass, which every other
// recipient long-polls instead of duplicating: the ring owner of the plan
// key when it is among the recipients (so repeated sweeps land their plans
// on the same node), otherwise the recipient with the most cells (the node
// with the most replay work to amortize the pass against).
func (c *Coordinator) RemoteSweep(ctx context.Context, planKey string, cells []service.RemoteCell) (map[string]service.CellResult, map[string]error, bool) {
	c.mu.Lock()
	if c.ring.Len() == 0 {
		c.mu.Unlock()
		return nil, nil, false
	}
	groups := make(map[string][]service.RemoteCell)
	for _, rc := range cells {
		owner, ok := c.ring.Owner(rc.Key)
		if !ok {
			c.mu.Unlock()
			return nil, nil, false
		}
		groups[owner] = append(groups[owner], rc)
	}
	plannerOwner, _ := c.ring.Owner(planKey)
	c.mu.Unlock()

	planner := ""
	if planKey != "" {
		if _, ok := groups[plannerOwner]; ok {
			planner = plannerOwner
		} else {
			for n, g := range groups {
				if planner == "" || len(g) > len(groups[planner]) ||
					(len(g) == len(groups[planner]) && n < planner) {
					planner = n
				}
			}
		}
	}

	res := make(map[string]service.CellResult, len(cells))
	errs := make(map[string]error)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for owner, group := range groups {
		wg.Add(1)
		go func(owner string, group []service.RemoteCell) {
			defer wg.Done()
			r, e := c.dispatchBatch(ctx, planKey, planner, group)
			mu.Lock()
			for k, v := range r {
				res[k] = v
			}
			for k, v := range e {
				errs[k] = v
			}
			mu.Unlock()
		}(owner, group)
	}
	wg.Wait()
	return res, errs, true
}

// dispatchBatch drives one owner-group of a sweep to completion — the
// coordinator's one placement loop: the (current) ring owner first, steals
// to the other members on saturation, node removal on transport failure,
// capped backoff when the fleet is full. Cells settle line by line as the
// stream arrives — a node that dies mid-stream loses only its unsettled
// remainder, which re-offers to the survivors. Keys still unresolved when
// the ring empties are left out of both maps: the caller's local-fallback
// contract.
func (c *Coordinator) dispatchBatch(ctx context.Context, planKey, planner string, cells []service.RemoteCell) (map[string]service.CellResult, map[string]error) {
	res := make(map[string]service.CellResult, len(cells))
	errs := make(map[string]error)
	pending := cells
	for len(pending) > 0 {
		order, urls, owner, ok := c.plan(pending[0].Key)
		if !ok {
			return res, errs
		}
		wait := time.Duration(0)
		for _, node := range order {
			lines, err := executeSweepBatch(ctx, c.hc, urls[node], sweepRequest{
				Cells: pending, PlanKey: planKey, Planner: planner,
			})
			// Settle whatever landed — on a clean response and on a stream
			// that died partway alike; settled cells never re-dispatch.
			if len(lines) > 0 {
				settled := make(map[string]bool, len(lines))
				cc := c.countersRef()
				for _, ln := range lines {
					if ln.Key == "" || settled[ln.Key] {
						continue
					}
					settled[ln.Key] = true
					cc.AddRemoteCell()
					if node != owner {
						cc.AddSteal()
					}
					if ln.Source == "error" || ln.Error != "" {
						errs[ln.Key] = errors.New(ln.Error)
					} else {
						res[ln.Key] = ln.Result
					}
				}
				rest := pending[:0]
				for _, rc := range pending {
					if !settled[rc.Key] {
						rest = append(rest, rc)
					}
				}
				pending = rest
				if len(pending) == 0 {
					return res, errs
				}
			}
			var sat *saturatedError
			switch {
			case err == nil:
				// The node answered but left cells unreported; offer the
				// remainder to the next member this round.
			case errors.As(err, &sat):
				if wait == 0 || sat.after < wait {
					wait = sat.after
				}
			case ctx.Err() != nil:
				for _, rc := range pending {
					errs[rc.Key] = ctx.Err()
				}
				return res, errs
			default:
				c.countersRef().AddNodeFailure()
				c.RemoveNode(node)
			}
		}
		if wait <= 0 {
			wait = 50 * time.Millisecond
		}
		if wait > stealBackoffCap {
			wait = stealBackoffCap
		}
		select {
		case <-ctx.Done():
			for _, rc := range pending {
				errs[rc.Key] = ctx.Err()
			}
			return res, errs
		case <-time.After(wait):
		}
	}
	return res, errs
}

// Handler serves the coordinator's control endpoints — workers join here —
// falling through to next (the daemon's public API) otherwise.
func (c *Coordinator) Handler(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/join", func(w http.ResponseWriter, r *http.Request) {
		var req joinRequest
		if err := decodeBody(w, r, &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if req.Node == "" || req.URL == "" {
			writeError(w, http.StatusBadRequest, errors.New("cluster: join needs node and url"))
			return
		}
		c.AddNode(req.Node, req.URL)
		peers, epoch := c.membership()
		writeJSON(w, http.StatusOK, peersMsg{Peers: peers, Epoch: epoch})
	})
	mux.HandleFunc("GET /v1/cluster/nodes", func(w http.ResponseWriter, r *http.Request) {
		peers, epoch := c.membership()
		writeJSON(w, http.StatusOK, peersMsg{Peers: peers, Epoch: epoch})
	})
	if next != nil {
		mux.Handle("/", next)
	}
	return mux
}
