package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
)

// Worker adapts one pubsd daemon into a cluster shard: it serves the
// cluster wire protocol in front of the daemon's own Submit path, so a
// cell dispatched by the coordinator flows through exactly the admission
// control, journal, runner, and cache machinery a directly submitted
// campaign would. Its answer path is the two-tier cache: the node-local
// store first, a peer fetch by content address second, and only then a
// fresh execution.
type Worker struct {
	svc *service.Service
	hc  *http.Client

	mu         sync.Mutex
	peers      map[string]string // node ID -> base URL, self excluded
	peersEpoch uint64            // epoch of the newest applied membership snapshot
	// hints maps a sampling-plan key to the node the coordinator designated
	// to compute it, refcounted across the concurrent sweep batches that
	// share the key. A hint for self doubles as the "expecting" signal the
	// plan endpoint's long-poll consults.
	hints map[string]*planHint
}

type planHint struct {
	planner string
	refs    int
}

// NewWorker wraps a running daemon: it serves the cluster endpoints and
// installs the daemon's plan-exchange seams, so the sampled path answers
// plan misses from peers (pushed plans are already in its plan store)
// before paying a functional pass, and replicates every local pass to the ring successor.
func NewWorker(svc *service.Service) *Worker {
	wk := &Worker{
		svc:   svc,
		hc:    SharedClient(),
		peers: make(map[string]string),
		hints: make(map[string]*planHint),
	}
	svc.SetPlanExchange(wk.planFetch, wk.planPush)
	return wk
}

// SetPeers replaces the worker's member map (static configuration, tests,
// harnesses that wire a fleet by hand). It applies as an unversioned
// snapshot: see ApplyPeers with epoch 0.
func (wk *Worker) SetPeers(peers map[string]string) {
	wk.ApplyPeers(peers, 0)
}

// ApplyPeers applies a membership snapshot stamped with the coordinator's
// epoch, refusing to go backwards: the coordinator broadcasts every
// membership change asynchronously, so two rapid joins can deliver an older
// map after a newer one, and last-write-wins would strand this worker with
// a stale view — unable to resolve the very planner a sweep batch names.
// Epoch 0 is unversioned: it always applies, and is stamped the way the
// coordinator stamps its own (bumpEpochLocked), past both the wall clock
// and the newest epoch applied. So it outranks every snapshot a
// coordinator stamped before it — a late AddNode broadcast cannot undo a
// map wired by hand — while one stamped after it still applies. The
// worker's own entry is dropped: fetching from yourself is tier 1, not
// tier 2. So is an entry whose URL is empty once trailing slashes are
// trimmed. Reports whether the snapshot was applied.
func (wk *Worker) ApplyPeers(peers map[string]string, epoch uint64) bool {
	self := wk.svc.NodeID()
	next := make(map[string]string, len(peers))
	for node, url := range peers {
		if url = strings.TrimRight(url, "/"); node != self && url != "" {
			next[node] = url
		}
	}
	wk.mu.Lock()
	if epoch == 0 {
		epoch = max(uint64(time.Now().UnixNano()), wk.peersEpoch+1)
	} else if epoch <= wk.peersEpoch {
		wk.mu.Unlock()
		return false
	}
	wk.peersEpoch = epoch
	wk.peers = next
	wk.mu.Unlock()
	wk.svc.ClusterCounters().SetPeers(len(next))
	return true
}

// peerList snapshots the peer URLs in deterministic (node ID) order.
func (wk *Worker) peerList() []string {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	nodes := make([]string, 0, len(wk.peers))
	for n := range wk.peers {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = wk.peers[n]
	}
	return urls
}

// peerURL resolves a node ID to its base URL.
func (wk *Worker) peerURL(node string) (string, bool) {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	url, ok := wk.peers[node]
	return url, ok
}

// successorURL returns the ring successor's base URL: the next node ID
// clockwise from self in sorted member order — the same successor that
// inherits this node's keys if it dies, which is exactly why completed
// plans and results replicate there.
func (wk *Worker) successorURL() (string, bool) {
	self := wk.svc.NodeID()
	wk.mu.Lock()
	defer wk.mu.Unlock()
	if len(wk.peers) == 0 {
		return "", false
	}
	ids := make([]string, 0, len(wk.peers)+1)
	for n := range wk.peers {
		ids = append(ids, n)
	}
	ids = append(ids, self)
	sort.Strings(ids)
	for i, n := range ids {
		if n == self {
			succ := ids[(i+1)%len(ids)]
			if succ == self {
				return "", false
			}
			return wk.peers[succ], true
		}
	}
	return "", false
}

// addPlanHint registers the designated planner for a plan key while a
// sweep batch runs; dropPlanHint releases it.
func (wk *Worker) addPlanHint(key, planner string) {
	if key == "" || planner == "" {
		return
	}
	wk.mu.Lock()
	if h, ok := wk.hints[key]; ok {
		h.refs++
	} else {
		wk.hints[key] = &planHint{planner: planner, refs: 1}
	}
	wk.mu.Unlock()
}

func (wk *Worker) dropPlanHint(key, planner string) {
	if key == "" || planner == "" {
		return
	}
	wk.mu.Lock()
	if h, ok := wk.hints[key]; ok {
		if h.refs--; h.refs <= 0 {
			delete(wk.hints, key)
		}
	}
	wk.mu.Unlock()
}

// plannerFor returns the designated planner for a plan key, if a sweep
// batch carrying one is in flight.
func (wk *Worker) plannerFor(key string) (string, bool) {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	h, ok := wk.hints[key]
	if !ok {
		return "", false
	}
	return h.planner, true
}

// expectingPlan reports whether this node is the designated planner for
// key with the batch still in flight — the signal that makes the plan
// endpoint's ?wait=1 long-poll park instead of answering 404.
func (wk *Worker) expectingPlan(key string) bool {
	planner, ok := wk.plannerFor(key)
	return ok && planner == wk.svc.NodeID()
}

// planFetch is the daemon's plan-fetch seam, consulted on a plan-store
// miss (a local functional pass is the fallback). When a sweep batch designated a planner, a non-planner node
// long-polls it — the planner is mid-pass by construction, so waiting
// beats burning a redundant pass — retrying briefly to absorb the window
// where concurrent batches are still being delivered. Designated or not,
// it ends with one cache-only sweep of the peers.
func (wk *Worker) planFetch(ctx context.Context, key string) ([]byte, bool) {
	self := wk.svc.NodeID()
	if planner, ok := wk.plannerFor(key); ok {
		if planner == self {
			return nil, false // our pass to pay
		}
		if base, ok := wk.peerURL(planner); ok {
			deadline := time.Now().Add(2 * time.Second)
			for {
				if data, ok := fetchPlan(ctx, wk.hc, base, key, true); ok {
					return data, true
				}
				// A prompt 404 means the planner is alive but not (yet)
				// expecting to plan: its batch may still be in flight to it.
				// Retry inside a short window, then fall back.
				if ctx.Err() != nil || time.Now().After(deadline) {
					break
				}
				time.Sleep(100 * time.Millisecond)
			}
		}
	}
	for _, base := range wk.peerList() {
		if data, ok := fetchPlan(ctx, wk.hc, base, key, false); ok {
			return data, true
		}
	}
	return nil, false
}

// planPush is the daemon's plan-replication seam: fire-and-forget to the
// ring successor. The service already runs it off the planning goroutine.
func (wk *Worker) planPush(key string, data []byte) {
	if base, ok := wk.successorURL(); ok {
		_ = pushPlan(context.Background(), wk.hc, base, key, data)
	}
}

// replicateResult proactively copies a cell this node executed to its ring
// successor, so losing this node loses zero completed work. Asynchronous
// and best-effort — the pull path (peer fetch by content address) remains
// the safety net.
func (wk *Worker) replicateResult(res service.CellResult) {
	if res.Key == "" {
		return
	}
	base, ok := wk.successorURL()
	if !ok {
		return
	}
	go func() {
		if pushResult(context.Background(), wk.hc, base, res) == nil {
			wk.svc.ClusterCounters().AddResultPush()
		}
	}()
}

// Handler serves the worker's cluster endpoints, falling through to next
// (the daemon's public API) for every other path.
func (wk *Worker) Handler(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/execute", wk.handleExecute)
	mux.HandleFunc("POST /v1/cluster/sweep", wk.handleSweep)
	mux.HandleFunc("GET /v1/cluster/result/{key}", wk.handleResult)
	mux.HandleFunc("POST /v1/cluster/result", wk.handleResultPush)
	mux.HandleFunc("GET /v1/cluster/plan/{key}", wk.handlePlanGet)
	mux.HandleFunc("POST /v1/cluster/plan/{key}", wk.handlePlanPut)
	mux.HandleFunc("POST /v1/cluster/peers", wk.handlePeers)
	if next != nil {
		mux.Handle("/", next)
	}
	return mux
}

// handleExecute runs one cell through the two-tier cache and then the
// daemon's own Submit path. Admission refusals surface as 429/503 with the
// daemon's Retry-After hint — the coordinator's steal trigger. Simulation
// failures return 200 with Source "error": the cell failed, the node is
// healthy.
func (wk *Worker) handleExecute(w http.ResponseWriter, r *http.Request) {
	var rc service.RemoteCell
	if err := decodeBody(w, r, &rc); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if rc.Key == "" {
		writeError(w, http.StatusBadRequest, errors.New("cluster: execute: empty key"))
		return
	}
	// Tier 1: this node already has it (its own earlier execution, an
	// adopted peer result, or a duplicate in a concurrent burst).
	if res, ok := wk.svc.Result(rc.Key); ok {
		writeJSON(w, http.StatusOK, executeResponse{Result: res, Source: "cache"})
		return
	}
	// Tier 2: a peer has it — after a ring change (join, failover) the old
	// owner still holds the result, and moving it is cheaper than ever
	// re-simulating. Adopt so this node answers tier-1 next time.
	for _, base := range wk.peerList() {
		if res, ok := fetchResult(r.Context(), wk.hc, base, rc.Key); ok {
			wk.svc.AdoptResult(res)
			wk.svc.ClusterCounters().AddPeerHit()
			writeJSON(w, http.StatusOK, executeResponse{Result: res, Source: "peer"})
			return
		}
	}
	// Tier 3: execute, via the full single-node pipeline. The single-cell
	// spec carries resolved windows, so the worker derives the same content
	// address the coordinator sharded by.
	job, err := wk.svc.Submit(rc.Spec)
	if err != nil {
		var ra *service.RetryAfterError
		if errors.As(err, &ra) {
			w.Header().Set("Retry-After", strconv.Itoa(int(ra.After.Round(time.Second).Seconds())))
		}
		switch {
		case errors.Is(err, service.ErrQueueFull), errors.Is(err, service.ErrRateLimited):
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, service.ErrDraining):
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	select {
	case <-job.Done():
	case <-r.Context().Done():
		// The coordinator gave up (or died). The job keeps running: its
		// result lands in the local cache, so the inevitable re-dispatch —
		// here or on a peer that fetches from here — is a cache hit, not a
		// second simulation.
		return
	}
	st := job.Status()
	if st.State == service.JobFailed {
		writeJSON(w, http.StatusOK, executeResponse{Source: "error", Error: strings.Join(st.Errors, "; ")})
		return
	}
	for _, res := range st.Results {
		if res.Key == rc.Key {
			wk.replicateResult(res)
			writeJSON(w, http.StatusOK, executeResponse{Result: res, Source: "executed"})
			return
		}
	}
	// The worker resolved the spec to a different content address than the
	// coordinator — a protocol bug worth failing loudly, not silently
	// serving the wrong cell.
	keys := make([]string, 0, len(st.Results))
	for _, res := range st.Results {
		keys = append(keys, res.Key)
	}
	writeJSON(w, http.StatusOK, executeResponse{
		Source: "error",
		Error:  fmt.Sprintf("cluster: key mismatch: coordinator asked for %s, worker computed %v", rc.Key, keys),
	})
}

// handleSweep runs one workload's machine batch: every cell the coordinator
// still needs from this node, answered as a stream of NDJSON sweepLines so
// settled cells reach the coordinator the moment they finish. The answer
// path per cell is the same two-tier cache as handleExecute; the remainder
// is merged into ONE window-major submission, so the whole batch shares a
// single sampling plan and each workload window replays across every
// machine while its trace is hot. The request's planner designation is
// registered first — before any tier check — because it is what the plan
// endpoint's long-poll and the plan-fetch seam consult to keep the fleet at
// exactly one functional pass per plan key.
func (wk *Worker) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Cells) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("cluster: sweep: no cells"))
		return
	}
	wk.addPlanHint(req.PlanKey, req.Planner)
	defer wk.dropPlanHint(req.PlanKey, req.Planner)

	var answered []sweepLine
	var pending []service.RemoteCell
	for _, rc := range req.Cells {
		if rc.Key == "" || len(rc.Spec.Machines) != 1 || len(rc.Spec.Workloads) != 1 {
			writeError(w, http.StatusBadRequest, errors.New("cluster: sweep: malformed cell"))
			return
		}
		// Tier 1: already resident here.
		if res, ok := wk.svc.Result(rc.Key); ok {
			answered = append(answered, sweepLine{Key: rc.Key, Result: res, Source: "cache"})
			continue
		}
		// Tier 2: a peer holds it (ring churn, an earlier owner's work).
		hit := false
		for _, base := range wk.peerList() {
			if res, ok := fetchResult(r.Context(), wk.hc, base, rc.Key); ok {
				wk.svc.AdoptResult(res)
				wk.svc.ClusterCounters().AddPeerHit()
				answered = append(answered, sweepLine{Key: rc.Key, Result: res, Source: "peer"})
				hit = true
				break
			}
		}
		if !hit {
			pending = append(pending, rc)
		}
	}

	// Prefetch the sweep's plan before submitting: a non-planner node parks
	// HERE, on the handler goroutine, not inside a service worker slot — so
	// waiting for the planner can never starve this node's own planning (or
	// any other job) of execution capacity. By the time the merged job runs,
	// the plan sits in the daemon's plan store and the runner's lookup
	// hits.
	if len(pending) > 0 && req.PlanKey != "" && req.Planner != "" && req.Planner != wk.svc.NodeID() {
		if !wk.svc.HasPlan(req.PlanKey) {
			if data, ok := wk.planFetch(r.Context(), req.PlanKey); ok {
				_ = wk.svc.AdoptPlan(req.PlanKey, data)
			}
		}
	}

	// Merge the remainder into one multi-machine spec. Per-cell specs from
	// one sweep batch differ only in their machine by construction; anything
	// else is a protocol bug worth refusing outright.
	var job *service.Job
	keyByMachine := make(map[string]string, len(pending))
	if len(pending) > 0 {
		merged := pending[0].Spec
		for _, rc := range pending[1:] {
			s := rc.Spec
			if s.Workloads[0] != merged.Workloads[0] || s.Warmup != merged.Warmup ||
				s.Measure != merged.Measure || s.Windows != merged.Windows ||
				s.FastForward != merged.FastForward || s.WindowMajor != merged.WindowMajor {
				writeError(w, http.StatusBadRequest, errors.New("cluster: sweep: cells disagree on workload or windows"))
				return
			}
			merged.Machines = append(merged.Machines, s.Machines[0])
		}
		for _, rc := range pending {
			cfg, err := rc.Spec.Machines[0].Config()
			if err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
			keyByMachine[cfg.Name] = rc.Key
		}
		// Submit before committing to a 200: an admission refusal must reach
		// the coordinator as the steal/backoff signal, not a broken stream.
		var err error
		job, err = wk.svc.Submit(merged)
		if err != nil {
			var ra *service.RetryAfterError
			if errors.As(err, &ra) {
				w.Header().Set("Retry-After", strconv.Itoa(int(ra.After.Round(time.Second).Seconds())))
			}
			switch {
			case errors.Is(err, service.ErrQueueFull), errors.Is(err, service.ErrRateLimited):
				writeError(w, http.StatusTooManyRequests, err)
			case errors.Is(err, service.ErrDraining):
				writeError(w, http.StatusServiceUnavailable, err)
			default:
				writeError(w, http.StatusBadRequest, err)
			}
			return
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(ln sweepLine) {
		_ = enc.Encode(ln)
		if flusher != nil {
			flusher.Flush()
		}
	}
	for _, ln := range answered {
		emit(ln)
	}
	if job == nil {
		return
	}

	// Stream the job's cell events as they land. Failures carry no content
	// key (there is no result to address), so they map back to the
	// coordinator's key through the machine name.
	reported := make(map[string]bool, len(pending))
	var executed []service.CellResult
	from := 0
	for {
		evs, state := job.EventsSince(from)
		from += len(evs)
		for _, e := range evs {
			if e.Type != "cell" {
				continue
			}
			if e.Error != "" {
				key := e.Key
				if key == "" {
					key = keyByMachine[e.Machine]
				}
				if key != "" && !reported[key] {
					reported[key] = true
					emit(sweepLine{Key: key, Source: "error", Error: e.Error})
				}
				continue
			}
			if _, want := keyByMachine[e.Machine]; !want || reported[e.Key] {
				continue
			}
			if res, ok := wk.svc.Result(e.Key); ok {
				reported[e.Key] = true
				executed = append(executed, res)
				emit(sweepLine{Key: e.Key, Result: res, Source: "executed"})
			}
		}
		if len(evs) > 0 {
			continue
		}
		if state == service.JobDone || state == service.JobFailed {
			break
		}
		select {
		case <-r.Context().Done():
			// The coordinator hung up; the job runs on and lands in the
			// cache, so the re-dispatch is a tier-1 hit.
			return
		case <-time.After(5 * time.Millisecond):
		}
	}

	// Anything still unreported either raced the final poll (settle it from
	// the cache) or resolved to a different content address than the
	// coordinator sharded by — a protocol bug to surface loudly.
	for _, rc := range pending {
		if reported[rc.Key] {
			continue
		}
		if res, ok := wk.svc.Result(rc.Key); ok {
			executed = append(executed, res)
			emit(sweepLine{Key: rc.Key, Result: res, Source: "executed"})
			continue
		}
		emit(sweepLine{
			Key:    rc.Key,
			Source: "error",
			Error:  fmt.Sprintf("cluster: key mismatch: coordinator asked for %s, worker computed a different address", rc.Key),
		})
	}
	for _, res := range executed {
		wk.replicateResult(res)
	}
}

// handleResult is the cache-only peer-fetch endpoint: it answers from this
// node's finished-result store and never triggers work, which is what
// keeps peer fetches cheap and recursion-free.
func (wk *Worker) handleResult(w http.ResponseWriter, r *http.Request) {
	res, ok := wk.svc.Result(r.PathValue("key"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("cluster: no result under that key"))
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleResultPush accepts a proactively replicated finished cell — the
// push half of result replication. Cache-only admission: the result is
// adopted, never executed, and a malformed payload is refused.
func (wk *Worker) handleResultPush(w http.ResponseWriter, r *http.Request) {
	var res service.CellResult
	if err := decodeBody(w, r, &res); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if res.Key == "" {
		writeError(w, http.StatusBadRequest, errors.New("cluster: result push: empty key"))
		return
	}
	wk.svc.AdoptResult(res)
	w.WriteHeader(http.StatusOK)
}

// planWaitBound caps the plan endpoint's ?wait=1 long-poll. The client's
// planWaitTimeout is sized above it, so a parked fetch is ended by this
// server bound (404: plan still cooking or pass failed), not a client
// timeout misread as a dead peer.
const planWaitBound = 30 * time.Second

// handlePlanGet serves a serialized sampling plan by plan key, cache-only:
// the daemon's plan store is consulted, work is never triggered. With ?wait=1 the handler parks while this node is the
// designated planner with the batch in flight — the window where "miss"
// really means "seconds from now", and waiting is what saves the caller a
// redundant functional pass.
func (wk *Worker) handlePlanGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	wait := r.URL.Query().Get("wait") == "1"
	deadline := time.Now().Add(planWaitBound)
	for {
		if data, ok := wk.svc.PlanData(key); ok {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(data)
			return
		}
		if !wait || !wk.expectingPlan(key) || time.Now().After(deadline) {
			writeError(w, http.StatusNotFound, errors.New("cluster: no plan under that key"))
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// handlePlanPut accepts a proactively replicated plan. The envelope's
// content hash gates admission (AdoptPlan re-verifies it), so a corrupt or
// truncated push is a 400, never a resident plan.
func (wk *Worker) handlePlanPut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if wk.svc.HasPlan(key) {
		// Resident already (this node planned it, or adopted
		// it via prefetch before the push arrived) — don't pay the decode.
		w.WriteHeader(http.StatusOK)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPlanWireBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := wk.svc.AdoptPlan(key, data); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.WriteHeader(http.StatusOK)
}

// handlePeers applies a coordinator membership push. A push whose epoch is
// not newer than the last applied snapshot is acknowledged but ignored —
// out-of-order delivery, not an error.
func (wk *Worker) handlePeers(w http.ResponseWriter, r *http.Request) {
	var msg peersMsg
	if err := decodeBody(w, r, &msg); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	wk.ApplyPeers(msg.Peers, msg.Epoch)
	writeJSON(w, http.StatusOK, peersMsg{Peers: msg.Peers, Epoch: msg.Epoch})
}
