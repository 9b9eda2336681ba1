package service

import (
	"sync"

	"repro/internal/faultinject"
)

// cacheOutcome says how a cell was satisfied: a fresh execution, a
// content-address hit on a completed result, or a merge onto an execution
// another submission already had in flight (singleflight).
type cacheOutcome int

const (
	outcomeRun cacheOutcome = iota
	outcomeHit
	outcomeMerged
)

func (o cacheOutcome) String() string {
	switch o {
	case outcomeHit:
		return "cached"
	case outcomeMerged:
		return "merged"
	default:
		return "simulated"
	}
}

// flight is one in-progress execution that late arrivals wait on.
type flight struct {
	done chan struct{}
	res  CellResult
	err  error
}

// resultCache is the daemon's content-addressed result store: finished
// cells keyed by their Cell.Key (the checkpoint store's hashing
// discipline), plus a singleflight table so concurrent identical cells —
// two users submitting the same sweep at once — execute exactly once.
// Failures are never cached: an error propagates to every merged waiter,
// and the next submission retries fresh.
type resultCache struct {
	mu       sync.Mutex
	done     map[string]CellResult
	inflight map[string]*flight
	faults   *faultinject.Set // the daemon's (nil outside fault tests)
}

func newResultCache(faults *faultinject.Set) *resultCache {
	return &resultCache{
		done:     make(map[string]CellResult),
		inflight: make(map[string]*flight),
		faults:   faults,
	}
}

// Claim returns a completed result (outcomeHit), a flight another task
// owns to wait on (outcomeMerged), or registers and returns a flight the
// caller now owns (outcomeRun) — the outcome is what the metrics layer
// exposes as the dedup rate. Every owned flight must eventually be passed
// to Resolve, or merged waiters block forever.
func (c *resultCache) Claim(key string) (CellResult, *flight, cacheOutcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if res, ok := c.done[key]; ok {
		return res, nil, outcomeHit
	}
	if f, ok := c.inflight[key]; ok {
		return CellResult{}, f, outcomeMerged
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	return CellResult{}, f, outcomeRun
}

// Resolve completes a flight Claim returned with outcomeRun — the one
// landing path: failures are never cached, successes are stored, and
// every merged waiter is released.
func (c *resultCache) Resolve(key string, f *flight, res CellResult, err error) {
	f.res, f.err = res, err
	c.mu.Lock()
	delete(c.inflight, key)
	if err == nil {
		c.done[key] = res
		// Chaos point: drop the entry right after storing it, simulating a
		// cache loss between a cell finishing and a client reading it. The
		// owner still gets res; later reads fall through to the
		// checkpoint-backed runner, which must reproduce it bit-identically.
		if c.faults.Fire(faultinject.CacheEvict, key) {
			delete(c.done, key)
		}
	}
	c.mu.Unlock()
	close(f.done)
}

// Adopt installs a result computed elsewhere (a cluster peer) under its own
// content key. An existing local entry wins: by the bit-identity contract
// the two are equal, and the local one may already be serving readers.
// Waiters merged onto an in-flight execution of the same key are left to
// that flight — Adopt never resolves a flight it did not start.
func (c *resultCache) Adopt(res CellResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.done[res.Key]; !ok {
		c.done[res.Key] = res
	}
}

// Get returns a completed result by content key.
func (c *resultCache) Get(key string) (CellResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.done[key]
	return res, ok
}

// Len returns the number of completed entries.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}
