package service

import (
	"context"
	"sync"

	"repro/internal/sampling"
)

// planSeams are the cluster's plan-sharing hooks: fetch pulls a serialized
// plan from peers, push replicates a fresh local plan. The plans themselves
// — local, fetched or pushed here — all live in the Service's one store.
type planSeams struct {
	mu    sync.Mutex
	fetch func(ctx context.Context, key string) ([]byte, bool)
	push  func(key string, data []byte)
}

// SetPlanExchange installs the cluster's plan seams. fetch is consulted by
// the plan store on a miss; push is invoked asynchronously with the
// serialized form of every plan this node computes locally.
func (s *Service) SetPlanExchange(fetch func(ctx context.Context, key string) ([]byte, bool), push func(key string, data []byte)) {
	s.seams.mu.Lock()
	s.seams.fetch = fetch
	s.seams.push = push
	s.seams.mu.Unlock()
}

// planSource is the plan store's sampling.PlanSource: the cluster fetch
// seam (cache-only peer GETs), yielding content-verified windows
// bit-identical to a local pass. Called inside the store's singleflight
// critical section, so each plan key is fetched at most once however many
// machine variants race.
func (s *Service) planSource(ctx context.Context, key string) ([]sampling.Window, bool) {
	s.seams.mu.Lock()
	fetch := s.seams.fetch
	s.seams.mu.Unlock()
	if fetch == nil {
		return nil, false
	}
	data, ok := fetch(ctx, key)
	if !ok {
		return nil, false
	}
	ws, err := sampling.DecodePlan(data)
	if err != nil {
		// A corrupt peer payload is a miss, never a wrong plan: the runner
		// falls back to its own functional pass.
		return nil, false
	}
	s.m.planPeerHits.Add(1)
	s.m.planFetchBytes.Add(uint64(len(data)))
	return ws, true
}

// planPlanned fires after every successful local functional pass; it
// serializes the plan through the store's memo (so long-poll waiters parked
// on this key are served the same bytes) and hands it to the push seam, off
// the planning goroutine, so replication cost never extends the pass's
// critical path. A plan evicted before it could be encoded is not pushed.
func (s *Service) planPlanned(key string) {
	s.seams.mu.Lock()
	push := s.seams.push
	s.seams.mu.Unlock()
	if push == nil {
		return
	}
	go func() {
		data, ok := s.plans.Encoded(key)
		if !ok {
			return
		}
		s.m.planPushes.Add(1)
		s.m.planPushBytes.Add(uint64(len(data)))
		push(key, data)
	}()
}

// PlanData serializes the resident plan for key. Cache-only by design — a
// miss is a miss, never a trigger to compute.
func (s *Service) PlanData(key string) ([]byte, bool) { return s.plans.Encoded(key) }

// HasPlan reports whether the plan is resident, without serializing it —
// the cheap guard the sweep handler consults before prefetching from peers.
func (s *Service) HasPlan(key string) bool { return s.plans.Has(key) }

// AdoptPlan verifies and installs a plan a peer pushed proactively. The
// content hash inside the envelope gates admission — a corrupt push is an
// error, not a resident plan. An existing entry wins (bit-identical by the
// hash discipline).
func (s *Service) AdoptPlan(key string, data []byte) error {
	ws, err := sampling.DecodePlan(data)
	if err != nil {
		return err
	}
	s.plans.Adopt(key, ws, data)
	return nil
}
