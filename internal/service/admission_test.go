package service

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/simerr"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestJobQueueOrdering(t *testing.T) {
	q := newJobQueue()
	mk := func(id string, prio int) *Job {
		return newJob(id, CampaignSpec{Priority: prio}, nil, testOptions(), nil)
	}
	q.push(mk("low", -1))
	q.push(mk("a", 0))
	q.push(mk("hi", 5))
	q.push(mk("b", 0))

	// Highest priority first; FIFO within a band.
	var got []string
	for i := 0; i < 3; i++ {
		j, ok := q.pop()
		if !ok {
			t.Fatal("pop closed early")
		}
		got = append(got, j.id)
	}
	if want := "hi,a,b"; strings.Join(got, ",") != want {
		t.Fatalf("pop order %v, want %s", got, want)
	}

	// shedLowest takes the remaining best-effort job, but only for a
	// strictly higher-priority newcomer.
	if v := q.shedLowest(-1); v != nil {
		t.Fatalf("shedLowest(-1) evicted %s; equal priority must not shed", v.id)
	}
	v := q.shedLowest(0)
	if v == nil || v.id != "low" {
		t.Fatalf("shedLowest(0) = %v, want low", v)
	}
	q.close()
	if _, ok := q.pop(); ok {
		t.Fatal("pop after close+drain should report closed")
	}
}

// TestTenantBucketsPreventStarvation: a greedy tenant exhausts only its own
// bucket; another tenant's submissions are still admitted, and the refusal
// carries a positive Retry-After hint.
func TestTenantBucketsPreventStarvation(t *testing.T) {
	s := testService(t, Config{Workers: 2, TenantRate: 0.001, TenantBurst: 2})
	spec := CampaignSpec{Machines: []MachineSpec{{Machine: "base"}}, Workloads: []string{"matmul"}}

	greedy := spec
	greedy.Tenant = "greedy"
	var jobs []*Job
	for i := 0; i < 2; i++ {
		j, err := s.Submit(greedy)
		if err != nil {
			t.Fatalf("greedy submit %d within burst: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	_, err := s.Submit(greedy)
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("greedy submit past burst: %v, want ErrRateLimited", err)
	}
	var ra *RetryAfterError
	if !errors.As(err, &ra) || ra.After < time.Second {
		t.Fatalf("rate-limit refusal lacks a useful Retry-After hint: %v", err)
	}

	// The other tenant is unaffected by greedy's empty bucket.
	polite := spec
	polite.Tenant = "polite"
	j, err := s.Submit(polite)
	if err != nil {
		t.Fatalf("polite tenant starved by greedy one: %v", err)
	}
	for _, j := range append(jobs, j) {
		if st := waitJob(t, j); st.State != JobDone {
			t.Fatalf("job %s: %v", st.State, st.Errors)
		}
	}
	if got := s.m.rateLimited.Load(); got != 1 {
		t.Errorf("rateLimited = %d, want 1", got)
	}
}

// TestOverloadShedsLowestPriorityFirst drives the daemon past saturation:
// a full queue refuses best-effort work with 429+Retry-After, and a
// higher-priority arrival evicts the lowest-priority queued job rather
// than being turned away.
func TestOverloadShedsLowestPriorityFirst(t *testing.T) {
	s := testService(t, Config{
		Workers: 1, MaxActiveJobs: 1, QueueDepth: 2, HighWater: 2,
		// Slow cells keep the worker busy while the queue fills.
		DefaultOptions: testOptions(),
	})
	slow := CampaignSpec{Machines: []MachineSpec{{Machine: "base"}}, Workloads: []string{"matmul"},
		Warmup: 2_000, Measure: 1_500_000}
	quick := CampaignSpec{Machines: []MachineSpec{{Machine: "pubs"}}, Workloads: []string{"matmul"}}

	// One active (in the worker), one parked in the dispatcher's hand.
	active, err := s.Submit(slow)
	if err != nil {
		t.Fatalf("submit active: %v", err)
	}
	parked, err := s.Submit(slow)
	if err != nil {
		t.Fatalf("submit parked: %v", err)
	}
	waitFor(t, "dispatcher to drain the head", func() bool { return s.QueueDepth() == 0 })

	// Fill the queue with best-effort work.
	be := quick
	be.Priority = -1
	victim, err := s.Submit(be)
	if err != nil {
		t.Fatalf("submit victim: %v", err)
	}
	filler := quick
	filler.Tenant = "other" // distinct tenant, same cells: key-identical
	if _, err := s.Submit(filler); err != nil {
		t.Fatalf("submit filler: %v", err)
	}
	if got := s.QueueDepth(); got != 2 {
		t.Fatalf("queue depth %d, want 2", got)
	}

	// Same-priority arrival on a full queue: refused, hinted.
	_, err = s.Submit(be)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full-queue submit: %v, want ErrQueueFull", err)
	}
	var ra *RetryAfterError
	if !errors.As(err, &ra) || ra.After < time.Second {
		t.Fatalf("full-queue refusal lacks Retry-After: %v", err)
	}

	// Higher-priority arrival: admitted by shedding the best-effort job.
	urgent := quick
	urgent.Priority = 10
	uj, err := s.Submit(urgent)
	if err != nil {
		t.Fatalf("urgent submit should shed, got: %v", err)
	}
	vst := waitJob(t, victim)
	if vst.State != JobFailed {
		t.Fatalf("victim state %s, want failed", vst.State)
	}
	if len(vst.Errors) == 0 || !strings.Contains(vst.Errors[0], simerr.ErrOverload.Error()) {
		t.Errorf("victim errors %v, want an overload error", vst.Errors)
	}
	if got := s.m.jobsShed.Load(); got == 0 {
		t.Error("jobsShed not counted")
	}

	for _, j := range []*Job{active, parked, uj} {
		if st := waitJob(t, j); st.State != JobDone {
			t.Fatalf("job %s %s: %v", j.ID(), st.State, st.Errors)
		}
	}
}

// TestHighWaterShedsBestEffort: above the high-water mark (but below the
// cap) best-effort submissions are refused while normal ones still land.
func TestHighWaterShedsBestEffort(t *testing.T) {
	s := testService(t, Config{
		Workers: 1, MaxActiveJobs: 1, QueueDepth: 8, HighWater: 1,
	})
	slow := CampaignSpec{Machines: []MachineSpec{{Machine: "base"}}, Workloads: []string{"matmul"},
		Warmup: 2_000, Measure: 1_500_000}
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := s.Submit(slow)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	waitFor(t, "queue above high water", func() bool { return s.QueueDepth() >= 1 })

	be := slow
	be.Priority = -1
	if _, err := s.Submit(be); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("best-effort above high water: %v, want ErrQueueFull", err)
	}
	normal := CampaignSpec{Machines: []MachineSpec{{Machine: "pubs"}}, Workloads: []string{"matmul"}}
	nj, err := s.Submit(normal)
	if err != nil {
		t.Fatalf("normal-priority submit above high water: %v", err)
	}
	for _, j := range append(jobs, nj) {
		if st := waitJob(t, j); st.State != JobDone {
			t.Fatalf("job %s: %v", st.State, st.Errors)
		}
	}
}

func TestBreakerUnit(t *testing.T) {
	b := newBreaker(3, time.Hour)
	panicErr := &simerr.PanicError{Value: "boom"}
	if err := b.Allow(); err != nil {
		t.Fatalf("closed Allow: %v", err)
	}
	b.Record(panicErr)
	b.Record(panicErr)
	b.Record(nil) // success resets the streak
	b.Record(panicErr)
	b.Record(panicErr)
	if err := b.Allow(); err != nil {
		t.Fatalf("streak of 2 under threshold 3 must not trip: %v", err)
	}
	b.Record(panicErr)
	if err := b.Allow(); !errors.Is(err, simerr.ErrCircuitOpen) {
		t.Fatalf("tripped Allow: %v, want ErrCircuitOpen", err)
	}
	if state, trips := b.State(); state != breakerOpen || trips != 1 {
		t.Fatalf("state=%d trips=%d, want open/1", state, trips)
	}

	// Force the cooldown to elapse, then probe.
	b.mu.Lock()
	b.openedAt = time.Now().Add(-2 * time.Hour)
	b.mu.Unlock()
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe refused: %v", err)
	}
	// A second attempt while the probe is in flight is refused.
	if err := b.Allow(); !errors.Is(err, simerr.ErrCircuitOpen) {
		t.Fatalf("concurrent probe admitted: %v", err)
	}
	b.Record(nil)
	if err := b.Allow(); err != nil {
		t.Fatalf("breaker did not close after good probe: %v", err)
	}

	// A panicking probe re-trips.
	for i := 0; i < 3; i++ {
		b.Record(panicErr)
	}
	b.mu.Lock()
	b.openedAt = time.Now().Add(-2 * time.Hour)
	b.mu.Unlock()
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe refused: %v", err)
	}
	b.Record(panicErr)
	if err := b.Allow(); !errors.Is(err, simerr.ErrCircuitOpen) {
		t.Fatalf("panicking probe did not re-trip: %v", err)
	}
	if _, trips := b.State(); trips != 3 {
		t.Fatalf("trips = %d, want 3", trips)
	}

	// Disabled and nil breakers are inert.
	var nb *breaker
	if err := nb.Allow(); err != nil {
		t.Fatal("nil breaker must allow")
	}
	nb.Record(panicErr)
	db := newBreaker(0, time.Second)
	for i := 0; i < 10; i++ {
		db.Record(panicErr)
	}
	if err := db.Allow(); err != nil {
		t.Fatal("disabled breaker must allow")
	}
}

// TestBreakerDegradedCachedOnly is the service-level degraded mode: after
// consecutive injected worker panics trip the breaker, previously computed
// results still serve from the cache while fresh simulation is refused
// with a typed circuit-open error — and /healthz reports degraded.
func TestBreakerDegradedCachedOnly(t *testing.T) {
	t.Parallel()
	faults := &faultinject.Set{}
	s := testService(t, Config{
		Workers: 1, BreakerThreshold: 2, BreakerCooldown: time.Hour, faults: faults,
	})
	cached := CampaignSpec{Machines: []MachineSpec{{Machine: "base"}}, Workloads: []string{"matmul"}}
	fresh := CampaignSpec{Machines: []MachineSpec{{Machine: "pubs"}}, Workloads: []string{"chess"}}

	// Warm the cache before anything goes wrong.
	wj, err := s.Submit(cached)
	if err != nil {
		t.Fatalf("warm submit: %v", err)
	}
	if st := waitJob(t, wj); st.State != JobDone {
		t.Fatalf("warm job %s: %v", st.State, st.Errors)
	}

	// Two panicking cells in a row trip the breaker.
	faults.Arm(faultinject.ServicePanic, "", -1)
	pj, err := s.Submit(CampaignSpec{Machines: []MachineSpec{{Machine: "base"}, {Machine: "pubs"}}, Workloads: []string{"chess"}})
	if err != nil {
		t.Fatalf("panic-bait submit: %v", err)
	}
	pst := waitJob(t, pj)
	faults.Reset()
	if pst.State != JobFailed || len(pst.Errors) != 2 {
		t.Fatalf("panic-bait job %s (%d errors), want failed with 2", pst.State, len(pst.Errors))
	}
	for _, e := range pst.Errors {
		if !strings.Contains(e, "panic") {
			t.Errorf("cell error %q does not surface the panic", e)
		}
	}
	if h := s.Health(); h.Status != "degraded" || h.Breaker != "open" || h.BreakerTrips != 1 {
		t.Fatalf("health after trip: %+v", h)
	}
	if !strings.Contains(s.MetricsText(), "pubsd_breaker_state{node=\"local\"} 2\n") {
		t.Error("metrics do not show the open breaker")
	}

	// Cached-only: the warm spec completes (result cache), the fresh one
	// is refused by the breaker, typed.
	cj, err := s.Submit(cached)
	if err != nil {
		t.Fatalf("cached submit while open: %v", err)
	}
	if st := waitJob(t, cj); st.State != JobDone {
		t.Fatalf("cached job while open %s: %v", st.State, st.Errors)
	}
	fj, err := s.Submit(fresh)
	if err != nil {
		t.Fatalf("fresh submit while open: %v", err)
	}
	fst := waitJob(t, fj)
	if fst.State != JobFailed {
		t.Fatalf("fresh job while open %s, want failed", fst.State)
	}
	if len(fst.Errors) == 0 || !strings.Contains(fst.Errors[0], simerr.ErrCircuitOpen.Error()) {
		t.Errorf("fresh-job errors %v, want circuit-open", fst.Errors)
	}
	if got := s.m.degradedCells.Load(); got == 0 {
		t.Error("degradedCells not counted")
	}
}

// TestBreakerHalfOpenRecovery: once the fault clears and the cooldown
// elapses, a successful probe closes the breaker and service resumes.
func TestBreakerHalfOpenRecovery(t *testing.T) {
	t.Parallel()
	faults := &faultinject.Set{}
	s := testService(t, Config{
		Workers: 1, BreakerThreshold: 1, BreakerCooldown: 50 * time.Millisecond, faults: faults,
	})
	faults.Arm(faultinject.ServicePanic, "", 1)
	pj, err := s.Submit(CampaignSpec{Machines: []MachineSpec{{Machine: "base"}}, Workloads: []string{"matmul"}})
	if err != nil {
		t.Fatalf("panic-bait submit: %v", err)
	}
	if st := waitJob(t, pj); st.State != JobFailed {
		t.Fatalf("panic-bait job %s, want failed", st.State)
	}
	faults.Reset()
	if h := s.Health(); h.Breaker != "open" {
		t.Fatalf("breaker %s, want open", h.Breaker)
	}

	time.Sleep(100 * time.Millisecond)
	rj, err := s.Submit(CampaignSpec{Machines: []MachineSpec{{Machine: "pubs"}}, Workloads: []string{"matmul"}})
	if err != nil {
		t.Fatalf("recovery submit: %v", err)
	}
	if st := waitJob(t, rj); st.State != JobDone {
		t.Fatalf("recovery job %s: %v", st.State, st.Errors)
	}
	if h := s.Health(); h.Status != "ok" || h.Breaker != "closed" {
		t.Fatalf("health after recovery: %+v", h)
	}
}

// TestWorkerPanicIsolatedWithoutBreaker: with the breaker disabled, an
// injected worker panic fails only that task's cells; the pool and the
// rest of the campaign keep going.
func TestWorkerPanicIsolatedWithoutBreaker(t *testing.T) {
	t.Parallel()
	faults := &faultinject.Set{}
	s := testService(t, Config{Workers: 2, BreakerThreshold: -1, faults: faults})
	faults.Arm(faultinject.ServicePanic, "chess", 1)
	j, err := s.Submit(CampaignSpec{
		Machines:  []MachineSpec{{Machine: "base"}},
		Workloads: []string{"matmul", "chess", "goplay"},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitJob(t, j)
	if st.State != JobFailed {
		t.Fatalf("job %s, want failed (one cell panicked)", st.State)
	}
	if st.CompletedCells != 2 || st.FailedCells != 1 {
		t.Fatalf("completed=%d failed=%d, want 2/1", st.CompletedCells, st.FailedCells)
	}
	if !strings.Contains(strings.Join(st.Errors, " "), "chess") {
		t.Errorf("errors %v do not name the panicked cell", st.Errors)
	}
	if h := s.Health(); h.Breaker != "closed" {
		t.Errorf("disabled breaker moved to %s", h.Breaker)
	}

	// The daemon still serves.
	j2, err := s.Submit(CampaignSpec{Machines: []MachineSpec{{Machine: "base"}}, Workloads: []string{"chess"}})
	if err != nil {
		t.Fatalf("post-panic submit: %v", err)
	}
	if st := waitJob(t, j2); st.State != JobDone {
		t.Fatalf("post-panic job %s: %v", st.State, st.Errors)
	}
}

// TestCacheEvictionRecomputesBitIdentical: an injected eviction right after
// a result lands forces the next identical submission to recompute — the
// result cache is the daemon's only in-memory result store — and the
// recomputed record must be bit-identical.
func TestCacheEvictionRecomputesBitIdentical(t *testing.T) {
	t.Parallel()
	faults := &faultinject.Set{}
	s := testService(t, Config{Workers: 2, faults: faults})
	spec := CampaignSpec{Machines: []MachineSpec{{Machine: "base"}}, Workloads: []string{"matmul"}}

	faults.Arm(faultinject.CacheEvict, "", 1)
	j1, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st1 := waitJob(t, j1)
	faults.Reset()
	if st1.State != JobDone {
		t.Fatalf("evicted job %s: %v", st1.State, st1.Errors)
	}
	if _, ok := s.Result(st1.Results[0].Key); ok {
		t.Fatal("injected eviction did not remove the entry")
	}

	j2, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	st2 := waitJob(t, j2)
	if st2.State != JobDone {
		t.Fatalf("recompute job %s: %v", st2.State, st2.Errors)
	}
	if sims := s.m.simulated.Load(); sims != 2 {
		t.Errorf("simulations = %d, want 2 (the evicted cell must be recomputed)", sims)
	}
	a, _ := json.Marshal(st1.Results[0])
	b, _ := json.Marshal(st2.Results[0])
	if string(a) != string(b) {
		t.Errorf("recomputed cell differs:\nfirst  %s\nsecond %s", a, b)
	}
}

// TestAdmissionNeverEntersKeys: Tenant and Priority must not perturb
// content addressing — two submissions differing only there share every
// cell key (and therefore every checkpoint and cache entry).
func TestAdmissionNeverEntersKeys(t *testing.T) {
	base := CampaignSpec{Machines: []MachineSpec{{Machine: "pubs"}}, Workloads: []string{"matmul", "chess"}}
	tagged := base
	tagged.Tenant = "team-a"
	tagged.Priority = 9

	opts := testOptions()
	a, err := base.Cells(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tagged.Cells(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("cell counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key(opts) != b[i].Key(opts) {
			t.Errorf("cell %d: admission metadata leaked into the key: %s vs %s",
				i, a[i].Key(opts), b[i].Key(opts))
		}
	}
}
