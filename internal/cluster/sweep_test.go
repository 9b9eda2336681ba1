package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/service"
)

// sweepSpec is the sampled, window-major campaign the sweep tests run:
// 12 cells (6 machine variants × 2 workloads) sharing 2 sampling plans,
// sized so the functional pass is real work but the whole grid stays fast
// on one core.
func sweepSpec() service.CampaignSpec {
	return service.CampaignSpec{
		Machines: []service.MachineSpec{
			{Machine: "base"}, {Machine: "pubs"}, {Machine: "age"},
			{Machine: "pubs+age"}, {Machine: "pubs", PriorityEntries: 16},
			{Machine: "pubs", ConfCounterBits: 4},
		},
		Workloads:   []string{"matmul", "chess"},
		Warmup:      2_000,
		Measure:     4_000,
		Windows:     2,
		FastForward: 100_000,
		WindowMajor: true,
	}
}

// startSweepCoordinator is startCoordinator plus the batched sweep seam:
// window-major sampled jobs dispatch one request per (node, workload)
// batch through RemoteSweep instead of per-cell POSTs.
func startSweepCoordinator(t *testing.T, id string, workers []*testNode) (*service.Service, *Coordinator) {
	t.Helper()
	coord := NewCoordinator()
	svc := startService(t, service.Config{
		NodeID:      id,
		Workers:     8,
		Remote:      coord.Remote,
		RemoteSweep: coord.RemoteSweep,
	})
	coord.BindCounters(svc.ClusterCounters())
	wirePeers(coord, workers)
	return svc, coord
}

// TestClusterSweepPlanSharingExactlyOnce is the tentpole's contract: a
// sampled window-major sweep over a 3-node cluster pays exactly one
// functional planning pass per workload fleet-wide — every other node
// adopts the planner's serialized plan — while producing results
// bit-identical to a single-node run, each cell detailed-simulated exactly
// once, and the whole grid dispatched as node batches, not per-cell POSTs.
func TestClusterSweepPlanSharingExactlyOnce(t *testing.T) {
	spec := sweepSpec()
	cells := len(spec.Machines) * len(spec.Workloads)

	single := startService(t, service.Config{NodeID: "single", Workers: 1})
	refJSON := resultsJSON(t, submitAndWait(t, single, spec))

	workers := []*testNode{
		startWorker(t, "w1", service.Config{Workers: 2}, nil),
		startWorker(t, "w2", service.Config{Workers: 2}, nil),
		startWorker(t, "w3", service.Config{Workers: 2}, nil),
	}
	csvc, _ := startSweepCoordinator(t, "coord", workers)
	gotJSON := resultsJSON(t, submitAndWait(t, csvc, spec))

	if gotJSON != refJSON {
		t.Errorf("sweep results differ from single-node run:\ncluster: %s\nsingle:  %s", gotJSON, refJSON)
	}

	var plans, peerPlans, pushes, totalSims uint64
	for _, w := range workers {
		plans += metricValue(t, w.svc, "pubsd_snapshot_plans_total")
		peerPlans += metricValue(t, w.svc, "pubsd_snapshot_peer_plans_total")
		pushes += metricValue(t, w.svc, "pubsd_plan_pushes_total")
		totalSims += sims(t, w.svc)
	}
	if plans != uint64(len(spec.Workloads)) {
		t.Errorf("fleet paid %d functional passes for %d workloads; plan sharing is not exactly-once", plans, len(spec.Workloads))
	}
	if peerPlans == 0 {
		t.Error("no peer plans adopted: every node planned for itself")
	}
	if pushes != plans {
		t.Errorf("%d plan pushes for %d local passes; every fresh plan should replicate to the successor", pushes, plans)
	}
	if totalSims != uint64(cells) {
		t.Errorf("fleet simulated %d cells, want %d", totalSims, cells)
	}
	if got := metricValue(t, csvc, "pubsd_cluster_remote_cells_total"); got != uint64(cells) {
		t.Errorf("coordinator settled %d remote cells, want %d", got, cells)
	}
	t.Logf("fleet: %d plans, %d adopted, %d sims for %d cells", plans, peerPlans, totalSims, cells)
}

// TestClusterSweepResultReplicationFailover is the proactive-replication
// contract: every executed cell is pushed to its ring successor, so when
// the ring owner dies mid-campaign the successor answers all of the dead
// node's completed cells straight from its replica cache — zero
// re-simulations anywhere, results still bit-identical.
func TestClusterSweepResultReplicationFailover(t *testing.T) {
	spec := testSpec()
	cells := len(spec.Machines) * len(spec.Workloads)

	killer := &killableWorker{}
	wrap := func(inner http.Handler) http.Handler {
		killer.inner = inner
		return killer
	}
	w1 := startWorker(t, "w1", service.Config{}, wrap)
	killer.setOnKill(w1.srv.CloseClientConnections)
	w2 := startWorker(t, "w2", service.Config{}, nil)
	csvc, _ := startCoordinator(t, "coord", []*testNode{w1, w2})

	firstJSON := resultsJSON(t, submitAndWait(t, csvc, spec))
	w1Sims, w2Sims := sims(t, w1.svc), sims(t, w2.svc)
	if w1Sims+w2Sims != uint64(cells) {
		t.Fatalf("first campaign simulated %d cells, want %d", w1Sims+w2Sims, cells)
	}
	if w1Sims == 0 {
		t.Fatal("ring put no cells on w1; the failover would be vacuous")
	}

	// Replication is asynchronous; wait until both nodes report every
	// executed cell successfully pushed to their successor (with two nodes,
	// each is the other's successor, so both end up holding all cells).
	deadline := time.Now().Add(30 * time.Second)
	for {
		pushed := metricValue(t, w1.svc, "pubsd_cluster_result_pushes_total") +
			metricValue(t, w2.svc, "pubsd_cluster_result_pushes_total")
		if pushed >= uint64(cells) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication stalled: %d of %d results pushed", pushed, cells)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kill the owner. A fresh, cold coordinator reruns the campaign: its
	// first dispatch to w1 dies mid-flight, w1 leaves the ring, and w2 —
	// w1's successor — must settle every cell w1 completed from the
	// replicas w1 pushed, without a single new simulation.
	killer.kill()
	c2, _ := startCoordinator(t, "coord2", []*testNode{w1, w2})
	rerunJSON := resultsJSON(t, submitAndWait(t, c2, spec))

	if rerunJSON != firstJSON {
		t.Error("post-failover rerun is not bit-identical")
	}
	if got := sims(t, w2.svc); got != w2Sims {
		t.Errorf("successor re-simulated: %d sims, had %d before the kill", got, w2Sims)
	}
	if got := sims(t, w1.svc); got != w1Sims {
		t.Errorf("dead node's sims moved: %d, had %d", got, w1Sims)
	}
	if got := metricValue(t, c2, "pubsd_cluster_node_failures_total"); got == 0 {
		t.Error("coordinator never noticed the dead node")
	}
}

// BenchmarkDispatch measures the per-dispatch HTTP overhead the cluster
// pays per remote cell, comparing the shared tuned client (keep-alives, a
// fleet-sized idle pool) against a naive per-request client — the
// difference is a new TCP connection per cell.
func BenchmarkDispatch(b *testing.B) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()
	body := []byte(`{"key":"bench"}`)

	dispatch := func(b *testing.B, hc *http.Client) {
		b.Helper()
		req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, srv.URL, bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := hc.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		var msg struct{ OK bool }
		if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}

	b.Run("shared", func(b *testing.B) {
		hc := SharedClient()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dispatch(b, hc)
		}
	})
	b.Run("per-request", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hc := &http.Client{Transport: &http.Transport{}}
			dispatch(b, hc)
			hc.CloseIdleConnections()
		}
	})
}
