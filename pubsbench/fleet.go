package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

// node is one pubsd daemon served over loopback HTTP.
type node struct {
	svc *service.Service
	srv *http.Server
	url string
}

// startNode boots a daemon and serves it on a loopback port: handler(svc)
// when given, else the daemon's own API.
func startNode(cfg service.Config, handler func(*service.Service) http.Handler) (*node, error) {
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Shutdown(context.Background())
		return nil, err
	}
	h := svc.Handler()
	if handler != nil {
		h = handler(svc)
	}
	n := &node{svc: svc, srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String()}
	go func() { _ = n.srv.Serve(ln) }()
	return n, nil
}

// stop drains the daemon and closes its server.
func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = n.svc.Shutdown(ctx)
	_ = n.srv.Shutdown(ctx)
}

// fleet is an in-process cluster: a coordinator daemon and workers, each
// worker with one simulation slot, all wired over loopback HTTP.
type fleet struct {
	coord   *node
	workers []*node
}

// startFleet boots n workers and a coordinator with nproc dispatch slots.
func startFleet(n, nproc int) (*fleet, error) {
	f := &fleet{}
	peers := make(map[string]string, n)
	var wks []*cluster.Worker
	for i := 0; i < n; i++ {
		var wk *cluster.Worker
		w, err := startNode(service.Config{
			NodeID: fmt.Sprintf("w%d", i+1), Workers: 1, QueueDepth: 256,
		}, func(svc *service.Service) http.Handler {
			wk = cluster.NewWorker(svc)
			return wk.Handler(svc.Handler())
		})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, w)
		wks = append(wks, wk)
		peers[w.svc.NodeID()] = w.url
	}
	coord := cluster.NewCoordinator()
	c, err := startNode(service.Config{
		NodeID: "coord", Workers: nproc, MaxActiveJobs: nproc, QueueDepth: 1024,
		Remote: coord.Remote, RemoteSweep: coord.RemoteSweep,
	}, func(svc *service.Service) http.Handler { return coord.Handler(svc.Handler()) })
	if err != nil {
		f.stop()
		return nil, err
	}
	f.coord = c
	coord.BindCounters(c.svc.ClusterCounters())
	for i, w := range f.workers {
		coord.AddNode(w.svc.NodeID(), w.url)
		wks[i].SetPeers(peers)
	}
	return f, nil
}

// stop shuts the coordinator down first, then the workers.
func (f *fleet) stop() {
	if f.coord != nil {
		f.coord.stop()
	}
	for _, w := range f.workers {
		w.stop()
	}
}

// workerMetrics sums the workers' /metrics samples.
func (f *fleet) workerMetrics() map[string]float64 {
	out := make(map[string]float64)
	for _, w := range f.workers {
		for k, v := range parseMetrics(w.svc.MetricsText()) {
			out[k] += v
		}
	}
	return out
}

// parseMetrics reads a /metrics document into name → value, summing label
// sets and skipping quantile series.
func parseMetrics(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, ln := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(strings.TrimSpace(ln), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if base, labels, cut := strings.Cut(name, "{"); cut {
			if strings.Contains(labels, "quantile=") || strings.Contains(labels, "le=") {
				continue
			}
			name = base
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] += v
		}
	}
	return out
}

// newClient returns the benchmark's HTTP client, capped at nproc
// connections per daemon.
func newClient(nproc int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     nproc,
		MaxIdleConnsPerHost: nproc,
		IdleConnTimeout:     time.Minute,
	}}
}

// submitHTTP posts a campaign. It returns the job ID, or the HTTP status of
// a refusal (429 or 503) with an empty ID.
func submitHTTP(ctx context.Context, hc *http.Client, base string, spec service.CampaignSpec) (string, int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", 0, err
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return "", resp.StatusCode, nil
	default:
		return "", resp.StatusCode, fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		return "", resp.StatusCode, fmt.Errorf("POST /v1/jobs: %w", err)
	}
	return sub.ID, resp.StatusCode, nil
}

// fetchStatus reads GET /v1/jobs/{id}, the job's result document.
func fetchStatus(ctx context.Context, hc *http.Client, base, id string) (service.JobStatus, error) {
	var st service.JobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id, nil)
	if err != nil {
		return st, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/jobs/%s: %s", id, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("GET /v1/jobs/%s: %w", id, err)
	}
	return st, nil
}

// getBytes fetches a URL and reports whether it answered 200.
func getBytes(ctx context.Context, hc *http.Client, url string) ([]byte, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode == http.StatusOK, err
}

// putBytes posts raw bytes and reports whether the daemon answered 200.
func putBytes(ctx context.Context, hc *http.Client, url string, data []byte) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		return false, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK, nil
}

// statusPhases returns a finished job's queue wait and execution time from
// its own timestamps.
func statusPhases(st service.JobStatus) (queue, exec time.Duration) {
	if st.StartedAt == nil || st.FinishedAt == nil {
		return 0, 0
	}
	return st.StartedAt.Sub(st.SubmittedAt), st.FinishedAt.Sub(*st.StartedAt)
}

// resultsJSON encodes each cell's Result in grid order: the bytes the
// digest and every cross-check compare.
func resultsJSON(st service.JobStatus) ([]string, error) {
	out := make([]string, len(st.Results))
	for i, r := range st.Results {
		b, err := json.Marshal(r.Result)
		if err != nil {
			return nil, err
		}
		out[i] = string(b)
	}
	return out, nil
}
