package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func testServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s := testService(t, cfg)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

func postJob(t *testing.T, srv *httptest.Server, spec CampaignSpec) (submitResponse, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	var sub submitResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	resp.Body.Close()
	return sub, resp
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestHTTPJobLifecycle(t *testing.T) {
	_, srv := testServer(t, Config{Workers: 2})
	spec := CampaignSpec{
		Machines:  []MachineSpec{{Machine: "base"}},
		Workloads: []string{"matmul"},
	}
	sub, resp := postJob(t, srv, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if sub.ID == "" || sub.Cells != 1 {
		t.Fatalf("submit response %+v", sub)
	}

	deadline := time.Now().Add(60 * time.Second)
	var st JobStatus
	for {
		getJSON(t, srv.URL+"/v1/jobs/"+sub.ID, &st)
		if st.State.terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if st.State != JobDone || len(st.Results) != 1 {
		t.Fatalf("status %+v", st)
	}

	// The result is addressable by content key.
	var cell CellResult
	if resp := getJSON(t, srv.URL+"/v1/results/"+st.Results[0].Key, &cell); resp.StatusCode != http.StatusOK {
		t.Fatalf("results status %d", resp.StatusCode)
	}
	if cell.Key != st.Results[0].Key || cell.Workload != "matmul" {
		t.Fatalf("result %+v", cell)
	}

	// Job listing includes it.
	var list []JobStatus
	getJSON(t, srv.URL+"/v1/jobs", &list)
	if len(list) != 1 || list[0].ID != sub.ID {
		t.Fatalf("list %+v", list)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, srv := testServer(t, Config{Workers: 1})
	// Malformed body.
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %d, want 400", resp.StatusCode)
	}
	// An unknown field — a schema typo, or a field this build removed — is
	// a 400 that names it, not silently ignored.
	for field, body := range map[string]string{
		"warmpu":       `{"machines":[{"machine":"base"}],"warmpu":1}`,
		"live_decode":  `{"machines":[{"machine":"base"}],"windows":2,"live_decode":true}`,
		"no_idle_skip": `{"machines":[{"machine":"base","no_idle_skip":true}]}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e apiError
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, `"`+field+`"`) {
			t.Errorf("unknown field %s: %d %q, want 400 naming it", field, resp.StatusCode, e.Error)
		}
	}
	// Invalid spec.
	if _, resp := postJob(t, srv, CampaignSpec{Machines: []MachineSpec{{Machine: "nope"}}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad machine: %d, want 400", resp.StatusCode)
	}
	// Unknown job / result.
	if resp := getJSON(t, srv.URL+"/v1/jobs/zzz", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/v1/results/zzz", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown result: %d, want 404", resp.StatusCode)
	}
}

func TestHTTPEventStream(t *testing.T) {
	_, srv := testServer(t, Config{Workers: 2})
	sub, _ := postJob(t, srv, CampaignSpec{
		Machines:  []MachineSpec{{Machine: "base"}},
		Workloads: []string{"matmul", "chess"},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
		srv.URL+"/v1/jobs/"+sub.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	// The stream must close itself once the job ends, with the terminal
	// event as the last line.
	if len(events) < 4 {
		t.Fatalf("only %d events", len(events))
	}
	if events[0].Type != "queued" {
		t.Errorf("first event %q", events[0].Type)
	}
	last := events[len(events)-1]
	if last.Type != "done" || last.Completed != 2 {
		t.Errorf("last event %+v", last)
	}
	cells := 0
	for _, e := range events {
		if e.Type == "cell" {
			cells++
			if e.Key == "" || e.Outcome == "" {
				t.Errorf("cell event missing key/outcome: %+v", e)
			}
		}
	}
	if cells != 2 {
		t.Errorf("cell events = %d, want 2", cells)
	}
}

func TestHTTPHealthzAndMetrics(t *testing.T) {
	s, srv := testServer(t, Config{Workers: 1})
	if resp := getJSON(t, srv.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", resp.StatusCode)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	resp.Body.Close()
	if !strings.Contains(sb.String(), "pubsd_queue_depth{node=\"local\"} 0") {
		t.Errorf("metrics body missing gauges:\n%s", sb.String())
	}

	// After shutdown, healthz flips to 503 and submissions get 503.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if resp := getJSON(t, srv.URL+"/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz %d, want 503", resp.StatusCode)
	}
	if _, resp := postJob(t, srv, CampaignSpec{Machines: []MachineSpec{{Machine: "base"}}, Workloads: []string{"matmul"}}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining submit %d, want 503", resp.StatusCode)
	}
}

// TestConcurrentDuplicateSubmitsOverHTTP: six campaigns over two specs,
// posted at once, are answered by simulating each distinct cell once; the
// duplicates merge onto in-flight work or hit the cache.
func TestConcurrentDuplicateSubmitsOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent burst in -short")
	}
	s, srv := testServer(t, Config{Workers: 4, MaxActiveJobs: 4})
	specs := []CampaignSpec{
		{Machines: []MachineSpec{{Machine: "base"}}, Workloads: []string{"matmul", "chess"}},
		{Machines: []MachineSpec{{Machine: "pubs"}}, Workloads: []string{"matmul"}},
	}
	ids := make([]string, 6)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(specs[i%len(specs)])
			resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("job %d: POST /v1/jobs: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var sub submitResponse
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("job %d: submit status %d", i, resp.StatusCode)
			} else if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
				t.Errorf("job %d: decode submit response: %v", i, err)
			}
			ids[i] = sub.ID
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	deadline := time.Now().Add(120 * time.Second)
	for _, id := range ids {
		var st JobStatus
		for {
			getJSON(t, srv.URL+"/v1/jobs/"+id, &st)
			if st.State.terminal() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", id, st.State)
			}
			time.Sleep(20 * time.Millisecond)
		}
		if st.State != JobDone {
			t.Errorf("job %s: %s %v", id, st.State, st.Errors)
		}
	}
	// 6 jobs over 2 specs = heavy duplication: 3 unique cells total.
	rs, _ := s.runnerStats()
	if rs.Simulated != 3 {
		t.Errorf("Simulated = %d, want 3", rs.Simulated)
	}
	if s.m.cacheHits.Load()+s.m.merged.Load()+rs.MemoHits == 0 {
		t.Error("no dedup observed under duplicate traffic")
	}
}
