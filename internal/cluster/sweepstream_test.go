package cluster

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/service"
)

// FuzzSweepStream feeds arbitrary bytes to the sweep response decoder: it
// must never panic, and it can yield no more lines than the input holds
// (the shortest line that decodes, "{}", is two bytes).
func FuzzSweepStream(f *testing.F) {
	f.Add([]byte(`{"key":"a","source":"executed","result":{"key":"a"}}` + "\n" + `{"key":"b","source":"error","error":"boom"}` + "\n"))
	f.Add([]byte(`{}{}null`))
	f.Add([]byte(`{"key":"a"`))
	f.Add([]byte(`{"key":1}`))
	f.Add([]byte("\n\n[]"))
	f.Fuzz(func(t *testing.T, data []byte) {
		lines, err := readSweepStream(bytes.NewReader(data))
		if 2*len(lines) > len(data) {
			t.Fatalf("%d lines from %d bytes (err %v)", len(lines), len(data), err)
		}
	})
}

// TestSweepStreamBoundedByBatch: a peer that streams more than a batch's
// worth of bytes is cut off with an error instead of being read to the
// end.
func TestSweepStreamBoundedByBatch(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = w.Write([]byte(`{"key":"a","source":"executed"}` + "\n"))
		_, _ = w.Write([]byte(`{"key":"b","error":"` + strings.Repeat("x", 2*maxWireBytes) + `"}` + "\n"))
	}))
	defer srv.Close()
	lines, err := executeSweepBatch(context.Background(), srv.Client(), srv.URL,
		sweepRequest{Cells: []service.RemoteCell{{Key: "a"}}})
	if err == nil {
		t.Fatal("oversized sweep stream decoded without error")
	}
	if len(lines) != 1 || lines[0].Key != "a" {
		t.Fatalf("lines before the cut = %+v, want the one complete line", lines)
	}
}
