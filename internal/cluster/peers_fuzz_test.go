package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/service"
)

// FuzzPeersMsg posts arbitrary bodies to a worker's membership endpoint.
// The handler must never panic and must answer 200 exactly for a body of
// at most maxWireBytes that is one JSON value of peersMsg's shape with no
// unknown field, 400 for anything else. After every accepted push the
// applied view keeps ApplyPeers's invariants: the worker is never its own
// peer, no URL is empty or ends in '/', and the epoch never goes back.
func FuzzPeersMsg(f *testing.F) {
	for _, seed := range []string{
		`{"peers":{"w1":"http://127.0.0.1:1","w2":"http://127.0.0.1:2/"},"epoch":7}`,
		`{"peers":{"self":"http://127.0.0.1:3","w3":""}}`,
		`{"peers":{"w4":"/"}}`,
		`{"PEERS":{"w5":"http://h//"}}`,
		`{"peers":{},"epoch":1,"extra":true}`,
		`{"peers":{"w6":"http://h"}} {}`,
		`{"peers":{"w7":1}}`,
		`{"epoch":-1}`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	wk, h := peersWorker(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		wk.mu.Lock()
		before := wk.peersEpoch
		wk.mu.Unlock()

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/peers", bytes.NewReader(body)))

		var ref peersMsg
		accept := len(body) <= maxWireBytes && json.Unmarshal(body, &ref) == nil && !hasUnknownPeersField(body)
		if want := map[bool]int{true: http.StatusOK, false: http.StatusBadRequest}[accept]; rec.Code != want {
			t.Fatalf("status %d, want %d (body %q)", rec.Code, want, body)
		}

		wk.mu.Lock()
		defer wk.mu.Unlock()
		if wk.peersEpoch < before {
			t.Fatalf("applied epoch went back from %d to %d", before, wk.peersEpoch)
		}
		if accept && ref.Epoch > before && wk.peersEpoch != ref.Epoch {
			t.Fatalf("newer epoch %d not applied (now %d)", ref.Epoch, wk.peersEpoch)
		}
		for node, url := range wk.peers {
			if node == "self" || url == "" || strings.HasSuffix(url, "/") {
				t.Fatalf("applied peer %q -> %q breaks the peer-map invariants", node, url)
			}
		}
	})
}

// peersWorker returns a worker with node ID "self" and its cluster
// endpoints.
func peersWorker(tb testing.TB) (*Worker, http.Handler) {
	svc, err := service.New(service.Config{NodeID: "self", Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = svc.Shutdown(context.Background()) })
	wk := NewWorker(svc)
	return wk, wk.Handler(nil)
}

// TestPeersMsgOversized: a well-formed push padded past maxWireBytes is a
// 400 and changes nothing. (Kept out of FuzzPeersMsg's seed corpus: the
// fuzzer stalls minimizing megabyte inputs.)
func TestPeersMsgOversized(t *testing.T) {
	wk, h := peersWorker(t)
	body := `{"peers":{"w1":"http://h"}` + strings.Repeat(" ", maxWireBytes) + `}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/peers", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized push: status %d, want 400", rec.Code)
	}
	if len(wk.peerList()) != 0 {
		t.Fatalf("oversized push applied peers %v", wk.peerList())
	}
}

// hasUnknownPeersField reports whether a JSON object names a field other
// than peersMsg's, matched case-insensitively as encoding/json does.
func hasUnknownPeersField(body []byte) bool {
	var fields map[string]json.RawMessage
	if json.Unmarshal(body, &fields) != nil {
		return false
	}
	for k := range fields {
		if !strings.EqualFold(k, "peers") && !strings.EqualFold(k, "epoch") {
			return true
		}
	}
	return false
}
