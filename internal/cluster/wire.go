package cluster

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"repro/internal/service"
)

// The cluster wire protocol is HTTP/JSON, mounted under /v1/cluster/ next
// to the public pubsd API:
//
//	POST /v1/cluster/sweep        coordinator -> worker: run a batch of
//	                              cells (one workload's machines, or one
//	                              cell); streaming NDJSON response, one
//	                              sweepLine per cell as it completes
//	GET  /v1/cluster/result/{key} peer -> peer: cache-only fetch by hash
//	POST /v1/cluster/result       peer -> peer: proactive result replication
//	GET  /v1/cluster/plan/{key}   peer -> peer: cache-only serialized
//	                              sampling plan by plan key (?wait=1 long-
//	                              polls while the serving node is planning)
//	POST /v1/cluster/plan/{key}   peer -> peer: proactive plan replication
//	POST /v1/cluster/peers        coordinator -> worker: membership push
//	POST /v1/cluster/join         worker -> coordinator: announce self
//	GET  /v1/cluster/nodes        anyone -> coordinator: member map
//
// A sweep body lists service.RemoteCells and every result payload is the
// service.CellResult schema — the same record the public API serves, which
// is what makes cluster bit-identity checkable byte for byte. Plan
// payloads are the sampling package's sealed envelope (sampling.EncodePlan):
// flate-compressed windows behind a SHA-256 content hash, so a corrupt or
// truncated plan is rejected at decode, never replayed.

// joinRequest is the body of POST /v1/cluster/join: a worker announcing
// its stable node ID and the base URL peers reach it at.
type joinRequest struct {
	Node string `json:"node"`
	URL  string `json:"url"`
}

// peersMsg carries the full member map (node ID -> base URL) plus the
// coordinator's membership epoch, a strictly increasing stamp workers use
// to discard snapshots delivered out of order (broadcasts are async, so two
// rapid joins can land reversed). The join response, the membership push,
// and the nodes listing all share it; epoch 0 means unversioned.
type peersMsg struct {
	Peers map[string]string `json:"peers"`
	Epoch uint64            `json:"epoch,omitempty"`
}

// sweepRequest is the body of POST /v1/cluster/sweep: every still-unresolved
// cell of one workload's machine sweep owned by the receiving node (or the
// one cell of a per-cell dispatch), plus the sampling-plan coordinates.
// PlanKey is the plan content address all cells share ("" for a per-cell
// dispatch, which names no planner); Planner is the node ID the coordinator
// designated to pay the workload's one functional pass — the receiver plans
// if that is itself, once a cache-only lookup finds no peer already holding
// the plan, and otherwise long-polls the planner's plan endpoint before
// falling back to a local pass.
type sweepRequest struct {
	Cells   []service.RemoteCell `json:"cells"`
	PlanKey string               `json:"plan_key,omitempty"`
	Planner string               `json:"planner,omitempty"`
}

// sweepLine is one NDJSON line of the sweep response, written as a cell
// settles: the content key, and Source saying which tier answered —
// "cache" (the worker's own store), "peer" (a peer fetch by hash),
// "executed" (the worker's Submit path ran it, which may itself have been
// answered by its memo or checkpoint without a fresh simulation), or
// "error", with Error set.
type sweepLine struct {
	Key    string             `json:"key"`
	Result service.CellResult `json:"result,omitempty"`
	Source string             `json:"source"`
	Error  string             `json:"error,omitempty"`
}

// maxWireBytes bounds every cluster request body; a RemoteCell is a few
// hundred bytes and a member map a few KB. Serialized sampling plans are
// the exception — dirty pages plus ~17 B/instruction of predecoded trace —
// and get their own, far larger bound.
const (
	maxWireBytes     = 1 << 20
	maxPlanWireBytes = 1 << 28
)

type wireError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, wireError{Error: err.Error()})
}

// decodeBody decodes a request body that must be exactly one JSON value
// of v's shape: no unknown fields, no trailing data, at most maxWireBytes.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxWireBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("cluster: request body has data after its JSON value")
	}
	return nil
}
