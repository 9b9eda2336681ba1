package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"

	"repro/internal/pipeline"
)

// Cell is one point of a campaign grid: a machine configuration paired with
// a workload. A campaign — a figure, an ablation, a service job — is a set
// of cells; exposing them individually lets schedulers (the pubsd worker
// pool, a future distributed runner) shard a grid however they like while
// still sharing the Runner's memoization and checkpoint machinery.
type Cell struct {
	Config   pipeline.Config
	Workload string
}

// Grid enumerates the full cross product of machine configurations and
// workloads in deterministic order (configs outer, workloads inner).
func Grid(cfgs []pipeline.Config, workloads []string) []Cell {
	cells := make([]Cell, 0, len(cfgs)*len(workloads))
	for _, cfg := range cfgs {
		for _, wl := range workloads {
			cells = append(cells, Cell{Config: cfg, Workload: wl})
		}
	}
	return cells
}

// MemoKey returns the cell's full memoization key under the given options —
// the exact string the Runner's memo cache and checkpoint store index by.
// Only the simulation windows of o matter; parallelism and failure-handling
// options do not change what a run computes.
func (c Cell) MemoKey(o Options) string {
	return cfgKey(c.Config, c.Workload, o.normalized())
}

// Key returns the cell's content address: the hex SHA-256 of MemoKey, the
// same hashing discipline (and therefore the same hash) as the file stem
// used by Runner.WithCheckpoint. Two cells share a Key iff they describe
// the identical simulation, so the key is safe to use for deduplication
// and as a public result handle.
func (c Cell) Key(o Options) string {
	return KeyHash(c.MemoKey(o))
}

// KeyHash content-addresses a memo key: hex SHA-256, shared with the
// on-disk checkpoint's file naming.
func KeyHash(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// RunCell simulates one grid cell, answering from the memo cache or
// checkpoint when possible. Failures are typed (see internal/simerr):
// transient ones are retried with exponential backoff up to Options.Retries
// times; panics are recovered into *simerr.PanicError; a per-simulation
// Options.Timeout surfaces as simerr.ErrTimeout; a done ctx fails the cell
// with ctx's error unless the memo already holds it. It is the one-cell
// batch of runBatch and runs on the calling goroutine.
func (r *Runner) RunCell(ctx context.Context, c Cell) (pipeline.Result, error) {
	res, errs := r.runBatch(ctx, []pipeline.Config{c.Config}, c.Workload)
	if errs[0] != nil {
		return pipeline.Result{}, errs[0]
	}
	return res[0], nil
}
