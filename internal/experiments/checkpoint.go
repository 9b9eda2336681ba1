package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/pipeline"
)

// checkpointVersion invalidates stale on-disk records when the result
// schema changes.
const checkpointVersion = 1

// checkpoint is a content-addressed store of finished simulation results:
// one JSON file per run, named by the SHA-256 of the full memo key (config
// + workload + window sizes), written atomically (temp file + rename) so a
// killed campaign never leaves a torn record. Unreadable, torn, or
// mismatched files are silently treated as misses and recomputed — a
// corrupt checkpoint can cost time, never correctness.
type checkpoint struct{ dir string }

// checkpointRecord is the serialized form. The full key is stored so a load
// can reject hash collisions and records from other option sets.
type checkpointRecord struct {
	Version  int             `json:"version"`
	Key      string          `json:"key"`
	Workload string          `json:"workload"`
	Config   string          `json:"config"`
	Result   pipeline.Result `json:"result"`
}

func newCheckpoint(dir string) (*checkpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiments: checkpoint dir: %w", err)
	}
	return &checkpoint{dir: dir}, nil
}

func (c *checkpoint) path(key string) string {
	return filepath.Join(c.dir, KeyHash(key)+".json")
}

// load returns the stored result for key, or ok=false on any miss (absent,
// unparsable, wrong version, or key mismatch).
func (c *checkpoint) load(key string) (pipeline.Result, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return pipeline.Result{}, false
	}
	var rec checkpointRecord
	if err := json.Unmarshal(data, &rec); err != nil || rec.Version != checkpointVersion || rec.Key != key {
		return pipeline.Result{}, false
	}
	return rec.Result, true
}

// save stores one result atomically. A failed save only costs a
// re-simulation on the next resume, so the caller treats errors as
// non-fatal (they are counted in RunnerStats.CheckpointErrors).
func (c *checkpoint) save(key, wl, cfgName string, res pipeline.Result) error {
	data, err := json.Marshal(checkpointRecord{
		Version:  checkpointVersion,
		Key:      key,
		Workload: wl,
		Config:   cfgName,
		Result:   res,
	})
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
