// Package service turns the simulator into a long-running campaign
// daemon: an HTTP JSON API over a bounded job queue, a worker pool that
// shards each campaign's (machine × workload) grid across workers, and a
// content-addressed result cache with singleflight deduplication so that
// concurrent identical submissions — the heavy-traffic case — execute
// once. Execution reuses the experiment Runner end to end: panic-recovering
// workers, per-run timeouts and transient-failure retries, memoization,
// and optional on-disk checkpointing share one code path with the CLI, so
// a result served by the daemon is bit-identical to the equivalent
// cmd/experiments run.
package service

import (
	"fmt"
	"strings"

	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// MachineSpec names a machine configuration plus optional PUBS overrides —
// the JSON mirror of cmd/pubsim's machine flags, so a CLI invocation and a
// service submission describe machines identically.
type MachineSpec struct {
	// Machine is one of: base, pubs, age, pubs+age, or
	// {base,pubs}-{small,medium,large,huge}.
	Machine string `json:"machine"`

	// PUBS parameter overrides (ignored on machines without PUBS).
	PriorityEntries int  `json:"priority_entries,omitempty"`
	ConfCounterBits int  `json:"conf_counter_bits,omitempty"`
	NoStall         bool `json:"nostall,omitempty"`
	NoSwitch        bool `json:"noswitch,omitempty"`
	Blind           bool `json:"blind,omitempty"`
	Flexible        bool `json:"flexible,omitempty"`

	// Machine-level toggles.
	Distributed bool `json:"distributed,omitempty"`
	WrongPath   bool `json:"wrongpath,omitempty"`
}

// MachineConfig resolves a machine name to its configuration — the same
// naming scheme cmd/pubsim accepts on -machine.
func MachineConfig(machine string) (pipeline.Config, error) {
	sizes := map[string]pipeline.Size{
		"small": pipeline.Small, "medium": pipeline.Medium,
		"large": pipeline.Large, "huge": pipeline.Huge,
	}
	switch machine {
	case "base":
		return pipeline.BaseConfig(), nil
	case "pubs":
		return pipeline.PUBSConfig(), nil
	case "age":
		cfg := pipeline.BaseConfig()
		cfg.Name = "age"
		cfg.AgeMatrix = true
		return cfg, nil
	case "pubs+age":
		cfg := pipeline.PUBSConfig()
		cfg.Name = "pubs+age"
		cfg.AgeMatrix = true
		return cfg, nil
	}
	if kind, size, ok := strings.Cut(machine, "-"); ok {
		sz, found := sizes[size]
		if !found {
			return pipeline.Config{}, fmt.Errorf("service: unknown machine size %q", size)
		}
		cfg := pipeline.ScaledConfig(sz)
		switch kind {
		case "base":
			return cfg, nil
		case "pubs":
			cfg.Name = "pubs-" + size
			cfg.PUBS = pipeline.PUBSConfig().PUBS
			return cfg, nil
		}
	}
	return pipeline.Config{}, fmt.Errorf("service: unknown machine %q", machine)
}

// Config resolves the spec to a validated machine configuration. Overrides
// are folded into the name so distinct parameterizations stay visibly (and
// content-addressably) distinct.
func (m MachineSpec) Config() (pipeline.Config, error) {
	cfg, err := MachineConfig(m.Machine)
	if err != nil {
		return pipeline.Config{}, err
	}
	// Negative overrides are malformed, not "unset": silently ignoring
	// them would accept a spec the submitter believes says something.
	if m.PriorityEntries < 0 || m.ConfCounterBits < 0 {
		return pipeline.Config{}, fmt.Errorf("service: machine %q: negative PUBS override", m.Machine)
	}
	if cfg.PUBS.Enable {
		if m.PriorityEntries > 0 {
			cfg.PUBS.PriorityEntries = m.PriorityEntries
			cfg.Name += fmt.Sprintf("-p%d", m.PriorityEntries)
		}
		if m.ConfCounterBits > 0 {
			cfg.PUBS.ConfCounterBits = m.ConfCounterBits
			cfg.Name += fmt.Sprintf("-c%d", m.ConfCounterBits)
		}
		if m.NoStall {
			cfg.PUBS.StallDispatch = false
			cfg.Name += "-nostall"
		}
		if m.NoSwitch {
			cfg.PUBS.ModeSwitch = false
			cfg.Name += "-noswitch"
		}
		if m.Blind {
			cfg.PUBS.Blind = true
			cfg.Name += "-blind"
		}
		if m.Flexible {
			cfg.PUBS.FlexibleSelect = true
			cfg.Name += "-flexible"
		}
	}
	if m.Distributed {
		cfg.DistributedIQ = true
		cfg.Name += "-dist"
	}
	if m.WrongPath {
		cfg.WrongPathDecode = true
		cfg.Name += "-wp"
	}
	if err := cfg.Validate(); err != nil {
		return pipeline.Config{}, err
	}
	return cfg, nil
}

// CampaignSpec is the body of POST /v1/jobs: a (machine × workload) grid
// plus optional simulation windows. Empty Workloads means the full suite;
// zero windows fall back to the daemon's defaults. Windows > 0 switches
// the job to sampled simulation: Windows measurement windows of
// Warmup+Measure detailed instructions separated by FastForward functional
// gaps, with the fast-forward paid once per workload and shared across the
// job's machines. ParallelWindows sets per-cell window concurrency
// (negative = GOMAXPROCS); it never changes results. WindowMajor schedules
// a sampled job's machines window-major: each workload's predecoded windows
// replay across every machine of the grid while the trace is hot, one sweep
// per worker slot. Neither changes results, so they do not enter result
// keys.
type CampaignSpec struct {
	Machines        []MachineSpec `json:"machines"`
	Workloads       []string      `json:"workloads,omitempty"`
	Warmup          uint64        `json:"warmup,omitempty"`
	Measure         uint64        `json:"measure,omitempty"`
	Windows         int           `json:"windows,omitempty"`
	FastForward     uint64        `json:"fast_forward,omitempty"`
	ParallelWindows int           `json:"parallel_windows,omitempty"`
	WindowMajor     bool          `json:"window_major,omitempty"`

	// Admission-control metadata. Tenant names the submitter for the
	// per-tenant token buckets (empty = the shared "default" bucket);
	// Priority orders the job queue and picks shedding victims under
	// overload (higher runs first, lower sheds first; negative =
	// best-effort, refused above the high-water mark). Neither enters
	// memo, checkpoint, or content keys — two submissions differing only
	// here share every cell.
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
}

// maxSampleWindows bounds a sampled spec's window count: beyond it a
// submission is a typo or an attack, not an experiment.
const maxSampleWindows = 65536

// Cells validates the spec and enumerates its grid. maxCells caps
// degenerate submissions (0 disables the cap).
func (s CampaignSpec) Cells(maxCells int) ([]experiments.Cell, error) {
	if len(s.Machines) == 0 {
		return nil, fmt.Errorf("service: spec needs at least one machine")
	}
	if s.Windows < 0 || s.Windows > maxSampleWindows {
		return nil, fmt.Errorf("service: windows must be in [0, %d], got %d", maxSampleWindows, s.Windows)
	}
	if s.Priority < -1000 || s.Priority > 1000 {
		return nil, fmt.Errorf("service: priority must be in [-1000, 1000], got %d", s.Priority)
	}
	cfgs := make([]pipeline.Config, 0, len(s.Machines))
	for i, m := range s.Machines {
		cfg, err := m.Config()
		if err != nil {
			return nil, fmt.Errorf("service: machines[%d]: %w", i, err)
		}
		cfgs = append(cfgs, cfg)
	}
	wls := s.Workloads
	if len(wls) == 0 {
		wls = workload.Names()
	}
	for _, wl := range wls {
		if _, err := workload.ByName(wl); err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
	}
	if maxCells > 0 && len(cfgs)*len(wls) > maxCells {
		return nil, fmt.Errorf("service: spec expands to %d cells, cap is %d", len(cfgs)*len(wls), maxCells)
	}
	return experiments.Grid(cfgs, wls), nil
}

// options resolves the spec's windows against the daemon defaults.
func (s CampaignSpec) options(def experiments.Options) experiments.Options {
	o := def
	if s.Warmup > 0 {
		o.Warmup = s.Warmup
	}
	if s.Measure > 0 {
		o.Measure = s.Measure
	}
	if s.Windows > 0 {
		o.SampleWindows = s.Windows
		o.SampleFastForward = s.FastForward
		o.ParallelWindows = s.ParallelWindows
	}
	if s.WindowMajor {
		o.WindowMajor = true
	}
	return o
}

// CellResult is the job-result schema shared by the pubsd API
// (GET /v1/results/{key}, job status documents) and `pubsim -json`: one
// simulated cell, addressed by the content key the checkpoint store and
// the daemon cache agree on.
type CellResult struct {
	Key      string          `json:"key"`
	Machine  string          `json:"machine"`
	Workload string          `json:"workload"`
	Warmup   uint64          `json:"warmup"`
	Measure  uint64          `json:"measure"`
	Result   pipeline.Result `json:"result"`

	// Sampled-run geometry; zero (and omitted from JSON) for the
	// contiguous-window runs that predate sampling, keeping their wire
	// records byte-identical.
	Windows     int    `json:"windows,omitempty"`
	FastForward uint64 `json:"fast_forward,omitempty"`
}

// NewCellResult assembles the wire record for a finished cell.
func NewCellResult(cell experiments.Cell, o experiments.Options, res pipeline.Result) CellResult {
	return CellResult{
		Key:         cell.Key(o),
		Machine:     cell.Config.Name,
		Workload:    cell.Workload,
		Warmup:      o.Warmup,
		Measure:     o.Measure,
		Result:      res,
		Windows:     o.SampleWindows,
		FastForward: o.SampleFastForward,
	}
}
