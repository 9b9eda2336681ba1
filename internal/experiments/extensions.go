package experiments

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/pipeline"
)

// The extension experiments make the paper's §III-C discussion executable:
// the adaptation of PUBS to a distributed issue queue (§III-C2) and the
// idealized flexible-priority select the paper deems unimplementable
// (§III-C1), used here as an upper bound on the partitioned design. Two
// more extend Table III's cost argument to energy and test the
// correct-path-only table updates of DESIGN.md §2.

// ExtDistributed compares unified and distributed queues, each with and
// without PUBS, by D-BP geomean speedup over the unified base; the footer
// gives PUBS's gain over its own base, since §III-C2 claims the scheme
// transfers.
func ExtDistributed(r *Runner) (Study, error) {
	distributed := func(c *pipeline.Config) { c.DistributedIQ = true }
	distBase := variant(pipeline.BaseConfig(), "dist-base", distributed)
	distPubs := variant(pipeline.PUBSConfig(), "dist-pubs", distributed)
	return study{
		title:   "Extension — PUBS on a distributed IQ (§III-C2), D-BP geomean vs unified base",
		headers: []string{"machine", "speedup%"},
		set:     dbp,
		rows: []row{{label: "unified PUBS", vars: []pipeline.Config{pipeline.PUBSConfig()}},
			{label: "distributed base", vars: []pipeline.Config{distBase}},
			{label: "distributed PUBS", vars: []pipeline.Config{distPubs}}},
		cols: []column{gm(0, clsBase, rowSet)},
		footer: func(w *sweep) string {
			return fmt.Sprintf("PUBS gain over its own base: unified %+.2f%%, distributed %+.2f%%\n",
				w.vals[0][0], speedupGM(w.set, w.res[distBase.Name], w.res[distPubs.Name]))
		},
	}.run(r)
}

// ExtFlexible compares partitioned PUBS against the idealized
// flexible-priority select (§III-C1) over the D-BP set; the footer says how
// much of the idealized gain the implementable design captures.
func ExtFlexible(r *Runner) (Study, error) {
	flex := variant(pipeline.PUBSConfig(), "pubs-flexible", func(c *pipeline.Config) { c.PUBS.FlexibleSelect = true })
	return study{
		title:   "Extension — partitioned PUBS vs idealized flexible select (§III-C1), D-BP geomean",
		headers: []string{"select logic", "speedup%"},
		set:     dbp,
		rows: []row{{label: "priority entries (implementable)", vars: []pipeline.Config{pipeline.PUBSConfig()}},
			{label: "flexible select (idealized)", vars: []pipeline.Config{flex}}},
		cols: []column{gm(0, clsBase, rowSet)},
		footer: func(w *sweep) string {
			var eff float64
			if flexible := w.vals[1][0]; flexible > 0 {
				eff = w.vals[0][0] / flexible * 100
			}
			return fmt.Sprintf("partitioned design captures %.0f%% of the idealized gain\n", eff)
		},
	}.run(r)
}

// ExtEnergy gives the per-instruction energy of base and PUBS over the D-BP
// set, including the PUBS tables' own access energy; the footer gives the
// net saving and the tables' share of PUBS-machine energy.
func ExtEnergy(r *Runner) (Study, error) {
	// energyOf sums the activity model over the set on variant cfg.
	energyOf := func(w *sweep, cfg pipeline.Config) (total, tables float64, insts uint64) {
		c := energy.Defaults()
		for _, n := range w.set {
			e := energy.Estimate(cfg, w.res[cfg.Name][n], c)
			total += e.Total()
			tables += e.PUBS
			insts += e.Insts
		}
		return total, tables, insts
	}
	return study{
		title:   "Extension — energy per instruction over the D-BP set (activity model)",
		headers: []string{"machine", "EPI (pJ)"},
		set:     dbp,
		rows: []row{{label: "base", vars: []pipeline.Config{pipeline.BaseConfig()}},
			{label: "PUBS", vars: []pipeline.Config{pipeline.PUBSConfig()}}},
		cols: []column{{plain: true, value: func(w *sweep, r row) float64 {
			total, _, insts := energyOf(w, r.vars[0])
			return total / float64(insts)
		}}},
		footer: func(w *sweep) string {
			var savings, share float64
			if baseEPI, pubsEPI := w.vals[0][0], w.vals[1][0]; baseEPI > 0 {
				// Equal instruction counts per workload, so totals are comparable.
				savings = (1 - pubsEPI/baseEPI) * 100
			}
			if total, tables, _ := energyOf(w, pipeline.PUBSConfig()); total > 0 {
				share = tables / total * 100
			}
			return fmt.Sprintf("net energy saving %+.2f%%; the %.1f KB PUBS tables account for %.2f%% of PUBS-machine energy\n",
				savings, energy.CostKB(pipeline.PUBSConfig().PUBS), share)
		},
	}.run(r)
}

// ExtWrongPath quantifies the correct-path-only simplification: the PUBS
// speedup with and without wrong-path pollution of the slice tables, D-BP
// geomean; the footer qualifies the delta.
func ExtWrongPath(r *Runner) (Study, error) { return xwp().run(r) }

func xwp() study {
	wp := variant(pipeline.PUBSConfig(), "pubs-wrongpath", func(c *pipeline.Config) { c.WrongPathDecode = true })
	return study{
		title:   "Extension — wrong-path pollution of the PUBS tables (D-BP geomean)",
		headers: []string{"table update model", "speedup%"},
		set:     dbp,
		rows: []row{{label: "correct path only (default)", vars: []pipeline.Config{pipeline.PUBSConfig()}},
			{label: "with wrong-path decode", vars: []pipeline.Config{wp}}},
		cols: []column{gm(0, clsBase, rowSet)},
		footer: func(w *sweep) string {
			delta := w.vals[1][0] - w.vals[0][0]
			return fmt.Sprintf("delta %+.2f pp — the correct-path simplification is %s\n", delta, qualifyDelta(delta))
		},
	}
}

func qualifyDelta(d float64) string {
	if d < 0 {
		d = -d
	}
	switch {
	case d < 0.5:
		return "second-order, as assumed"
	case d < 1.5:
		return "noticeable but small"
	default:
		return "significant — revisit the assumption"
	}
}
