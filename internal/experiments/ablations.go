package experiments

import (
	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/iq"
	"repro/internal/pipeline"
)

// The ablations extend the paper's evaluation along axes its design
// discussion raises but does not plot: the §III-B1 issue-queue taxonomy,
// the footnote-1 alternative predictors, and the §IV table-organisation
// choices (tagless tables, hash fold width).

// aiq compares the §III-B1 queue taxonomy over the whole suite: the
// shifting (age-ordered, the Alpha 21264 queue) and circular queues against
// the random baseline, by geomean IPC change.
func aiq() study {
	s := study{
		title:   "Ablation — IQ organisations vs the random queue (geomean IPC change)",
		headers: []string{"queue", "D-BP%", "E-BP%"},
		set:     suite,
		cols:    []column{gm(0, clsBase, dbp), gm(0, clsBase, ebp)},
	}
	for _, kind := range []iq.Kind{iq.Shifting, iq.Circular} {
		cfg := variant(pipeline.BaseConfig(), "base-"+kind.String(), func(c *pipeline.Config) { c.IQKind = kind })
		s.rows = append(s.rows, row{label: kind.String(), vars: []pipeline.Config{cfg}})
	}
	return s
}

// apred checks that PUBS's benefit survives a predictor swap (the paper's
// footnote 1 cross-checks with gshare/bimodal/tournament): each family's
// base against the perceptron base, and PUBS's gain over the same-predictor
// base, D-BP geomean.
func apred() study {
	s := study{
		title:   "Ablation — PUBS gain under alternative predictors (D-BP geomean)",
		headers: []string{"predictor", "base-vs-perceptron%", "PUBS-gain%"},
		set:     dbp,
		cols:    []column{gm(0, clsBase, rowSet), gm(1, 0, rowSet)},
	}
	for _, kind := range []string{"gshare", "bimodal", "tournament", "tage"} {
		predictor := func(c *pipeline.Config) { c.Bpred = bpred.Config{Kind: kind} }
		s.rows = append(s.rows, row{label: kind, vars: []pipeline.Config{
			variant(pipeline.BaseConfig(), "base-"+kind, predictor), variant(pipeline.PUBSConfig(), "pubs-"+kind, predictor)}})
	}
	return s
}

// atab compares the §IV organisation choices — the default set-associative
// hashed-tag tables, the tagless variant, and narrower / wider hash folds —
// by D-BP geomean speedup and storage cost.
func atab() study {
	s := study{
		title:   "Ablation — PUBS table organisation (D-BP geomean)",
		headers: []string{"variant", "speedup%", "cost-KB"},
		set:     dbp,
		cols: []column{gm(0, clsBase, rowSet), {plain: true,
			value: func(_ *sweep, r row) float64 { // needs no simulation
				c := r.vars[0].PUBS
				if c.Tagless {
					c.SliceTagBits, c.ConfTagBits = 0, 0
				}
				return core.Cost(c).TotalKB()
			}}},
	}
	variants := []struct {
		name   string
		mutate func(*pipeline.Config)
	}{
		{"hashed t=8/4 (default)", func(*pipeline.Config) {}},
		{"tagless", func(c *pipeline.Config) { c.PUBS.Tagless = true }},
		{"hash t=4/2", func(c *pipeline.Config) { c.PUBS.SliceTagBits = 4; c.PUBS.ConfTagBits = 2 }},
		{"hash t=16/8", func(c *pipeline.Config) { c.PUBS.SliceTagBits = 16; c.PUBS.ConfTagBits = 8 }},
	}
	for _, v := range variants {
		s.rows = append(s.rows, row{label: v.name, vars: []pipeline.Config{variant(pipeline.PUBSConfig(), "pubs-"+v.name, v.mutate)}})
	}
	return s
}
