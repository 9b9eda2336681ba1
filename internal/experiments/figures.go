package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/iq"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ---------------------------------------------------------------- Fig. 8

// Fig8Row is one program's bar in Fig. 8.
type Fig8Row struct {
	Workload   string
	Analogue   string
	SpeedupPct float64
	BaseIPC    float64
	PUBSIPC    float64
	BrMPKI     float64 // base machine
	LLCMPKI    float64 // base machine
	DBP        bool
}

// Fig8Result reproduces Fig. 8: per-program speedup of PUBS over the base,
// with geometric means over the D-BP and E-BP sets. Failed runs are
// reported in Failed; the rows and means cover the programs that completed
// on both machines.
type Fig8Result struct {
	Rows      []Fig8Row
	GMDiffPct float64 // "GM diff": geomean speedup over D-BP programs
	GMEasyPct float64 // "GM easy": geomean speedup over E-BP programs
	Failed    []RunError
}

// Fig8 runs base and PUBS machines over the whole suite.
func Fig8(r *Runner) (Fig8Result, error) {
	return Fig8Context(context.Background(), r)
}

// Fig8Context is Fig8 with cancellation and partial tolerance: a run that
// fails (deadlock, panic, timeout) drops only its own program from the
// figure. The failures come back both in the result's Failed list and as a
// *CampaignError, so callers can print the partial table and still see a
// non-nil error.
func Fig8Context(ctx context.Context, r *Runner) (Fig8Result, error) {
	base, baseErr := r.RunAllContext(ctx, pipeline.BaseConfig(), workload.Names())
	if _, ok := baseErr.(*CampaignError); baseErr != nil && !ok {
		return Fig8Result{}, baseErr
	}
	names := make([]string, 0, len(base))
	for n := range base {
		names = append(names, n)
	}
	sort.Strings(names)
	pubs, pubsErr := r.RunAllContext(ctx, pipeline.PUBSConfig(), names)
	if _, ok := pubsErr.(*CampaignError); pubsErr != nil && !ok {
		return Fig8Result{}, pubsErr
	}

	// Classify the programs that completed on both machines.
	var dbp, ebp []string
	for _, n := range names {
		if _, ok := pubs[n]; !ok {
			continue
		}
		if base[n].BranchMPKI() > DBPThresholdMPKI {
			dbp = append(dbp, n)
		} else {
			ebp = append(ebp, n)
		}
	}
	var out Fig8Result
	for i, n := range append(append([]string{}, dbp...), ebp...) {
		b, p := base[n], pubs[n]
		var analogue string
		if w, err := workload.ByName(n); err == nil {
			analogue = w.Analogue
		}
		out.Rows = append(out.Rows, Fig8Row{
			Workload:   n,
			Analogue:   analogue,
			SpeedupPct: stats.Speedup(b.IPC(), p.IPC()),
			BaseIPC:    b.IPC(),
			PUBSIPC:    p.IPC(),
			BrMPKI:     b.BranchMPKI(),
			LLCMPKI:    b.LLCMPKI(),
			DBP:        i < len(dbp),
		})
	}
	out.GMDiffPct = speedupGM(dbp, base, pubs)
	out.GMEasyPct = speedupGM(ebp, base, pubs)
	out.Failed = mergeFailures(baseErr, pubsErr)
	return out, campaignError(out.Failed)
}

// Table renders the figure as text, listing any failed runs after the
// rows so a partial figure is visibly partial.
func (f Fig8Result) Table() string {
	t := stats.NewTable("Fig. 8 — Speedup of PUBS over the base processor",
		"program", "analogue", "class", "speedup%", "baseIPC", "pubsIPC", "brMPKI", "llcMPKI")
	for _, row := range f.Rows {
		class := "E-BP"
		if row.DBP {
			class = "D-BP"
		}
		t.Row(row.Workload, row.Analogue, class,
			fmt.Sprintf("%+.2f", row.SpeedupPct), row.BaseIPC, row.PUBSIPC, row.BrMPKI, row.LLCMPKI)
	}
	// A geomean over zero completed programs would render as a misleading
	// +0.00; leave the summary rows out of an empty figure.
	if len(f.Rows) > 0 {
		t.Row("GM diff", "", "D-BP", fmt.Sprintf("%+.2f", f.GMDiffPct), "", "", "", "")
		t.Row("GM easy", "", "E-BP", fmt.Sprintf("%+.2f", f.GMEasyPct), "", "", "", "")
	}
	s := t.String()
	if len(f.Failed) > 0 {
		s += fmt.Sprintf("partial figure — %d runs failed:\n", len(f.Failed))
		for _, e := range f.Failed {
			s += "  " + e.Error() + "\n"
		}
	}
	return s
}

// Chart renders Fig. 8 as a terminal bar chart (one bar per program,
// D-BP first, geomeans last).
func (f Fig8Result) Chart() string {
	c := stats.NewBarChart("Fig. 8 — PUBS speedup over base", "%")
	for _, row := range f.Rows {
		note := "E-BP"
		if row.DBP {
			note = "D-BP"
		}
		c.Bar(row.Workload, row.SpeedupPct, note)
	}
	c.Bar("GM diff", f.GMDiffPct, "D-BP geomean")
	c.Bar("GM easy", f.GMEasyPct, "E-BP geomean")
	return c.String()
}

// ---------------------------------------------------------------- Fig. 9

// Fig9Point is one scatter point of Fig. 9: a program's speedup against its
// branch MPKI, coloured by memory intensity.
type Fig9Point struct {
	Workload     string
	BrMPKI       float64
	SpeedupPct   float64
	LLCMPKI      float64
	MemIntensive bool // LLC MPKI ≥ 1.0 ("blue dots")
}

// Fig9Result reproduces Fig. 9's correlation scatter.
type Fig9Result struct {
	Points []Fig9Point
	// CorrCompute is the Pearson correlation between branch MPKI and
	// speedup over the compute-intensive ("red dot") programs, quantifying
	// the paper's visual claim.
	CorrCompute float64
}

// Fig9 derives the correlation data from the Fig. 8 runs.
func Fig9(r *Runner) (Fig9Result, error) {
	f8, err := Fig8(r)
	if err != nil {
		return Fig9Result{}, err
	}
	var out Fig9Result
	var xs, ys []float64
	for _, row := range f8.Rows {
		p := Fig9Point{
			Workload:     row.Workload,
			BrMPKI:       row.BrMPKI,
			SpeedupPct:   row.SpeedupPct,
			LLCMPKI:      row.LLCMPKI,
			MemIntensive: row.LLCMPKI >= MemIntensityThresholdMPKI,
		}
		out.Points = append(out.Points, p)
		if !p.MemIntensive {
			xs = append(xs, p.BrMPKI)
			ys = append(ys, p.SpeedupPct)
		}
	}
	out.CorrCompute = pearson(xs, ys)
	return out, nil
}

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var num, dx2, dy2 float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		num += dx * dy
		dx2 += dx * dx
		dy2 += dy * dy
	}
	if dx2 == 0 || dy2 == 0 {
		return 0
	}
	return num / (math.Sqrt(dx2) * math.Sqrt(dy2))
}

// Table renders the scatter as text.
func (f Fig9Result) Table() string {
	t := stats.NewTable("Fig. 9 — Speedup vs branch MPKI, coloured by memory intensity",
		"program", "brMPKI", "speedup%", "llcMPKI", "colour")
	for _, p := range f.Points {
		colour := "red (compute)"
		if p.MemIntensive {
			colour = "blue (memory)"
		}
		t.Row(p.Workload, p.BrMPKI, fmt.Sprintf("%+.2f", p.SpeedupPct), p.LLCMPKI, colour)
	}
	return t.String() + fmt.Sprintf("Pearson r (compute programs): %.3f\n", f.CorrCompute)
}

// Chart renders Fig. 9 as a terminal scatter: `●` compute-intensive (red in
// the paper), `○` memory-intensive (blue).
func (f Fig9Result) Chart() string {
	s := stats.NewScatter("Fig. 9 — speedup vs branch MPKI (● compute, ○ memory-intensive)",
		"branch MPKI", "speedup %")
	for _, p := range f.Points {
		mark := '●'
		if p.MemIntensive {
			mark = '○'
		}
		s.Point(p.BrMPKI, p.SpeedupPct, mark)
	}
	return s.String()
}

// ---------------------------------------------------------------- Table III

// Table3Result reproduces the hardware-cost table.
type Table3Result struct {
	Breakdown core.CostBreakdown
	Unhashed  core.CostBreakdown
}

// Table3 computes the PUBS storage cost from the default configuration.
func Table3() Table3Result {
	cfg := core.DefaultConfig()
	return Table3Result{
		Breakdown: core.Cost(cfg),
		Unhashed:  core.UnhashedCost(cfg),
	}
}

// Table renders the cost breakdown.
func (t3 Table3Result) Table() string {
	t := stats.NewTable("Table III — PUBS hardware cost (KB)",
		"table", "hashed-tags", "full-tags")
	t.Row("def_tab", t3.Breakdown.DefKB(), t3.Unhashed.DefKB())
	t.Row("brslice_tab", t3.Breakdown.BrsliceKB(), t3.Unhashed.BrsliceKB())
	t.Row("conf_tab", t3.Breakdown.ConfKB(), t3.Unhashed.ConfKB())
	t.Row("total", t3.Breakdown.TotalKB(), t3.Unhashed.TotalKB())
	return t.String()
}

// ---------------------------------------------------------------- Figs. 10–16

// Fig10 sweeps the number of priority entries under both dispatch policies
// (the paper's stall-policy optimum is 6).
func Fig10(r *Runner) (Study, error) { return fig10().run(r) }

func fig10() study {
	s := study{
		title:   "Fig. 10 — D-BP geomean speedup vs number of priority entries",
		headers: []string{"entries", "stall%", "non-stall%"},
		set:     dbp,
		cols:    []column{gm(0, clsBase, rowSet), gm(1, clsBase, rowSet)},
		footer: func(w *sweep) string {
			return fmt.Sprintf("optimum (stall policy): %s entries\n", w.best(0, len(w.rows)))
		},
		chart: &chart{title: "Fig. 10 — D-BP geomean speedup vs priority entries", xname: "entries",
			series: []string{"stall", "non-stall"}},
	}
	for _, entries := range []int{2, 4, 6, 8, 10, 12} {
		row := row{label: fmt.Sprint(entries)}
		for _, stall := range []bool{true, false} {
			row.vars = append(row.vars, variant(pipeline.PUBSConfig(), fmt.Sprintf("pubs-p%d-stall%v", entries, stall),
				func(c *pipeline.Config) { c.PUBS.PriorityEntries, c.PUBS.StallDispatch = entries, stall }))
		}
		s.rows = append(s.rows, row)
	}
	return s
}

// Fig11 sweeps the resetting-counter width from 2 to 8 bits plus the blind
// estimator, with the unconfident-branch rate averaged over D-BP programs.
func Fig11(r *Runner) (Study, error) { return fig11().run(r) }

func fig11() study {
	s := study{
		title:   "Fig. 11 — D-BP geomean speedup and unconfident-branch rate vs counter bits",
		headers: []string{"counter", "speedup%", "unconf-rate%"},
		set:     dbp,
		cols: []column{gm(0, clsBase, rowSet),
			mean(0, pipeline.Result.UnconfidentRate, 100)},
		footer: func(w *sweep) string {
			return fmt.Sprintf("optimum counter width: %s bits\n", w.best(0, len(w.rows)-1))
		},
		chart: &chart{title: "Fig. 11 — D-BP speedup and unconfident rate vs counter bits", xname: "bits",
			series: []string{"speedup%", "unconf%"}},
	}
	for bits := 2; bits <= 8; bits++ {
		cfg := variant(pipeline.PUBSConfig(), fmt.Sprintf("pubs-c%d", bits),
			func(c *pipeline.Config) { c.PUBS.ConfCounterBits = bits })
		s.rows = append(s.rows, row{label: fmt.Sprint(bits), vars: []pipeline.Config{cfg}})
	}
	blind := variant(pipeline.PUBSConfig(), "pubs-blind", func(c *pipeline.Config) { c.PUBS.Blind = true })
	s.rows = append(s.rows, row{label: "blind", vars: []pipeline.Config{blind}})
	return s
}

// Fig12 compares PUBS with and without the MPKI-driven mode switch over the
// whole suite (the paper highlights the memory-intensive programs, where
// disabling the switch costs performance).
func Fig12(r *Runner) (Study, error) { return fig12().run(r) }

func fig12() study {
	off := variant(pipeline.PUBSConfig(), "pubs-noswitch", func(c *pipeline.Config) { c.PUBS.ModeSwitch = false })
	return study{
		title:   "Fig. 12 — Speedup with the mode switch enabled vs disabled",
		headers: []string{"program", "switch-on%", "switch-off%", "llcMPKI"},
		set:     suite,
		rows:    []row{{vars: []pipeline.Config{pipeline.PUBSConfig(), off}}},
		summary: "GM",
		cols: []column{gm(0, clsBase, rowSet), gm(1, clsBase, rowSet),
			{plain: true, perProgram: true,
				value: func(w *sweep, r row) float64 { return w.cls.Base[r.program].LLCMPKI() }}},
		chart: &chart{title: "Fig. 12 — speedup with mode switch ON (▮) per program; OFF shown as note",
			note: "off: %+.2f%%"},
	}
}

// Fig13 compares PUBS's 4 KB against spending (more than) the same budget
// on an enlarged perceptron, over the D-BP set.
func Fig13(r *Runner) (Study, error) {
	big := variant(pipeline.BaseConfig(), "base-bigbp", func(c *pipeline.Config) { c.Bpred = bpred.Large() })
	kb := func(c pipeline.Config) float64 { return float64(bpred.MustNew(c.Bpred).CostBytes()) / 1024 }
	def := kb(pipeline.BaseConfig())
	return study{
		title: fmt.Sprintf("Fig. 13 — PUBS (+%.1f KB) vs enlarged perceptron (+%.1f KB over the %.1f KB default)",
			core.Cost(core.DefaultConfig()).TotalKB(), kb(big)-def, def),
		headers: []string{"program", "PUBS%", "large-BP%"},
		set:     dbp,
		rows:    []row{{vars: []pipeline.Config{pipeline.PUBSConfig(), big}}},
		summary: "GM diff",
		cols:    []column{gm(0, clsBase, rowSet), gm(1, clsBase, rowSet)},
	}.run(r)
}

// Fig15 compares PUBS, AGE and PUBS+AGE by IPC over the base (15a), and
// PUBS against AGE by *performance* once the age matrix's 13% IQ-delay
// increase stretches the clock (15b).
func Fig15(r *Runner) (Study, error) {
	pubs := pipeline.PUBSConfig()
	age := variant(pipeline.BaseConfig(), "age", func(c *pipeline.Config) { c.AgeMatrix = true })
	both := variant(pubs, "pubs+age", func(c *pipeline.Config) { c.AgeMatrix = true })
	return study{
		title:   "Fig. 15a — Geomean IPC increase over base",
		headers: []string{"model", "D-BP%", "E-BP%"},
		set:     suite,
		rows: []row{{label: "PUBS", vars: []pipeline.Config{pubs}},
			{label: "AGE", vars: []pipeline.Config{age}}, {label: "PUBS+AGE", vars: []pipeline.Config{both}}},
		cols: []column{gm(0, clsBase, dbp), gm(0, clsBase, ebp)},
		footer: func(w *sweep) string {
			// Performance = IPC / clock period, and AGE's clock is slower.
			ratios := make([]float64, 0, len(w.cls.DBP))
			for _, n := range w.cls.DBP {
				perfPUBS := w.res[pubs.Name][n].IPC()
				perfAGE := w.res[age.Name][n].IPC() / iq.AgeMatrixDelayFactor
				if perfAGE > 0 {
					ratios = append(ratios, perfPUBS/perfAGE)
				}
			}
			return fmt.Sprintf(
				"Fig. 15b — performance of PUBS over AGE with the age matrix's %.0f%% IQ-delay increase applied to the clock: %+.2f%% (D-BP geomean)\n",
				(iq.AgeMatrixDelayFactor-1)*100, (stats.Geomean(ratios)-1)*100)
		},
	}.run(r)
}

// Fig16 scales the machine through the four models: D-BP geomean IPC
// increase of PUBS, AGE and PUBS+AGE over the same-size base (IPC only —
// the paper likewise ignores clock effects here).
func Fig16(r *Runner) (Study, error) { return fig16().run(r) }

func fig16() study {
	s := study{
		title:   "Fig. 16 — D-BP geomean IPC increase vs processor size",
		headers: []string{"size", "PUBS%", "AGE%", "PUBS+AGE%"},
		set:     dbp,
		cols:    []column{gm(1, 0, rowSet), gm(2, 0, rowSet), gm(3, 0, rowSet)},
		chart: &chart{title: "Fig. 16 — D-BP geomean IPC increase vs processor size", xname: "size",
			series: []string{"PUBS", "AGE", "PUBS+AGE"}},
	}
	for _, sz := range pipeline.Sizes() {
		base := pipeline.ScaledConfig(sz)
		pubs := variant(base, "pubs-"+sz.String(), func(c *pipeline.Config) {
			c.PUBS = core.DefaultConfig()
			// The priority partition must scale with dispatch width: 6 entries
			// per 4-wide machine (a fixed 6 saturates under 8-wide dispatch).
			c.PUBS.PriorityEntries = 6 * base.IssueWidth / 4
		})
		ageMatrix := func(c *pipeline.Config) { c.AgeMatrix = true }
		age := variant(base, "age-"+sz.String(), ageMatrix)
		both := variant(pubs, "pubs+age-"+sz.String(), ageMatrix)
		s.rows = append(s.rows, row{label: sz.String(), vars: []pipeline.Config{base, pubs, age, both}})
	}
	return s
}
