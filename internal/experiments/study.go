package experiments

import (
	"context"
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/stats"
)

// A study is one figure or table described as data: rows of named machine
// variants, run over one workload set of the Classify split as one grid,
// and one reducer per column folding the grid's results into a number.
// Every variant keeps the exact Name it has always had, since the name is
// part of the memo and checkpoint keys.
type study struct {
	title   string
	headers []string // the row-label header, then one per column
	set     programs
	rows    []row
	cols    []column
	// summary, when set, expands the single row into one row per program
	// of the set, followed by a summary row of this label over the set.
	summary string
	footer  func(*sweep) string // optional line(s) after the table
	chart   *chart
}

// row is a label plus the variants its reducers read, by index.
type row struct {
	label   string
	program string // a per-program row's program; empty otherwise
	vars    []pipeline.Config
}

// variant returns cfg renamed to name and changed by mutate.
func variant(cfg pipeline.Config, name string, mutate func(*pipeline.Config)) pipeline.Config {
	cfg.Name = name
	mutate(&cfg)
	return cfg
}

// programs names a workload set of the Classify split.
type programs int

const (
	rowSet programs = iota // a column's default: the row's programs
	dbp
	ebp
	suite // D-BP then E-BP
)

func (p programs) of(c Classification) []string {
	switch p {
	case dbp:
		return c.DBP
	case ebp:
		return c.EBP
	}
	return append(append([]string{}, c.DBP...), c.EBP...)
}

// column is one reducer, folding a row's results into a number.
type column struct {
	value      func(w *sweep, r row) float64
	plain      bool // rendered %.3f rather than as a signed percentage
	perProgram bool // blank on the summary row
}

// clsBase names the Classify base machine as a gm baseline.
const clsBase = -1

// gm is the geomean speedup of the row's variant v over its variant base
// (or the Classify base), across the row's programs or over's set; a
// per-program row's is that program's plain speedup.
func gm(v, base int, over programs) column {
	return column{value: func(w *sweep, r row) float64 {
		b, next := w.cls.Base, w.res[r.vars[v].Name]
		if base != clsBase {
			b = w.res[r.vars[base].Name]
		}
		if r.program != "" {
			return stats.Speedup(b[r.program].IPC(), next[r.program].IPC())
		}
		if over != rowSet {
			return speedupGM(over.of(w.cls), b, next)
		}
		return speedupGM(w.set, b, next)
	}}
}

// mean is the mean of f on the row's variant v over the study's programs,
// times scale.
func mean(v int, f func(pipeline.Result) float64, scale float64) column {
	return column{plain: true, value: func(w *sweep, r row) float64 {
		var sum float64
		for _, n := range w.set {
			sum += f(w.res[r.vars[v].Name][n])
		}
		return sum / float64(len(w.set)) * scale
	}}
}

// chart is a study's chart: one series per column over the rows, named by
// series, or — with no series — one bar per program row of column 0, its
// note formatting column 1.
type chart struct {
	title, xname string
	series       []string
	note         string
}

// sweep is a study's finished grid: the classification, the study's
// programs, every variant's results by name then workload, and the reduced
// values indexed like rows × columns.
type sweep struct {
	cls  Classification
	set  []string
	res  map[string]map[string]pipeline.Result
	rows []row
	vals [][]float64
}

// best returns the label of the first of rows[:n] with the highest value in
// column col.
func (w *sweep) best(col, n int) string {
	best, bestVal := "", -1e9
	for i, r := range w.rows[:n] {
		if v := w.vals[i][col]; v > bestVal {
			best, bestVal = r.label, v
		}
	}
	return best
}

// expand returns the study's rows over the given program set.
func (s study) expand(set []string) []row {
	if s.summary == "" {
		return s.rows
	}
	var rows []row
	for _, n := range set {
		rows = append(rows, row{label: n, program: n, vars: s.rows[0].vars})
	}
	return append(rows, row{label: s.summary, vars: s.rows[0].vars})
}

// run classifies the suite, runs every distinct variant over the study's
// set as one grid, and reduces it. A failed cell fails the study: the
// error is a *CampaignError naming every failed cell.
func (s study) run(r *Runner) (Study, error) {
	cls, err := r.Classify()
	if err != nil {
		return Study{}, err
	}
	set := s.set.of(cls)
	w := &sweep{cls: cls, set: set, rows: s.expand(set), res: make(map[string]map[string]pipeline.Result)}
	var cfgs []pipeline.Config
	for _, row := range w.rows {
		for _, v := range row.vars {
			if _, ok := w.res[v.Name]; !ok {
				w.res[v.Name] = make(map[string]pipeline.Result, len(w.set))
				cfgs = append(cfgs, v)
			}
		}
	}
	res, errs := r.fanOut(context.Background(), Grid(cfgs, w.set))
	if err := campaignError(runErrors(errs)); err != nil {
		return Study{}, err
	}
	for i, cfg := range cfgs {
		for j, n := range w.set {
			w.res[cfg.Name][n] = res[i*len(w.set)+j]
		}
	}
	for _, row := range w.rows {
		vals := make([]float64, len(s.cols))
		for j, c := range s.cols {
			vals[j] = c.value(w, row)
		}
		w.vals = append(w.vals, vals)
	}
	return s.result(w), nil
}

// result renders the reduced sweep.
func (s study) result(w *sweep) Study {
	out := Study{title: s.title, headers: s.headers, chart: s.chart}
	for i, r := range w.rows {
		sr := studyRow{label: r.label, vals: w.vals[i], cells: make([]string, len(s.cols)),
			summary: s.summary != "" && r.program == ""}
		for j, c := range s.cols {
			switch {
			case c.perProgram && sr.summary:
			case c.plain:
				sr.cells[j] = fmt.Sprintf("%.3f", sr.vals[j])
			default:
				sr.cells[j] = fmt.Sprintf("%+.2f", sr.vals[j])
			}
		}
		out.rows = append(out.rows, sr)
	}
	if s.footer != nil {
		out.footer = s.footer(w)
	}
	return out
}

// Study is the result of one variant study: a titled table with one row per
// label and one reduced value per column, an optional footer line, and an
// optional chart. A study that failed is the zero Study, which renders
// nothing.
type Study struct {
	title, footer string
	headers       []string
	rows          []studyRow
	chart         *chart
}

type studyRow struct {
	label   string
	cells   []string // rendered; blank where the column has no value
	vals    []float64
	summary bool
}

// Labels returns the row labels in order.
func (s Study) Labels() []string {
	out := make([]string, len(s.rows))
	for i, r := range s.rows {
		out[i] = r.label
	}
	return out
}

// Table renders the study as text.
func (s Study) Table() string {
	if s.headers == nil {
		return ""
	}
	t := stats.NewTable(s.title, s.headers...)
	for _, r := range s.rows {
		cells := []any{r.label}
		for _, c := range r.cells {
			cells = append(cells, c)
		}
		t.Row(cells...)
	}
	return t.String() + s.footer
}

// Chart renders the study's chart, or "" when it has none.
func (s Study) Chart() string {
	c := s.chart
	switch {
	case c == nil:
		return ""
	case c.series == nil:
		b := stats.NewBarChart(c.title, "%")
		for _, r := range s.rows {
			if !r.summary {
				b.Bar(r.label, r.vals[0], fmt.Sprintf(c.note, r.vals[1]))
			}
		}
		return b.String()
	}
	ser := stats.NewSeries(c.title, c.xname, s.Labels()...)
	for j, name := range c.series {
		ys := make([]float64, len(s.rows))
		for i, r := range s.rows {
			ys[i] = r.vals[j]
		}
		ser.Add(name, ys...)
	}
	return ser.String()
}
