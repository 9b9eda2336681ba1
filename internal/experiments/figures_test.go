package experiments

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/iq"
	"repro/internal/pipeline"
)

// The figure tests run the full harness with tiny windows: they validate
// plumbing and structural invariants, not magnitudes (EXPERIMENTS.md
// records full-window results). They share one memoizing runner, so the
// base campaign every study classifies with runs once. Skipped in -short
// mode.

var (
	figOnce   sync.Once
	figShared *Runner
)

func figRunner() *Runner {
	figOnce.Do(func() { figShared = NewRunner(Options{Warmup: 15_000, Measure: 40_000}) })
	return figShared
}

// runFig runs one study on the shared runner.
func runFig(t *testing.T, f func(*Runner) (Study, error)) Study {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode")
	}
	s, err := f(figRunner())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// cell returns the value of the row labelled row in the column headed col,
// and whether the rendered cell holds it (a per-program column is blank on
// the summary row).
func cell(s Study, row, col string) (float64, bool) {
	j := slices.Index(s.headers, col) - 1 // the first header labels the rows
	for _, r := range s.rows {
		if r.label == row && j >= 0 {
			return r.vals[j], r.cells[j] != ""
		}
	}
	return 0, false
}

// value reads one cell of a study, failing the test if it is blank.
func value(t *testing.T, s Study, row, col string) float64 {
	t.Helper()
	v, ok := cell(s, row, col)
	if !ok {
		t.Fatalf("%q has no %s value in row %q", s.title, col, row)
	}
	return v
}

func TestFig10Structure(t *testing.T) {
	f := runFig(t, Fig10)
	if got := strings.Join(f.Labels(), " "); got != "2 4 6 8 10 12" {
		t.Fatalf("Fig10 rows = %s", got)
	}
	best, bestVal := "", -1e9
	for _, l := range f.Labels() {
		if v := value(t, f, l, "stall%"); v > bestVal {
			best, bestVal = l, v
		}
	}
	if !strings.Contains(f.Table(), "optimum (stall policy): "+best+" entries\n") {
		t.Errorf("Fig10 optimum line does not name the best swept value %s:\n%s", best, f.Table())
	}
}

func TestFig11Structure(t *testing.T) {
	f := runFig(t, Fig11)
	labels := f.Labels()
	if len(labels) != 8 { // bits 2..8 + blind
		t.Fatalf("Fig11 rows = %d", len(labels))
	}
	if labels[7] != "blind" {
		t.Error("last row must be the blind model")
	}
	// The unconfident rate is monotone non-decreasing in counter bits
	// (resetting counters become harder to saturate).
	for i := 1; i < 7; i++ {
		prev, cur := value(t, f, labels[i-1], "unconf-rate%"), value(t, f, labels[i], "unconf-rate%")
		if cur+1e-9 < prev {
			t.Errorf("unconfident rate decreased from %s to %s bits (%.1f → %.1f)", labels[i-1], labels[i], prev, cur)
		}
	}
	var bits int
	if _, err := fmt.Sscanf(f.footer, "optimum counter width: %d bits", &bits); err != nil || bits < 2 || bits > 8 {
		t.Errorf("best bits = %d (%v)", bits, err)
	}
}

func TestFig12Structure(t *testing.T) {
	f := runFig(t, Fig12)
	labels := f.Labels()
	if len(labels) != 21 || labels[20] != "GM" { // 20 programs + GM
		t.Fatalf("Fig12 rows = %v", labels)
	}
	// The memory-bound programs must be the ones hurt when the switch is
	// off: check sparse specifically (LLC MPKI ≫ threshold).
	if llc := value(t, f, "sparse", "llcMPKI"); llc < MemIntensityThresholdMPKI {
		t.Errorf("sparse not memory-sensitive: llcMPKI %.2f", llc)
	}
	if on, off := value(t, f, "sparse", "switch-on%"), value(t, f, "sparse", "switch-off%"); off > on+0.5 {
		t.Errorf("sparse: switch-off (%+.2f%%) better than on (%+.2f%%)", off, on)
	}
	if _, ok := cell(f, "GM", "llcMPKI"); ok {
		t.Error("GM row has an llcMPKI value")
	}
	if !strings.Contains(f.Table(), "GM") {
		t.Error("Fig12 table missing GM row")
	}
}

func TestFig13Structure(t *testing.T) {
	f := runFig(t, Fig13)
	if labels := f.Labels(); len(labels) < 2 || labels[len(labels)-1] != "GM diff" {
		t.Fatalf("Fig13 rows = %v", labels)
	}
	kb := func(c pipeline.Config) float64 { return float64(bpred.MustNew(c.Bpred).CostBytes()) / 1024 }
	large := pipeline.BaseConfig()
	large.Bpred = bpred.Large()
	defaultKB, largeKB := kb(pipeline.BaseConfig()), kb(large)
	pubsKB := core.Cost(core.DefaultConfig()).TotalKB()
	if largeKB <= defaultKB {
		t.Errorf("large predictor (%.1f KB) not larger than default (%.1f KB)", largeKB, defaultKB)
	}
	// The enlarged predictor must cost at least double the default
	// (the paper budgets "more than double").
	if largeKB < 2*defaultKB {
		t.Errorf("large predictor %.1f KB below 2× default %.1f KB", largeKB, defaultKB)
	}
	if pubsKB < 3.5 || pubsKB > 4.5 {
		t.Errorf("PUBS cost %.2f KB", pubsKB)
	}
	// The title renders those costs.
	var titlePUBS, titleExtra, titleDefault float64
	if _, err := fmt.Sscanf(f.title, "Fig. 13 — PUBS (+%f KB) vs enlarged perceptron (+%f KB over the %f KB default)",
		&titlePUBS, &titleExtra, &titleDefault); err != nil {
		t.Fatalf("Fig13 title %q: %v", f.title, err)
	}
	if want := fmt.Sprintf("%.1f %.1f %.1f", pubsKB, largeKB-defaultKB, defaultKB); fmt.Sprintf("%.1f %.1f %.1f", titlePUBS, titleExtra, titleDefault) != want {
		t.Errorf("Fig13 title %q does not render the costs %s", f.title, want)
	}
}

func TestFig15Structure(t *testing.T) {
	f := runFig(t, Fig15)
	var delayPct, perfPct float64
	if _, err := fmt.Sscanf(f.footer, "Fig. 15b — performance of PUBS over AGE with the age matrix's %f%% IQ-delay increase applied to the clock: %f%%",
		&delayPct, &perfPct); err != nil {
		t.Fatalf("Fig. 15b line %q: %v", f.footer, err)
	}
	if iq.AgeMatrixDelayFactor != 1.13 {
		t.Errorf("delay factor %v", iq.AgeMatrixDelayFactor)
	}
	if delayPct != 13 {
		t.Errorf("Fig. 15b line renders a %v%% delay increase", delayPct)
	}
	// Fig. 15b's headline claim: once the 13% clock stretch applies, PUBS
	// outperforms AGE on D-BP.
	if perfPct <= 0 {
		t.Errorf("PUBS over AGE performance = %+.2f%%, expected positive", perfPct)
	}
	if got := strings.Join(f.Labels(), ","); got != "PUBS,AGE,PUBS+AGE" {
		t.Errorf("Fig15a rows = %s", got)
	}
}

func TestFig16Structure(t *testing.T) {
	f := runFig(t, Fig16)
	if got := strings.Join(f.Labels(), " "); got != "small medium large huge" {
		t.Fatalf("Fig16 rows = %s", got)
	}
}

func TestAblationStructures(t *testing.T) {
	aiq := runFig(t, AblationIQKinds)
	if n := len(aiq.Labels()); n != 2 {
		t.Errorf("IQ ablation rows = %d", n)
	}
	apred := runFig(t, AblationPredictors)
	if n := len(apred.Labels()); n != 4 {
		t.Errorf("predictor ablation rows = %d", n)
	}
	atab := runFig(t, AblationTables)
	if n := len(atab.Labels()); n != 4 {
		t.Errorf("table ablation rows = %d", n)
	}
	// The default hashed organisation's cost must be the Table III value;
	// tagless must be cheaper; wider hashes dearer.
	def := value(t, atab, "hashed t=8/4 (default)", "cost-KB")
	tagless := value(t, atab, "tagless", "cost-KB")
	wide := value(t, atab, "hash t=16/8", "cost-KB")
	if !(tagless < def && def < wide) {
		t.Errorf("cost ordering wrong: tagless %.2f, default %.2f, wide %.2f", tagless, def, wide)
	}
	for _, tb := range []string{aiq.Table(), apred.Table(), atab.Table()} {
		if !strings.Contains(tb, "Ablation") {
			t.Error("ablation table missing title")
		}
	}
}

// render reduces a study from literal values, without simulating: one value
// per column for each row its expansion over programs yields.
func render(s study, programs []string, vals ...[]float64) Study {
	w := &sweep{rows: s.expand(programs), vals: vals}
	return s.result(w)
}

// Literal values for TestStudyRenders. Its expected texts are what the
// typed per-figure results that the studies replaced rendered for the same
// numbers.
var (
	fig10Vals = [][]float64{{-0.35, 0.12}, {2.1, 1.05}, {3.49, 1.8}, {3.2, 2.02}, {2.75, 2.2}, {2.5, 2.31}}
	fig11Vals = [][]float64{{1.5, 12.5}, {2.2, 18.25}, {2.9, 22.125}, {3.3, 25.0}, {3.49, 27.75}, {3.4, 30.5},
		{3.1, 33.0}, {-0.8, 100}}
	fig12Programs = []string{"chess", "sparse", "fft"}
	fig12Vals     = [][]float64{{6.18, 6.3, 0.12}, {-0.02, -4.75, 35.5}, {0.5, 0.61, 0}, {2.1, 0.5, 0}}
	fig16Vals     = [][]float64{{1.2, -0.5, 1.0}, {3.49, 0.8, 4.0}, {4.1, 1.1, 5.2}, {5.0, 1.9, 6.3}}
)

// TestStudyRenders pins the one renderer byte for byte: every table and
// chart below is what the per-figure renderers printed for the same values.
func TestStudyRenders(t *testing.T) {
	for _, tc := range []struct {
		name, got, want string
	}{
		{"fig10 table", render(fig10(), nil, fig10Vals...).Table(), fig10Table},
		{"fig10 chart", render(fig10(), nil, fig10Vals...).Chart(), fig10Chart},
		{"fig11 table", render(fig11(), nil, fig11Vals...).Table(), fig11Table},
		{"fig11 chart", render(fig11(), nil, fig11Vals...).Chart(), fig11Chart},
		{"fig12 table", render(fig12(), fig12Programs, fig12Vals...).Table(), fig12Table},
		{"fig12 chart", render(fig12(), fig12Programs, fig12Vals...).Chart(), fig12Chart},
		{"fig16 chart", render(fig16(), nil, fig16Vals...).Chart(), fig16Chart},
		{"xwp table", render(xwp(), nil, []float64{3.49}, []float64{3.1}).Table(), xwpTable},
	} {
		if tc.got != tc.want {
			t.Errorf("%s:\n got:\n%s\nwant:\n%s", tc.name, tc.got, tc.want)
		}
	}
}

// TestCharts: every figure chart renders non-trivially from synthetic
// results (no simulation needed).
func TestCharts(t *testing.T) {
	f8 := Fig8Result{
		Rows: []Fig8Row{
			{Workload: "a", SpeedupPct: 5, DBP: true},
			{Workload: "b", SpeedupPct: -1},
		},
		GMDiffPct: 5, GMEasyPct: -1,
	}
	if out := f8.Chart(); !strings.Contains(out, "GM diff") || !strings.Contains(out, "█") {
		t.Errorf("Fig8 chart:\n%s", out)
	}
	f9 := Fig9Result{Points: []Fig9Point{
		{Workload: "a", BrMPKI: 10, SpeedupPct: 5},
		{Workload: "b", BrMPKI: 40, SpeedupPct: 0.1, MemIntensive: true},
	}}
	if out := f9.Chart(); !strings.Contains(out, "●") || !strings.Contains(out, "○") {
		t.Errorf("Fig9 chart:\n%s", out)
	}
	f10 := fig10()
	f10.rows = f10.rows[:2]
	if out := render(f10, nil, []float64{-1, 0}, []float64{4, 2}).Chart(); !strings.Contains(out, "stall") {
		t.Errorf("Fig10 chart:\n%s", out)
	}
	f11 := fig11()
	f11.rows = f11.rows[len(f11.rows)-2:]
	if out := render(f11, nil, []float64{1, 40}, []float64{2, 100}).Chart(); !strings.Contains(out, "blind") {
		t.Errorf("Fig11 chart:\n%s", out)
	}
	if out := render(fig12(), []string{"m"}, []float64{1, -3, 0}, []float64{1, -3, 0}).Chart(); !strings.Contains(out, "off: -3.00%") {
		t.Errorf("Fig12 chart:\n%s", out)
	}
	f16 := fig16()
	f16.rows = []row{f16.rows[0], f16.rows[3]}
	if out := render(f16, nil, []float64{1, -1, 2}, []float64{5, -2, 6}).Chart(); !strings.Contains(out, "PUBS+AGE") {
		t.Errorf("Fig16 chart:\n%s", out)
	}
	if out := render(xwp(), nil, []float64{1}, []float64{2}).Chart(); out != "" {
		t.Errorf("xwp has no chart, rendered:\n%s", out)
	}
}

const (
	fig10Table = "Fig. 10 — D-BP geomean speedup vs number of priority entries\n" +
		"entries  stall%  non-stall%\n" +
		"-------  ------  ----------\n" +
		"2        -0.35   +0.12     \n" +
		"4        +2.10   +1.05     \n" +
		"6        +3.49   +1.80     \n" +
		"8        +3.20   +2.02     \n" +
		"10       +2.75   +2.20     \n" +
		"12       +2.50   +2.31     \n" +
		"optimum (stall policy): 6 entries\n"
	fig10Chart = "Fig. 10 — D-BP geomean speedup vs priority entries\n" +
		"entries  stall   non-stall\n" +
		"-------  ------  ---------\n" +
		"2        -0.350  0.120    \n" +
		"4        2.100   1.050    \n" +
		"6        3.490   1.800    \n" +
		"8        3.200   2.020    \n" +
		"10       2.750   2.200    \n" +
		"12       2.500   2.310    \n" +
		"stall        ▁▅█▇▆▆\n" +
		"non-stall    ▁▃▆▇▇█\n"
	fig11Table = "Fig. 11 — D-BP geomean speedup and unconfident-branch rate vs counter bits\n" +
		"counter  speedup%  unconf-rate%\n" +
		"-------  --------  ------------\n" +
		"2        +1.50     12.500      \n" +
		"3        +2.20     18.250      \n" +
		"4        +2.90     22.125      \n" +
		"5        +3.30     25.000      \n" +
		"6        +3.49     27.750      \n" +
		"7        +3.40     30.500      \n" +
		"8        +3.10     33.000      \n" +
		"blind    -0.80     100.000     \n" +
		"optimum counter width: 6 bits\n"
	fig11Chart = "Fig. 11 — D-BP speedup and unconfident rate vs counter bits\n" +
		"bits   speedup%  unconf%\n" +
		"-----  --------  -------\n" +
		"2      1.500     12.500 \n" +
		"3      2.200     18.250 \n" +
		"4      2.900     22.125 \n" +
		"5      3.300     25.000 \n" +
		"6      3.490     27.750 \n" +
		"7      3.400     30.500 \n" +
		"8      3.100     33.000 \n" +
		"blind  -0.800    100.000\n" +
		"speedup%     ▄▅▇▇█▇▇▁\n" +
		"unconf%      ▁▁▁▂▂▂▂█\n"
	fig12Table = "Fig. 12 — Speedup with the mode switch enabled vs disabled\n" +
		"program  switch-on%  switch-off%  llcMPKI\n" +
		"-------  ----------  -----------  -------\n" +
		"chess    +6.18       +6.30        0.120  \n" +
		"sparse   -0.02       -4.75        35.500 \n" +
		"fft      +0.50       +0.61        0.000  \n" +
		"GM       +2.10       +0.50               \n"
	fig12Chart = "Fig. 12 — speedup with mode switch ON (▮) per program; OFF shown as note\n" +
		"chess                      │████████████████████ 6.18%  off: +6.30%\n" +
		"sparse                    ▒│ -0.02%  off: -4.75%\n" +
		"fft                        │██ 0.50%  off: +0.61%\n"
	fig16Chart = "Fig. 16 — D-BP geomean IPC increase vs processor size\n" +
		"size    PUBS   AGE     PUBS+AGE\n" +
		"------  -----  ------  --------\n" +
		"small   1.200  -0.500  1.000   \n" +
		"medium  3.490  0.800   4.000   \n" +
		"large   4.100  1.100   5.200   \n" +
		"huge    5.000  1.900   6.300   \n" +
		"PUBS         ▁▅▆█\n" +
		"AGE          ▁▄▅█\n" +
		"PUBS+AGE     ▁▄▆█\n"
	xwpTable = "Extension — wrong-path pollution of the PUBS tables (D-BP geomean)\n" +
		"table update model           speedup%\n" +
		"---------------------------  --------\n" +
		"correct path only (default)  +3.49   \n" +
		"with wrong-path decode       +3.10   \n" +
		"delta -0.39 pp — the correct-path simplification is second-order, as assumed\n"
)
