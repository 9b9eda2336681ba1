package experiments

import "context"

// Report is one experiment's rendered result: a text table and a terminal
// chart, "" for the experiments that have none. A result that failed as a
// whole renders an empty table.
type Report interface {
	Table() string
	Chart() string
}

// Experiment is one table, figure or study of the evaluation: its id on
// the cmd/experiments command line, its section title, and how to run it.
// Run returns the (possibly partial) report alongside a *CampaignError when
// some of its simulations failed.
type Experiment struct {
	ID, Title string
	Run       func(context.Context, *Runner) (Report, error)
}

// Experiments is the catalogue: every experiment, in the order
// cmd/experiments runs them. Adding an experiment means adding one entry.
func Experiments() []Experiment {
	return []Experiment{
		{"wchar", "Workload characterisation (base machine + slice profile)", report(characterize)},
		{"8", "Speedup of PUBS over the base (Fig. 8)", report(fig8)},
		{"9", "Speedup vs branch MPKI correlation (Fig. 9)", report(fig9)},
		{"10", "Priority-entry sensitivity (Fig. 10)", report(fig10().run)},
		{"11", "Confidence-counter-width sensitivity (Fig. 11)", report(fig11().run)},
		{"12", "Mode-switch effectiveness (Fig. 12)", report(fig12().run)},
		{"t3", "Hardware cost (Table III)", func(context.Context, *Runner) (Report, error) { return table3(), nil }},
		{"13", "Enlarged-predictor comparison (Fig. 13)", report(fig13().run)},
		{"15", "Age-matrix comparison (Fig. 15)", report(fig15().run)},
		{"16", "Processor-size scaling (Fig. 16)", report(fig16().run)},
		{"aiq", "Ablation: IQ organisations", report(aiq().run)},
		{"xdist", "Extension: distributed IQ (§III-C2)", report(xdist().run)},
		{"xflex", "Extension: idealized flexible select (§III-C1)", report(xflex().run)},
		{"xnrg", "Extension: energy per instruction (activity model)", report(xnrg().run)},
		{"xwp", "Extension: wrong-path pollution of the PUBS tables", report(xwp().run)},
		{"apred", "Ablation: alternative predictors", report(apred().run)},
		{"atab", "Ablation: PUBS table organisation", report(atab().run)},
	}
}

// report adapts a typed experiment to the catalogue's Run signature.
func report[T Report](run func(context.Context, *Runner) (T, error)) func(context.Context, *Runner) (Report, error) {
	return func(ctx context.Context, r *Runner) (Report, error) { return run(ctx, r) }
}
