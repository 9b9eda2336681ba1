package experiments

import (
	"context"
	"fmt"

	"repro/internal/sliceprof"
	"repro/internal/stats"
	"repro/internal/workload"
)

// CharRow characterises one benchmark on the base machine.
type CharRow struct {
	Workload     string
	Analogue     string
	StaticInsts  int
	BaseIPC      float64
	BrMPKI       float64
	LLCMPKI      float64
	DBP          bool
	MemIntensive bool
	// Exact backward-slice structure (from internal/sliceprof).
	MeanSliceSize   float64
	SliceMembership float64 // fraction of instructions in ≥1 branch slice
}

// CharResult is the workload characterisation table — the measured
// counterpart of DESIGN.md §5's design-intent table.
type CharResult struct {
	Rows []CharRow
}

// characterize profiles every benchmark: base-machine behaviour plus exact
// slice structure.
func characterize(ctx context.Context, r *Runner) (CharResult, error) {
	cls, err := Classify(ctx, r)
	if err != nil {
		return CharResult{}, err
	}
	var out CharResult
	for _, name := range append(append([]string{}, cls.DBP...), cls.EBP...) {
		res := cls.Base[name]
		info, err := workload.ByName(name)
		if err != nil {
			return CharResult{}, err
		}
		prog, err := workload.Program(name)
		if err != nil {
			return CharResult{}, err
		}
		prof, err := sliceprof.Analyze(prog, 200_000, 128)
		if err != nil {
			return CharResult{}, err
		}
		out.Rows = append(out.Rows, CharRow{
			Workload:        name,
			Analogue:        info.Analogue,
			StaticInsts:     len(prog.Code),
			BaseIPC:         res.IPC(),
			BrMPKI:          res.BranchMPKI(),
			LLCMPKI:         res.LLCMPKI(),
			DBP:             res.BranchMPKI() > DBPThresholdMPKI,
			MemIntensive:    res.LLCMPKI() >= MemIntensityThresholdMPKI,
			MeanSliceSize:   prof.MeanSliceSize(),
			SliceMembership: prof.MemberFraction(),
		})
	}
	return out, nil
}

// Table renders the characterisation.
func (c CharResult) Table() string {
	t := stats.NewTable("Workload characterisation (base machine + exact slice profile)",
		"program", "analogue", "static", "IPC", "brMPKI", "llcMPKI", "class", "slice-size", "membership%")
	for _, row := range c.Rows {
		class := "E-BP"
		if row.DBP {
			class = "D-BP"
		}
		if row.MemIntensive {
			class += "/mem"
		}
		t.Row(row.Workload, row.Analogue, row.StaticInsts, row.BaseIPC,
			fmt.Sprintf("%.1f", row.BrMPKI), fmt.Sprintf("%.2f", row.LLCMPKI),
			class, fmt.Sprintf("%.1f", row.MeanSliceSize),
			fmt.Sprintf("%.1f", row.SliceMembership*100))
	}
	return t.String()
}

// Chart is "": the characterisation has no chart.
func (CharResult) Chart() string { return "" }
