package pubsim

// One benchmark per table and figure of the paper's evaluation (§V), plus
// the beyond-paper ablations. Each benchmark regenerates its table/figure
// with reduced simulation windows (QuickOptions) so `go test -bench=.`
// completes in minutes; cmd/experiments runs the same harness with
// full-size windows. The rendered table is logged on the first iteration —
// run with -v to see the rows.

import (
	"context"
	"sync"
	"testing"
)

// benchRunner memoizes simulations across all benchmarks in one process, so
// -bench=. does not recompute the shared base-machine runs per figure.
var (
	benchOnce   sync.Once
	benchShared *Runner
)

func quickRunner() *Runner {
	benchOnce.Do(func() { benchShared = NewRunner(QuickOptions()) })
	return benchShared
}

type tabler interface{ Table() string }

func benchExperiment[T tabler](b *testing.B, run func(context.Context, *Runner) (T, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := run(context.Background(), quickRunner())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Table())
		}
	}
}

// BenchmarkFig08Speedup regenerates Fig. 8: per-program PUBS speedup with
// GM(diff) and GM(easy).
func BenchmarkFig08Speedup(b *testing.B) { benchExperiment(b, Fig8) }

// BenchmarkFig09Correlation regenerates Fig. 9: speedup vs branch MPKI,
// coloured by memory intensity.
func BenchmarkFig09Correlation(b *testing.B) { benchExperiment(b, Fig9) }

// BenchmarkFig10PriorityEntries regenerates Fig. 10: the priority-entry
// count sweep under stall and non-stall dispatch policies.
func BenchmarkFig10PriorityEntries(b *testing.B) { benchExperiment(b, Fig10) }

// BenchmarkFig11ConfBits regenerates Fig. 11: the confidence-counter width
// sweep plus the blind estimator.
func BenchmarkFig11ConfBits(b *testing.B) { benchExperiment(b, Fig11) }

// BenchmarkFig12ModeSwitch regenerates Fig. 12: mode switch on vs off.
func BenchmarkFig12ModeSwitch(b *testing.B) { benchExperiment(b, Fig12) }

// BenchmarkTable03Cost regenerates Table III: the PUBS hardware cost.
func BenchmarkTable03Cost(b *testing.B) {
	var out Table3Result
	for i := 0; i < b.N; i++ {
		out = Table3()
	}
	b.Log("\n" + out.Table())
	if kb := out.Breakdown.TotalKB(); kb < 3.5 || kb > 4.5 {
		b.Fatalf("PUBS cost %.2f KB is not ≈4.0 KB", kb)
	}
}

// BenchmarkFig13LargePredictor regenerates Fig. 13: PUBS vs spending the
// hardware budget on an enlarged perceptron.
func BenchmarkFig13LargePredictor(b *testing.B) { benchExperiment(b, Fig13) }

// BenchmarkFig15AgeMatrix regenerates Fig. 15: PUBS/AGE/PUBS+AGE IPC (15a)
// and the delay-adjusted performance comparison (15b).
func BenchmarkFig15AgeMatrix(b *testing.B) { benchExperiment(b, Fig15) }

// BenchmarkFig16ProcessorSize regenerates Fig. 16: the four-model scaling
// study.
func BenchmarkFig16ProcessorSize(b *testing.B) { benchExperiment(b, Fig16) }

// BenchmarkAblationIQKinds compares shifting/circular queues to the random
// queue (§III-B1 taxonomy).
func BenchmarkAblationIQKinds(b *testing.B) { benchExperiment(b, AblationIQKinds) }

// BenchmarkAblationPredictors re-checks PUBS under gshare, bimodal, and
// tournament predictors (footnote 1).
func BenchmarkAblationPredictors(b *testing.B) { benchExperiment(b, AblationPredictors) }

// BenchmarkAblationTagless sweeps the §IV table organisations (tagless and
// alternative hash fold widths).
func BenchmarkAblationTagless(b *testing.B) { benchExperiment(b, AblationTables) }

// BenchmarkExtDistributedIQ measures PUBS on the §III-C2 distributed issue
// queue (beyond-paper extension).
func BenchmarkExtDistributedIQ(b *testing.B) { benchExperiment(b, ExtDistributed) }

// BenchmarkExtFlexibleSelect compares partitioned PUBS with the idealized
// §III-C1 flexible select (beyond-paper extension).
func BenchmarkExtFlexibleSelect(b *testing.B) { benchExperiment(b, ExtFlexible) }

// BenchmarkExtEnergy extends Table III to energy: D-BP EPI for base vs
// PUBS under the activity model (beyond-paper extension).
func BenchmarkExtEnergy(b *testing.B) { benchExperiment(b, ExtEnergy) }

// BenchmarkExtWrongPath quantifies wrong-path pollution of the PUBS tables
// (beyond-paper ablation validating the DESIGN.md §2 substitution).
func BenchmarkExtWrongPath(b *testing.B) { benchExperiment(b, ExtWrongPath) }

// BenchmarkSimulatorThroughput measures raw simulation speed (committed
// instructions per wall-clock second) on the base machine.
func BenchmarkSimulatorThroughput(b *testing.B) {
	ctx := context.Background()
	const insts = 100_000
	b.SetBytes(insts) // bytes/s double as instructions/s
	for i := 0; i < b.N; i++ {
		if _, err := Run(ctx, BaseConfig(), "chess", 0, insts); err != nil {
			b.Fatal(err)
		}
	}
}
