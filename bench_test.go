package pubsim

// BenchmarkExperiments regenerates every table and figure of the paper's
// evaluation (§V), plus the beyond-paper ablations and extensions: one
// sub-benchmark per catalogue entry, named by its cmd/experiments id
// (BenchmarkExperiments/8 is Fig. 8). They run with reduced simulation
// windows (QuickOptions) so `go test -bench=.` completes in minutes;
// cmd/experiments runs the same catalogue with full-size windows. The
// rendered table is logged on the first iteration — run with -v to see the
// rows.

import (
	"context"
	"testing"
)

func BenchmarkExperiments(b *testing.B) {
	// One memoizing runner for every sub-benchmark, so the shared
	// base-machine runs are not recomputed per figure.
	r := NewRunner(QuickOptions())
	for _, e := range Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := e.Run(context.Background(), r)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Log("\n" + rep.Table())
				}
			}
		})
	}
}

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
