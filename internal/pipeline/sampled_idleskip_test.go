package pipeline_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/sampling"
	"repro/internal/workload"
)

// TestSampledIdleSkipEquivalence: for every golden machine variant, a
// sampled run with event-driven idle skipping (the default) must equal a
// poll-mode run bit for bit — serially and on the parallel window pool.
// Skipping composes with every scheduling mode because it is internal to
// one window's cycle loop. Runs under -race in CI.
func TestSampledIdleSkipEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, v := range pipeline.GoldenVariants() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			t.Parallel()
			prog := workload.MustProgram(v.Workload)
			for _, mode := range []struct {
				name string
				plan sampling.Config
			}{
				{"serial-trace", sampling.Config{Windows: 3, FastForward: 30_000, Warmup: 2_000, Measure: 5_000}},
				{"parallel-trace", sampling.Config{Windows: 3, FastForward: 30_000, Warmup: 2_000, Measure: 5_000, Parallel: -1}},
			} {
				want, err := sampling.Run(ctx, v.Cfg, prog, mode.plan)
				if err != nil {
					t.Fatalf("%s skip: %v", mode.name, err)
				}
				got, err := sampling.Run(ctx, pipeline.WithPolling(v.Cfg), prog, mode.plan)
				if err != nil {
					t.Fatalf("%s poll: %v", mode.name, err)
				}
				// Window-by-window comparison, not just the merged
				// aggregate: a compensating error across windows must not
				// pass.
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s/%s: skip and poll diverged", v.Name, mode.name)
				}
			}
		})
	}
}
