// Sampled simulation: SMARTS-style windows with functional fast-forward
// between them — how to extend the simulator to workloads far longer than
// a contiguous detailed run could cover.
//
//	go run ./examples/sampled
package main

import (
	"context"
	"fmt"
	"log"

	pubsim "repro"
)

func main() {
	ctx := context.Background()
	const wl = "compress"
	plan := pubsim.SamplingPlan{
		Windows:     6,
		FastForward: 2_000_000,
		Warmup:      40_000,
		Measure:     80_000,
	}
	for _, cfg := range []pubsim.Config{pubsim.BaseConfig(), pubsim.PUBSConfig()} {
		res, err := pubsim.RunSampled(ctx, cfg, wl, plan)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s on %s: aggregate IPC %.3f (stdev %.3f across %d windows, %d instructions detailed of %d+ executed)\n",
			cfg.Name, wl, res.IPC(), res.IPCStdev(), len(res.Windows), res.Committed,
			plan.Windows*int(plan.FastForward))
	}
}
