// Age matrix: reproduce the paper's §V-G argument on two workloads.
// The age matrix raises IPC by selecting the oldest ready instruction, but
// its wide array lengthens the IQ critical path by 13%; once that stretches
// the clock, PUBS wins on *performance* even where AGE wins on IPC.
//
//	go run ./examples/age_matrix
package main

import (
	"context"
	"fmt"
	"log"

	pubsim "repro"
)

func main() {
	ctx := context.Background()
	const (
		warmup  = 150_000
		measure = 400_000
	)
	for _, wl := range []string{"chess", "pathfind"} {
		base, err := pubsim.Run(ctx, pubsim.BaseConfig(), wl, warmup, measure)
		if err != nil {
			log.Fatal(err)
		}

		age := pubsim.BaseConfig()
		age.Name = "age"
		age.AgeMatrix = true
		ageRes, err := pubsim.Run(ctx, age, wl, warmup, measure)
		if err != nil {
			log.Fatal(err)
		}

		pubs, err := pubsim.Run(ctx, pubsim.PUBSConfig(), wl, warmup, measure)
		if err != nil {
			log.Fatal(err)
		}

		both := pubsim.PUBSConfig()
		both.Name = "pubs+age"
		both.AgeMatrix = true
		bothRes, err := pubsim.Run(ctx, both, wl, warmup, measure)
		if err != nil {
			log.Fatal(err)
		}

		// IPC view (Fig. 15a) and performance view with the 13% clock
		// stretch on the AGE machines (Fig. 15b).
		fmt.Printf("%s (base IPC %.3f):\n", wl, base.IPC())
		fmt.Printf("  %-9s IPC %+6.2f%%   perf %+6.2f%%\n", "PUBS",
			pubsim.Speedup(base.IPC(), pubs.IPC()),
			pubsim.Speedup(base.IPC(), pubs.IPC()))
		fmt.Printf("  %-9s IPC %+6.2f%%   perf %+6.2f%%  (clock ×%.2f)\n", "AGE",
			pubsim.Speedup(base.IPC(), ageRes.IPC()),
			pubsim.Speedup(base.IPC(), ageRes.IPC()/pubsim.AgeMatrixDelayFactor),
			pubsim.AgeMatrixDelayFactor)
		fmt.Printf("  %-9s IPC %+6.2f%%   perf %+6.2f%%  (clock ×%.2f)\n", "PUBS+AGE",
			pubsim.Speedup(base.IPC(), bothRes.IPC()),
			pubsim.Speedup(base.IPC(), bothRes.IPC()/pubsim.AgeMatrixDelayFactor),
			pubsim.AgeMatrixDelayFactor)
	}
}
