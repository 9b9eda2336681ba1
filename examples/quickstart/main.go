// Quickstart: simulate one hard-branch benchmark on the base machine and on
// the PUBS machine, and report what the priority entries bought.
//
//	go run ./examples/quickstart
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
		workload = "chess" // models sjeng, the paper's biggest winner
		warmup   = 200_000
		measure  = 500_000
	)

	base, err := pubsim.Run(ctx, pubsim.BaseConfig(), workload, warmup, measure)
	if err != nil {
		log.Fatal(err)
	}
	pubs, err := pubsim.Run(ctx, pubsim.PUBSConfig(), workload, warmup, measure)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload            %s\n", workload)
	fmt.Printf("base IPC            %.3f\n", base.IPC())
	fmt.Printf("PUBS IPC            %.3f\n", pubs.IPC())
	fmt.Printf("speedup             %+.2f%%\n", pubsim.Speedup(base.IPC(), pubs.IPC()))
	fmt.Printf("branch MPKI         %.1f (%.1f%% of branches mispredicted)\n",
		base.BranchMPKI(), base.MispredictRate()*100)
	fmt.Printf("misspec penalty     %.1f cycles/mispredict on base, %.1f with PUBS\n",
		perMispredict(base), perMispredict(pubs))
	fmt.Printf("PUBS hardware cost  %.1f KB (conf_tab + brslice_tab + def_tab)\n",
		pubsim.PUBSCostKB(pubsim.DefaultPUBS()))
}

func perMispredict(r pubsim.Result) float64 {
	if r.Mispredicts == 0 {
		return 0
	}
	return float64(r.MisspecPenaltyCycles) / float64(r.Mispredicts)
}
