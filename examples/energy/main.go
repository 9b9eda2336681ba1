// Energy: run one benchmark on the base and PUBS machines and compare both
// time and activity-model energy. The workloads are deterministic programs,
// so both machines see the identical dynamic instruction stream.
//
//	go run ./examples/energy
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
		wl      = "pathfind"
		warmup  = 150_000
		measure = 400_000
	)

	base, err := pubsim.Run(ctx, pubsim.BaseConfig(), wl, warmup, measure)
	if err != nil {
		log.Fatal(err)
	}
	pubs, err := pubsim.Run(ctx, pubsim.PUBSConfig(), wl, warmup, measure)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: base IPC %.3f → PUBS IPC %.3f (%+.2f%%)\n",
		wl, base.IPC(), pubs.IPC(), pubsim.Speedup(base.IPC(), pubs.IPC()))

	c := pubsim.DefaultEnergy()
	cmp := pubsim.EnergyCompare{
		Base:  pubsim.EstimateEnergy(pubsim.BaseConfig(), base, c),
		Other: pubsim.EstimateEnergy(pubsim.PUBSConfig(), pubs, c),
	}
	fmt.Print(cmp.Table())
}
