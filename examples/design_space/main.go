// Design space: sweep the two PUBS parameters the paper studies — the
// number of priority entries (Fig. 10) and the confidence-counter width
// (Fig. 11) — on a single workload, printing the local sensitivity.
//
//	go run ./examples/design_space
package main

import (
	"context"
	"fmt"
	"log"

	pubsim "repro"
)

const (
	workload = "goplay"
	warmup   = 150_000
	measure  = 400_000
)

func main() {
	ctx := context.Background()
	base, err := pubsim.Run(ctx, pubsim.BaseConfig(), workload, warmup, measure)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload %s: base IPC %.3f, branch MPKI %.1f\n\n",
		workload, base.IPC(), base.BranchMPKI())

	fmt.Println("priority entries (stall policy vs non-stall):")
	for _, entries := range []int{2, 4, 6, 8, 10, 12} {
		var ipc [2]float64
		for k, stall := range []bool{true, false} {
			cfg := pubsim.PUBSConfig()
			cfg.PUBS.PriorityEntries = entries
			cfg.PUBS.StallDispatch = stall
			res, err := pubsim.Run(ctx, cfg, workload, warmup, measure)
			if err != nil {
				log.Fatal(err)
			}
			ipc[k] = res.IPC()
		}
		fmt.Printf("  %2d entries: stall %+6.2f%%   non-stall %+6.2f%%\n",
			entries, pubsim.Speedup(base.IPC(), ipc[0]), pubsim.Speedup(base.IPC(), ipc[1]))
	}

	fmt.Println("\nconfidence counter bits:")
	for bits := 2; bits <= 8; bits++ {
		cfg := pubsim.PUBSConfig()
		cfg.PUBS.ConfCounterBits = bits
		res, err := pubsim.Run(ctx, cfg, workload, warmup, measure)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %d bits: %+6.2f%%  (unconfident rate %.1f%%)\n",
			bits, pubsim.Speedup(base.IPC(), res.IPC()), res.UnconfidentRate()*100)
	}
	blind := pubsim.PUBSConfig()
	blind.PUBS.Blind = true
	res, err := pubsim.Run(ctx, blind, workload, warmup, measure)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  blind : %+6.2f%%  (every branch estimated unconfident)\n",
		pubsim.Speedup(base.IPC(), res.IPC()))
}
