// Custom workload: write a program against the simulated ISA with the
// assembler builder, validate it functionally, then measure how much PUBS
// helps it.
//
// The kernel is a branchy hash-join probe: a load feeds an unpredictable
// match test (the branch slice), while a checksum chain provides competing
// computation — exactly the structure PUBS exploits.
//
//	go run ./examples/custom_workload
package main

import (
	"context"
	"fmt"
	"log"

	pubsim "repro"
)

func buildProbe() *pubsim.Program {
	b := pubsim.NewProgram("hashprobe")

	// Build table: 32K pseudo-random words (256 KB).
	words := make([]uint64, 32768)
	s := uint64(0xFEED)
	for i := range words {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		words[i] = s
	}
	tbl := b.Words(words...)

	var (
		base  = pubsim.R(2)
		i     = pubsim.R(3)
		addr  = pubsim.R(4)
		v     = pubsim.R(5)
		c     = pubsim.R(6)
		t0    = pubsim.R(7)
		sum   = pubsim.R(20)
		crc   = pubsim.R(21)
		joins = pubsim.R(22)
	)

	b.Li(base, int64(tbl))
	b.Label("probe")
	// Branch slice: induction → load → mask → compare.
	b.Addi(i, i, 8)
	b.Andi(i, i, 32768*8-1)
	b.Add(addr, i, base)
	b.Ld(v, addr, 0)
	b.Andi(c, v, 7)
	b.Beq(c, pubsim.R(0), "match") // data-dependent: p ≈ 1/8
	// Miss path: checksum work (the computation slice).
	b.Add(crc, crc, v)
	b.Shli(t0, crc, 1)
	b.Xor(crc, crc, t0)
	b.Addi(crc, crc, 5)
	b.Add(sum, sum, crc)
	b.Shri(t0, sum, 3)
	b.Xor(sum, sum, t0)
	b.Jmp("probe")
	b.Label("match")
	b.Addi(joins, joins, 1)
	b.Add(sum, sum, v)
	b.Jmp("probe")

	return b.MustBuild()
}

func main() {
	ctx := context.Background()
	prog := buildProbe()

	// Functional sanity check before any timing runs.
	if n, err := pubsim.Emulate(prog, 10_000); err != nil || n != 10_000 {
		log.Fatalf("emulation failed: n=%d err=%v", n, err)
	}

	base, err := pubsim.RunProgram(ctx, pubsim.BaseConfig(), prog, 100_000, 400_000)
	if err != nil {
		log.Fatal(err)
	}
	pubs, err := pubsim.RunProgram(ctx, pubsim.PUBSConfig(), prog, 100_000, 400_000)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("custom workload     %s (%d static instructions)\n", prog.Name, len(prog.Code))
	fmt.Printf("base IPC            %.3f (branch MPKI %.1f)\n", base.IPC(), base.BranchMPKI())
	fmt.Printf("PUBS IPC            %.3f\n", pubs.IPC())
	fmt.Printf("speedup             %+.2f%%\n", pubsim.Speedup(base.IPC(), pubs.IPC()))
	fmt.Printf("unconfident slices  %.1f%% of branches, %d slice instructions\n",
		pubs.UnconfidentRate()*100, pubs.UnconfSliceInsts)
}
