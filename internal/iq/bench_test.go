package iq

// Select microbenchmarks: one op is one select cycle (grant up to the issue
// width, then refill the freed entries). Run with
//
//	go test -bench Select -benchmem ./internal/iq
//
// allocs/op must stay 0 — the ready-bitset scan and reused grant buffers
// exist precisely so the per-cycle select never touches the heap. Even
// handles are marked ready at dispatch and odd ones never are, so after
// about one queue's worth of grants the queue is full of never-ready
// entries: the steady state measured is a zero-grant select over a full
// queue, the cycle the idle skip also meets.

import "testing"

const benchIssueWidth = 8

func benchFUBudget() [4]int { return [4]int{4, 4, 2, 2} }

func BenchmarkSelect(b *testing.B) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"random", Config{Size: 60, Kind: Random}},
		{"random-priority6", Config{Size: 60, PriorityEntries: 6, Kind: Random}},
		{"random-age", Config{Size: 60, Kind: Random, AgeMatrix: true}},
		{"flexible", Config{Size: 60, Kind: Random, Flexible: true}},
		{"shifting", Config{Size: 60, Kind: Shifting}},
		{"circular", Config{Size: 60, Kind: Circular}},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			q := New(tc.cfg)
			seq := uint64(0)
			dispatch := func() bool {
				seq++
				r := Request{Handle: int(seq % 4096), Seq: seq, FU: int(seq % 4), Marked: seq%3 == 0}
				ok := tc.cfg.PriorityEntries > 0 && r.Marked && q.DispatchPriority(r) || q.DispatchNormal(r)
				if ok && r.Handle&1 == 0 {
					q.MarkReady(r.Handle)
				}
				return ok
			}
			for dispatch() {
			}
			var fuLeft [4]int
			fuAlloc := func(fu int) bool {
				if fuLeft[fu] == 0 {
					return false
				}
				fuLeft[fu]--
				return true
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fuLeft = benchFUBudget()
				granted := q.Select(benchIssueWidth, fuAlloc)
				for range granted {
					dispatch()
				}
			}
		})
	}
}

func BenchmarkSelectDistributed(b *testing.B) {
	d := NewDistributed(DistributedConfig{
		NumQueues:       4,
		TotalSize:       60,
		PriorityEntries: 6,
		Router:          func(fu int) int { return fu & 3 },
	})
	seq := uint64(0)
	dispatch := func() bool {
		seq++
		r := Request{Handle: int(seq % 4096), Seq: seq, FU: int(seq % 4), Marked: seq%3 == 0}
		ok := r.Marked && d.DispatchPriority(r) || d.DispatchNormal(r)
		if ok && r.Handle&1 == 0 {
			d.MarkReady(r.Handle)
		}
		return ok
	}
	for dispatch() {
	}
	var fuLeft [4]int
	fuAlloc := func(fu int) bool {
		if fuLeft[fu] == 0 {
			return false
		}
		fuLeft[fu]--
		return true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fuLeft = benchFUBudget()
		granted := d.Select(benchIssueWidth, fuAlloc)
		for range granted {
			dispatch()
		}
	}
}
