package iq

import (
	"testing"

	"repro/internal/isa"
)

func poolRouter(fu int) int {
	switch isa.Class(fu) {
	case isa.ClassIntALU:
		return 0
	case isa.ClassIntMulDiv:
		return 1
	case isa.ClassLoad, isa.ClassStore:
		return 2
	case isa.ClassFPU:
		return 3
	}
	return 0
}

func distCfg() DistributedConfig {
	return DistributedConfig{
		NumQueues:       4,
		TotalSize:       64,
		PriorityEntries: 6,
		Router:          poolRouter,
	}
}

func TestDistributedSizing(t *testing.T) {
	d := NewDistributed(distCfg())
	qs := d.Queues()
	if len(qs) != 4 {
		t.Fatalf("queues = %d", len(qs))
	}
	total, prio := 0, 0
	for _, q := range qs {
		total += q.Size()
		prio += q.PriorityEntries()
	}
	if total != 64 {
		t.Errorf("total size = %d", total)
	}
	if prio != 6 {
		t.Errorf("priority entries = %d", prio)
	}
	// Round-robin: queues 0 and 1 get 2 each, 2 and 3 get 1 each.
	if qs[0].PriorityEntries() != 2 || qs[2].PriorityEntries() != 1 {
		t.Errorf("priority distribution: %d,%d,%d,%d",
			qs[0].PriorityEntries(), qs[1].PriorityEntries(),
			qs[2].PriorityEntries(), qs[3].PriorityEntries())
	}
}

func TestDistributedRouting(t *testing.T) {
	d := NewDistributed(distCfg())
	alu := Request{Handle: 1, Seq: 1, FU: int(isa.ClassIntALU)}
	fpu := Request{Handle: 2, Seq: 2, FU: int(isa.ClassFPU)}
	ld := Request{Handle: 3, Seq: 3, FU: int(isa.ClassLoad)}
	st := Request{Handle: 4, Seq: 4, FU: int(isa.ClassStore)}
	for _, r := range []Request{alu, fpu, ld, st} {
		if !d.DispatchNormal(r) {
			t.Fatalf("dispatch of %+v failed", r)
		}
	}
	qs := d.Queues()
	if qs[0].Occupancy() != 1 || qs[3].Occupancy() != 1 || qs[2].Occupancy() != 2 {
		t.Errorf("routing wrong: %d,%d,%d,%d",
			qs[0].Occupancy(), qs[1].Occupancy(), qs[2].Occupancy(), qs[3].Occupancy())
	}
	if d.Occupancy() != 4 {
		t.Errorf("total occupancy = %d", d.Occupancy())
	}
}

func TestDistributedSelectSharesWidth(t *testing.T) {
	d := NewDistributed(distCfg())
	for i := 0; i < 6; i++ {
		d.DispatchNormal(Request{Handle: i, Seq: uint64(i), FU: int(isa.ClassIntALU)})
	}
	for i := 6; i < 10; i++ {
		d.DispatchNormal(Request{Handle: i, Seq: uint64(i), FU: int(isa.ClassFPU)})
	}
	granted := selectReady(d, 4, func(int) bool { return true }, func(int) bool { return true })
	if len(granted) != 4 {
		t.Errorf("granted %d, want total issue width 4", len(granted))
	}
	if d.Occupancy() != 6 {
		t.Errorf("occupancy after select = %d", d.Occupancy())
	}
}

func TestDistributedPriorityPartition(t *testing.T) {
	d := NewDistributed(distCfg())
	// ALU queue has 2 priority entries.
	p := Request{Handle: 1, Seq: 1, FU: int(isa.ClassIntALU)}
	if !d.DispatchPriority(p) || !d.DispatchPriority(Request{Handle: 2, Seq: 2, FU: int(isa.ClassIntALU)}) {
		t.Fatal("priority dispatch failed")
	}
	if d.DispatchPriority(Request{Handle: 3, Seq: 3, FU: int(isa.ClassIntALU)}) {
		t.Error("ALU queue accepted a third priority entry")
	}
	// A different class still has its own partition.
	if !d.DispatchPriority(Request{Handle: 4, Seq: 4, FU: int(isa.ClassFPU)}) {
		t.Error("FPU priority partition unavailable")
	}
}

func TestDistributedConfigPanics(t *testing.T) {
	bad := []DistributedConfig{
		{NumQueues: 0, TotalSize: 64, Router: poolRouter},
		{NumQueues: 4, TotalSize: 64},                    // no router
		{NumQueues: 8, TotalSize: 4, Router: poolRouter}, // too small
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d should panic", i)
				}
			}()
			NewDistributed(cfg)
		}()
	}
}

func TestFlexibleSelectRanksMarked(t *testing.T) {
	q := New(Config{Size: 8, Kind: Random, Flexible: true})
	// Unmarked at the best position, marked later.
	q.DispatchNormal(Request{Handle: 1, Seq: 1, FU: int(isa.ClassIntALU)})
	q.DispatchNormal(Request{Handle: 2, Seq: 2, FU: int(isa.ClassIntALU), Marked: true})
	granted := selectReady(q, 1, func(int) bool { return true }, func(int) bool { return true })
	if len(granted) != 1 || granted[0].Handle != 2 {
		t.Errorf("granted %v, want the marked request", granted)
	}
	// Second pass picks the unmarked one.
	granted = selectReady(q, 1, func(int) bool { return true }, func(int) bool { return true })
	if len(granted) != 1 || granted[0].Handle != 1 {
		t.Errorf("granted %v, want the unmarked request", granted)
	}
}

func TestFlexibleSelectFillsWidthAcrossPasses(t *testing.T) {
	q := New(Config{Size: 8, Kind: Random, Flexible: true})
	q.DispatchNormal(Request{Handle: 1, Seq: 1, FU: int(isa.ClassIntALU), Marked: true})
	q.DispatchNormal(Request{Handle: 2, Seq: 2, FU: int(isa.ClassIntALU)})
	q.DispatchNormal(Request{Handle: 3, Seq: 3, FU: int(isa.ClassIntALU)})
	granted := selectReady(q, 3, func(int) bool { return true }, func(int) bool { return true })
	if len(granted) != 3 {
		t.Fatalf("granted %d, want 3", len(granted))
	}
	if granted[0].Handle != 1 {
		t.Errorf("marked request not first: %v", granted)
	}
	if q.Occupancy() != 0 {
		t.Error("entries not freed")
	}
}

func TestFlexibleConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("flexible + priority entries should panic")
		}
	}()
	New(Config{Size: 8, Kind: Random, Flexible: true, PriorityEntries: 2})
}
