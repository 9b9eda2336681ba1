package emu

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/workload"
)

// record runs n steps and returns the dynamic instruction stream.
func record(t *testing.T, m *Machine, n int) []DynInst {
	t.Helper()
	out := make([]DynInst, 0, n)
	for i := 0; i < n; i++ {
		di, ok := m.Step()
		if !ok {
			break
		}
		out = append(out, di)
	}
	return out
}

// archEqual compares architectural state, including the whole logical
// memory image word by word (clean pages read through to the program image,
// so comparing the private page tables would be weaker).
func archEqual(a, b *Machine) bool {
	if a.regs != b.regs || a.pc != b.pc || a.seq != b.seq || a.done != b.done || a.memLen != b.memLen {
		return false
	}
	for addr := uint64(0); addr+8 <= uint64(a.memLen); addr += 8 {
		if a.load(addr) != b.load(addr) {
			return false
		}
	}
	return true
}

// TestSnapshotDeterminism is the snapshot contract: snapshot mid-program,
// let the original machine diverge, restore, and the replayed instruction
// stream and final architectural state must be bit-identical to an
// uninterrupted reference run.
func TestSnapshotDeterminism(t *testing.T) {
	for _, wl := range []string{"parser", "compress", "stencil"} {
		t.Run(wl, func(t *testing.T) {
			prog := workload.MustProgram(wl)

			// Uninterrupted reference: 100K to the snapshot point, then 50K
			// recorded.
			ref := MustNew(prog)
			ref.Run(100_000)
			want := record(t, ref, 50_000)

			// Snapshot a second machine at the same point, diverge it well
			// past the recorded region, and restore in place.
			m := MustNew(prog)
			m.Run(100_000)
			snap := m.Snapshot()
			if snap.Seq() != 100_000 {
				t.Fatalf("snapshot seq = %d, want 100000", snap.Seq())
			}
			m.Run(300_000) // divergence: dirties pages the snapshot must undo
			if err := m.Restore(snap); err != nil {
				t.Fatal(err)
			}
			got := record(t, m, 50_000)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("restored stream diverged from the uninterrupted reference")
			}
			if !archEqual(m, ref) {
				t.Fatalf("final architectural state differs after restore-replay")
			}

			// A fresh machine from the same snapshot (the rebuild workload
			// programs get) replays identically too.
			fresh, err := NewFromSnapshot(workload.MustProgram(wl), snap)
			if err != nil {
				t.Fatal(err)
			}
			if got := record(t, fresh, 50_000); !reflect.DeepEqual(got, want) {
				t.Fatalf("NewFromSnapshot stream diverged from the reference")
			}
			if !archEqual(fresh, ref) {
				t.Fatalf("NewFromSnapshot final state differs")
			}
		})
	}
}

// TestSnapshotIsCompact: a machine with a large memory but a small working
// set snapshots only what it wrote.
func TestSnapshotIsCompact(t *testing.T) {
	prog := workload.MustProgram("stencil") // ~40 MB memory image
	m := MustNew(prog)
	m.Run(200_000)
	snap := m.Snapshot()
	total := numPages(m.memLen)
	if snap.DirtyPages() == 0 {
		t.Fatal("no dirty pages after 200K instructions")
	}
	if snap.DirtyPages() >= total {
		t.Fatalf("snapshot carries all %d pages; copy-on-write compaction is not working", total)
	}
	t.Logf("stencil snapshot: %d of %d pages (%d KB)", snap.DirtyPages(), total, snap.MemBytes()/1024)
}

// TestSnapshotSharedAcrossGoroutines: one snapshot seeding many concurrent
// machines must give every one of them the same replay (run under -race in
// CI).
func TestSnapshotSharedAcrossGoroutines(t *testing.T) {
	prog := workload.MustProgram("chess")
	m := MustNew(prog)
	m.Run(50_000)
	snap := m.Snapshot()

	ref := MustNew(prog)
	ref.Run(50_000)
	want := record(t, ref, 20_000)

	var wg sync.WaitGroup
	streams := make([][]DynInst, 4)
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mm, err := NewFromSnapshot(prog, snap)
			if err != nil {
				t.Error(err)
				return
			}
			streams[i] = record(t, mm, 20_000)
		}(i)
	}
	wg.Wait()
	for i, s := range streams {
		if !reflect.DeepEqual(s, want) {
			t.Fatalf("concurrent replay %d diverged", i)
		}
	}
}

// TestSnapshotHaltedMachine: snapshotting a finished program restores to a
// finished program.
func TestSnapshotHaltedMachine(t *testing.T) {
	b := asm.New("tiny")
	r2 := isa.R(2)
	b.Li(r2, 10)
	b.Label("loop")
	b.Addi(r2, r2, -1)
	b.Bne(r2, isa.RZero, "loop")
	b.Halt()
	prog := b.MustBuild()

	m := MustNew(prog)
	m.Run(0)
	if !m.Done() {
		t.Fatal("program did not halt")
	}
	snap := m.Snapshot()
	if !snap.Done() {
		t.Fatal("snapshot lost the halt flag")
	}
	m2, err := NewFromSnapshot(prog, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Done() {
		t.Fatal("restored machine is not halted")
	}
	if _, ok := m2.Step(); ok {
		t.Fatal("halted machine stepped")
	}
}

// TestRestoreRejectsForeignSnapshot: restoring across programs is an error,
// not silent corruption.
func TestRestoreRejectsForeignSnapshot(t *testing.T) {
	a := MustNew(workload.MustProgram("chess"))
	a.Run(1000)
	snap := a.Snapshot()
	b := MustNew(workload.MustProgram("stencil"))
	if err := b.Restore(snap); err == nil {
		t.Fatal("cross-program restore accepted")
	}
}
