package emu

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

// cowProgram is a one-instruction program with the given memory geometry
// and a random data image; only its memory matters to the tests below.
func cowProgram(rng *rand.Rand, dataLen, memSize int) *isa.Program {
	data := make([]byte, dataLen)
	rng.Read(data)
	return &isa.Program{
		Name:    "cow",
		Code:    []isa.Inst{{Op: isa.Halt}},
		Data:    data,
		MemSize: memSize,
	}
}

// refImage is the flat reference memory the copy-on-write machine is
// checked against: the program image loaded at 0, zeros past it.
func refImage(p *isa.Program) []byte {
	mem := make([]byte, p.MemSize)
	copy(mem, p.Data)
	return mem
}

// checkImage compares every word of m's logical memory with ref.
func checkImage(t *testing.T, step int, m *Machine, ref []byte) {
	t.Helper()
	for addr := 0; addr+8 <= len(ref); addr += 8 {
		if got, want := m.load(uint64(addr)), binary.LittleEndian.Uint64(ref[addr:]); got != want {
			t.Fatalf("step %d: word %#x = %#x, reference %#x", step, addr, got, want)
		}
	}
}

// TestCopyOnWriteMemoryDifferential interleaves stores, loads, Snapshot,
// Restore and NewFromSnapshot on copy-on-write machines against a flat
// []byte reference, over geometries with a data image that is not a
// multiple of 8 or of the page size, memory past the image, and a partial
// last page.
func TestCopyOnWriteMemoryDifferential(t *testing.T) {
	geoms := []struct{ dataLen, memSize int }{
		{0, 3 * pageSize},
		{13, pageSize + 8},
		{pageSize - 3, 2 * pageSize},
		{2*pageSize + 5, 5*pageSize + 24},
		{3*pageSize + 4001, 3*pageSize + 4008},
		{7 * pageSize, 7 * pageSize},
	}
	for gi, g := range geoms {
		rng := rand.New(rand.NewSource(int64(gi + 1)))
		prog := cowProgram(rng, g.dataLen, g.memSize)
		pristine := append([]byte(nil), prog.Data...)
		words := g.memSize / 8

		// addr draws an aligned word, biased towards the interesting ones:
		// the last word, the words around the end of the image, and the
		// first word of a page.
		addr := func() uint64 {
			switch rng.Intn(5) {
			case 0:
				return uint64(words-1) * 8
			case 1:
				w := g.dataLen/8 + rng.Intn(3) - 1
				return uint64(min(max(w, 0), words-1)) * 8
			case 2:
				return uint64(rng.Intn(numPages(g.memSize))) * pageSize
			default:
				return uint64(rng.Intn(words)) * 8
			}
		}

		m := MustNew(prog)
		ref := refImage(prog)
		type saved struct {
			snap *Snapshot
			ref  []byte
		}
		var snaps []saved
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(100); {
			case op < 45:
				a, v := addr(), rng.Uint64()
				m.store(a, v)
				binary.LittleEndian.PutUint64(ref[a:], v)
			case op < 90:
				a := addr()
				if got, want := m.load(a), binary.LittleEndian.Uint64(ref[a:]); got != want {
					t.Fatalf("geometry %d step %d: load %#x = %#x, reference %#x", gi, step, a, got, want)
				}
			case op < 95:
				snaps = append(snaps, saved{m.Snapshot(), append([]byte(nil), ref...)})
			case len(snaps) > 0:
				sv := snaps[rng.Intn(len(snaps))]
				if op < 98 {
					// Restore into this machine, which has usually dirtied
					// pages the snapshot does not carry since it was taken.
					if err := m.Restore(sv.snap); err != nil {
						t.Fatal(err)
					}
				} else {
					var err error
					if m, err = NewFromSnapshot(prog, sv.snap); err != nil {
						t.Fatal(err)
					}
				}
				ref = append(ref[:0], sv.ref...)
				checkImage(t, step, m, ref)
			}
			if step%500 == 0 {
				checkImage(t, step, m, ref)
			}
		}
		checkImage(t, -1, m, ref)
		for p := range m.pages {
			if (m.pages[p] != nil) != (m.dirty[p>>6]&(1<<(p&63)) != 0) {
				t.Fatalf("geometry %d: page %d materialised %v but dirty bit disagrees", gi, p, m.pages[p] != nil)
			}
		}
		if !bytes.Equal(prog.Data, pristine) {
			t.Fatalf("geometry %d: program data image was written", gi)
		}
	}
}

// TestMachinesShareProgramImageIndependently: machines built from one
// program read the same image but never see each other's stores, and no
// machine ever writes the program's data.
func TestMachinesShareProgramImageIndependently(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prog := cowProgram(rng, 2*pageSize+100, 4*pageSize)
	pristine := append([]byte(nil), prog.Data...)
	a, b := MustNew(prog), MustNew(prog)
	want := binary.LittleEndian.Uint64(prog.Data[pageSize+16:])
	a.store(pageSize+16, ^want)
	a.store(3*pageSize, 42)
	if got := b.load(pageSize + 16); got != want {
		t.Fatalf("machine b sees a's store: %#x, want %#x", got, want)
	}
	if got := b.load(3 * pageSize); got != 0 {
		t.Fatalf("machine b sees a's store past the image: %#x", got)
	}
	if got := a.load(pageSize + 16); got != ^want {
		t.Fatalf("machine a lost its own store: %#x", got)
	}
	if !bytes.Equal(prog.Data, pristine) {
		t.Fatal("a store wrote the program's data image")
	}

	// A real workload that writes its data structures leaves the image
	// untouched too.
	wl := workload.MustProgram("bfs")
	image := append([]byte(nil), wl.Data...)
	m := MustNew(wl)
	m.Run(200_000)
	if m.Snapshot().DirtyPages() == 0 {
		t.Fatal("bfs wrote no pages in 200K instructions")
	}
	if !bytes.Equal(wl.Data, image) {
		t.Fatal("running bfs wrote the program's data image")
	}
}

// BenchmarkEmuNew measures building a machine for bfs, one of the
// detail-grid programs with an 18 MiB memory image.
func BenchmarkEmuNew(b *testing.B) {
	prog := workload.MustProgram("bfs")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := New(prog)
		if err != nil {
			b.Fatal(err)
		}
		sinkMachine = m
	}
}

var sinkMachine *Machine
