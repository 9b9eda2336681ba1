package emu

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
)

// Memory is copy-on-write at page granularity: a machine holds private
// copies of only the pages stores have touched, a snapshot copies only
// those, and a restore drops every other private page so it reads from the
// pristine program image again. pageSize is a power of two and a multiple
// of the 8-byte store width, so no store straddles a page.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
)

func numPages(memLen int) int {
	return (memLen + pageSize - 1) / pageSize
}

// Snapshot is an immutable architectural checkpoint of a Machine:
// registers, PC, instruction count, halt flag, and a compacted
// copy-on-write memory image holding only the pages written since program
// load. A snapshot is safe to share between goroutines — Restore and
// NewFromSnapshot only read it — which is what lets one functional
// fast-forward seed many concurrent detailed simulations.
type Snapshot struct {
	regs    [isa.NumLogicalRegs]uint64
	pc      int
	seq     uint64
	done    bool
	memLen  int
	dirty   []uint64 // page bitset, same layout as Machine.dirty
	pages   [][]byte // copies of the dirty pages, in ascending page order
	progLen int      // len(prog.Code), to reject cross-program restores
}

// Seq returns the number of instructions executed when the snapshot was
// taken — the architectural position it restores to.
func (s *Snapshot) Seq() uint64 { return s.seq }

// Done reports whether the snapshotted machine had halted.
func (s *Snapshot) Done() bool { return s.done }

// DirtyPages returns the number of memory pages the snapshot carries.
func (s *Snapshot) DirtyPages() int { return len(s.pages) }

// MemBytes returns the snapshot's memory footprint in bytes (the compacted
// page copies, not the full image).
func (s *Snapshot) MemBytes() int { return len(s.pages) * pageSize }

// Snapshot captures the machine's architectural state. Only pages written
// since load are copied; a machine that has streamed through gigabytes of
// read-mostly memory snapshots in proportion to what it wrote.
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{
		regs:    m.regs,
		pc:      m.pc,
		seq:     m.seq,
		done:    m.done,
		memLen:  m.memLen,
		dirty:   append([]uint64(nil), m.dirty...),
		progLen: len(m.prog.Code),
	}
	for w, word := range m.dirty {
		for word != 0 {
			p := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			s.pages = append(s.pages, append([]byte(nil), m.pages[p]...))
		}
	}
	return s
}

// Restore rewinds the machine to a snapshot taken from the same program.
// Private pages the machine has written since load that the snapshot does
// not carry are dropped, so they read from the pristine program image
// again; snapshot pages are copied in. The snapshot is not mutated and may
// be restored concurrently into other machines.
func (m *Machine) Restore(s *Snapshot) error {
	if s.memLen != m.memLen || s.progLen != len(m.prog.Code) {
		return fmt.Errorf("emu %q: snapshot from a different program (mem %d vs %d, code %d vs %d)",
			m.prog.Name, s.memLen, m.memLen, s.progLen, len(m.prog.Code))
	}
	for w, word := range m.dirty {
		stale := word &^ s.dirty[w]
		for stale != 0 {
			p := w<<6 + bits.TrailingZeros64(stale)
			stale &= stale - 1
			m.pages[p] = nil
		}
	}
	i := 0
	for w, word := range s.dirty {
		for word != 0 {
			p := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if m.pages[p] == nil {
				m.pages[p] = make([]byte, pageSize)
			}
			copy(m.pages[p], s.pages[i])
			i++
		}
	}
	copy(m.dirty, s.dirty)
	m.regs = s.regs
	m.pc = s.pc
	m.seq = s.seq
	m.done = s.done
	return nil
}

// NewFromSnapshot builds a fresh machine for prog positioned at the
// snapshot. prog must be the program the snapshot was taken from (or a
// bit-identical rebuild of it — workload programs are reconstructed per
// call, so pointer identity is deliberately not required).
func NewFromSnapshot(p *isa.Program, s *Snapshot) (*Machine, error) {
	m, err := New(p)
	if err != nil {
		return nil, err
	}
	if err := m.Restore(s); err != nil {
		return nil, err
	}
	return m, nil
}
