// Package rob implements the reorder buffer: a bounded in-order ring of
// instruction handles. The pipeline owns per-instruction state; the ROB
// enforces program-order allocation and retirement and the structural
// capacity limit (Table I: 128 entries).
//
// The ROB never observes the cycle counter — it changes only on
// Alloc/Pop calls from active pipeline stages — so it is trivially
// skip-invariant under the idle-cycle skip (DESIGN.md §14).
package rob

import (
	"fmt"

	"repro/internal/simerr"
)

// ROB is a fixed-capacity FIFO of opaque handles.
type ROB struct {
	entries []int
	head    int
	count   int
}

// New returns a ROB with the given capacity.
func New(capacity int) *ROB {
	if capacity <= 0 {
		panic("rob: capacity must be positive")
	}
	return &ROB{entries: make([]int, capacity)}
}

// Cap returns the capacity.
func (r *ROB) Cap() int { return len(r.entries) }

// Len returns the number of live entries.
func (r *ROB) Len() int { return r.count }

// Full reports whether allocation would fail.
func (r *ROB) Full() bool { return r.count == len(r.entries) }

// Empty reports whether the ROB holds no instructions.
func (r *ROB) Empty() bool { return r.count == 0 }

// Reset empties the buffer.
func (r *ROB) Reset() {
	r.head = 0
	r.count = 0
}

// Alloc appends a handle in program order.
func (r *ROB) Alloc(handle int) bool {
	if r.Full() {
		return false
	}
	r.entries[(r.head+r.count)%len(r.entries)] = handle
	r.count++
	return true
}

// Head returns the oldest handle without removing it.
func (r *ROB) Head() (handle int, ok bool) {
	if r.count == 0 {
		return 0, false
	}
	return r.entries[r.head], true
}

// Pop retires the oldest handle.
func (r *ROB) Pop() (handle int, ok bool) {
	if r.count == 0 {
		return 0, false
	}
	h := r.entries[r.head]
	r.head = (r.head + 1) % len(r.entries)
	r.count--
	return h, true
}

// CheckInvariants audits the ring state: occupancy within capacity, head
// within range, and no duplicate live handles (each in-flight instruction
// occupies exactly one ROB slot). Violations wrap simerr.ErrInvariant.
func (r *ROB) CheckInvariants() error {
	if r.count < 0 || r.count > len(r.entries) {
		return fmt.Errorf("%w: rob: occupancy %d outside [0,%d]", simerr.ErrInvariant, r.count, len(r.entries))
	}
	if r.head < 0 || r.head >= len(r.entries) {
		return fmt.Errorf("%w: rob: head %d outside [0,%d)", simerr.ErrInvariant, r.head, len(r.entries))
	}
	seen := make(map[int]bool, r.count)
	for i := 0; i < r.count; i++ {
		h := r.entries[(r.head+i)%len(r.entries)]
		if seen[h] {
			return fmt.Errorf("%w: rob: handle %d appears twice", simerr.ErrInvariant, h)
		}
		seen[h] = true
	}
	return nil
}
