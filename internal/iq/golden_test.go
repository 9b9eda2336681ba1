package iq

// Golden equivalence for the bitset select rewrite: referenceSelect is the
// pre-rewrite implementation (closure scan over the slot array plus a
// selection-sort free loop), kept verbatim as the specification of the
// position-priority semantics. The property tests drive a rewritten queue
// and a reference-selected twin through identical operation sequences and
// require identical grants, occupancy, and structural state for every
// queue kind and select variant.

import (
	"fmt"
	"testing"
)

// referenceScan is the old Queue.scan: visit used entries in position-
// priority order, synthesizing slots for the shifting kind.
func referenceScan(q *Queue, visit func(pos int, s *slot) bool) {
	switch q.cfg.Kind {
	case Random, Circular:
		seen := 0
		for i := range q.slots {
			if q.slots[i].used {
				if !visit(i, &q.slots[i]) {
					return
				}
				seen++
				if seen == q.count {
					return
				}
			}
		}
	case Shifting:
		for i := range q.list {
			if !visit(i, &slot{used: true, req: q.list[i]}) {
				return
			}
		}
	}
}

func referenceSlotAt(q *Queue, pos int) *slot {
	if q.cfg.Kind == Shifting {
		return &slot{used: true, req: q.list[pos]}
	}
	return &q.slots[pos]
}

// referenceSelect is the old Queue.Select, using the shared removeAt so the
// twin queue's free lists advance exactly as the rewritten queue's do.
func referenceSelect(q *Queue, issueWidth int, ready func(int) bool, fuTryAlloc func(int) bool) []Request {
	if issueWidth <= 0 || q.count == 0 {
		return nil
	}
	granted := make([]Request, 0, issueWidth)
	grantedPos := make([]int, 0, issueWidth)
	grantedAt := -1

	if q.cfg.AgeMatrix {
		oldest := -1
		var oldestSeq uint64
		referenceScan(q, func(pos int, s *slot) bool {
			if ready(s.req.Handle) && (oldest == -1 || s.req.Seq < oldestSeq) {
				oldest, oldestSeq = pos, s.req.Seq
			}
			return true
		})
		if oldest >= 0 {
			s := referenceSlotAt(q, oldest)
			if fuTryAlloc(s.req.FU) {
				granted = append(granted, s.req)
				grantedPos = append(grantedPos, oldest)
				grantedAt = oldest
			}
		}
	}

	passes := [][2]bool{{false, true}}
	if q.cfg.Flexible {
		passes = [][2]bool{{true, false}, {false, false}}
	}
	for _, pass := range passes {
		wantMarked, any := pass[0], pass[1]
		referenceScan(q, func(pos int, s *slot) bool {
			if len(granted) >= issueWidth {
				return false
			}
			if pos == grantedAt || s.granted {
				return true
			}
			if !any && s.req.Marked != wantMarked {
				return true
			}
			if !ready(s.req.Handle) {
				return true
			}
			if !fuTryAlloc(s.req.FU) {
				return true
			}
			s.granted = true
			granted = append(granted, s.req)
			grantedPos = append(grantedPos, pos)
			return true
		})
	}

	for i := len(grantedPos) - 1; i >= 0; i-- {
		max := i
		for j := 0; j < i; j++ {
			if grantedPos[j] > grantedPos[max] {
				max = j
			}
		}
		grantedPos[i], grantedPos[max] = grantedPos[max], grantedPos[i]
		q.removeAt(grantedPos[i])
	}
	return granted
}

// equivalenceConfigs covers every kind and select variant the pipeline can
// configure.
func equivalenceConfigs() []Config {
	return []Config{
		{Size: 24, Kind: Random},
		{Size: 24, Kind: Random, PriorityEntries: 6},
		{Size: 24, Kind: Random, PriorityEntries: 6, AgeMatrix: true},
		{Size: 24, Kind: Random, Flexible: true},
		{Size: 24, Kind: Random, AgeMatrix: true},
		{Size: 24, Kind: Shifting},
		{Size: 24, Kind: Shifting, AgeMatrix: true},
		{Size: 24, Kind: Circular},
		{Size: 24, Kind: Circular, AgeMatrix: true},
	}
}

// xorshift is the deterministic op-stream generator for the property runs.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// TestSelectMatchesReference drives a rewritten queue and a reference twin
// through identical randomized dispatch/select interleavings and requires
// identical grant sequences and post-step structural state — including the
// free-list RNG streams, whose pop order depends on the exact push order of
// freed positions.
func TestSelectMatchesReference(t *testing.T) {
	for _, cfg := range equivalenceConfigs() {
		cfg := cfg
		name := fmt.Sprintf("%s-p%d-age%v-flex%v", cfg.Kind, cfg.PriorityEntries, cfg.AgeMatrix, cfg.Flexible)
		t.Run(name, func(t *testing.T) {
			qNew, qRef := New(cfg), New(cfg)
			rng := xorshift(0xDECAFBAD)
			seq := uint64(0)
			for step := 0; step < 4000; step++ {
				r := rng.next()
				switch r % 4 {
				case 0, 1: // dispatch (twice as likely, to keep the queue loaded)
					seq++
					req := Request{Handle: int(seq), Seq: seq, FU: int(r>>8) % 4, Marked: r>>16&1 == 0}
					switch {
					case cfg.PriorityEntries > 0 && r>>24&1 == 0:
						if got, want := qNew.DispatchPriority(req), qRef.DispatchPriority(req); got != want {
							t.Fatalf("step %d: DispatchPriority %v vs reference %v", step, got, want)
						}
					case cfg.PriorityEntries > 0 && r>>25&1 == 0:
						pick := float64(r>>32&0xFFFF) / 65536
						if got, want := qNew.DispatchWeighted(req, pick), qRef.DispatchWeighted(req, pick); got != want {
							t.Fatalf("step %d: DispatchWeighted %v vs reference %v", step, got, want)
						}
					default:
						if got, want := qNew.DispatchNormal(req), qRef.DispatchNormal(req); got != want {
							t.Fatalf("step %d: DispatchNormal %v vs reference %v", step, got, want)
						}
					}
				case 2, 3:
					readyBits := rng.next()
					ready := func(h int) bool { return readyBits>>(uint(h)%64)&1 == 0 }
					width := int(r>>8)%4 + 1
					// Independent FU budgets with identical draw sequences.
					budgetNew, budgetRef := int(r>>16)%5, int(r>>16)%5
					fuNew := func(int) bool {
						if budgetNew == 0 {
							return false
						}
						budgetNew--
						return true
					}
					fuRef := func(int) bool {
						if budgetRef == 0 {
							return false
						}
						budgetRef--
						return true
					}
					got := selectReady(qNew, width, ready, fuNew)
					want := referenceSelect(qRef, width, ready, fuRef)
					if len(got) != len(want) {
						t.Fatalf("step %d: granted %d vs reference %d", step, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("step %d: grant %d = %+v, reference %+v", step, i, got[i], want[i])
						}
					}
				}
				if err := qNew.CheckInvariants(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if qNew.Occupancy() != qRef.Occupancy() {
					t.Fatalf("step %d: occupancy %d vs reference %d", step, qNew.Occupancy(), qRef.Occupancy())
				}
				if qNew.PriorityFree() != qRef.PriorityFree() || qNew.NormalFree() != qRef.NormalFree() {
					t.Fatalf("step %d: free %d/%d vs reference %d/%d", step,
						qNew.PriorityFree(), qNew.NormalFree(), qRef.PriorityFree(), qRef.NormalFree())
				}
			}
		})
	}
}

// TestRemovalPreservesIndexValidity: for every kind, removing a granted
// batch never invalidates the positions of the remaining entries — the
// next select still sees each surviving request exactly once, in position-
// priority order (the shifting queue's descending-order compaction
// contract, generalised).
func TestRemovalPreservesIndexValidity(t *testing.T) {
	for _, kind := range []Kind{Random, Shifting, Circular} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			q := New(Config{Size: 16, Kind: kind})
			rng := xorshift(0xFEEDFACE)
			seq := uint64(0)
			live := map[int]bool{}
			for step := 0; step < 2000; step++ {
				r := rng.next()
				if r&1 == 0 {
					seq++
					if q.DispatchNormal(Request{Handle: int(seq), Seq: seq, FU: 0}) {
						live[int(seq)] = true
					}
				} else {
					readyBits := rng.next()
					ready := func(h int) bool { return readyBits>>(uint(h)%64)&1 == 0 }
					var prevSeq uint64
					for i, g := range selectReady(q, int(r>>8)%5+1, ready, func(int) bool { return true }) {
						if !live[g.Handle] {
							t.Fatalf("step %d: granted dead or duplicate handle %d", step, g.Handle)
						}
						delete(live, g.Handle)
						if kind == Shifting {
							if i > 0 && g.Seq <= prevSeq {
								t.Fatalf("step %d: shifting grants out of age order (%d after %d)", step, g.Seq, prevSeq)
							}
							prevSeq = g.Seq
						}
					}
				}
				if err := q.CheckInvariants(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if q.Occupancy() != len(live) {
					t.Fatalf("step %d: occupancy %d but %d live requests", step, q.Occupancy(), len(live))
				}
			}
			// Drain everything: every surviving request must still be granted
			// exactly once from its (possibly shifted) position.
			for q.Occupancy() > 0 {
				granted := selectReady(q, 4, func(int) bool { return true }, func(int) bool { return true })
				if len(granted) == 0 {
					t.Fatal("drain stalled with live entries")
				}
				for _, g := range granted {
					if !live[g.Handle] {
						t.Fatalf("drain granted dead or duplicate handle %d", g.Handle)
					}
					delete(live, g.Handle)
				}
			}
			if len(live) != 0 {
				t.Fatalf("%d requests lost after drain", len(live))
			}
		})
	}
}
