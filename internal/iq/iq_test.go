package iq

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func alwaysReady(int) bool { return true }

func unlimitedFU(int) bool { return true }

// readySelector is the select surface shared by Queue and Distributed.
type readySelector interface {
	Visit(func(Request, bool))
	MarkReady(int)
	UnmarkReady(int)
	Select(int, func(int) bool) []Request
}

// selectReady sets every queued request's ready flag to ready(handle) and
// then selects. The predicates these tests draw are not monotone across
// calls (pipeline operand readiness is), so entries are un-marked as well
// as marked.
func selectReady(q readySelector, width int, ready, fuTryAlloc func(int) bool) []Request {
	var handles []int
	q.Visit(func(r Request, _ bool) { handles = append(handles, r.Handle) })
	for _, h := range handles {
		if ready(h) {
			q.MarkReady(h)
		} else {
			q.UnmarkReady(h)
		}
	}
	return q.Select(width, fuTryAlloc)
}

// readySet returns the handles Visit reports ready.
func readySet(q readySelector) map[int]bool {
	set := map[int]bool{}
	q.Visit(func(r Request, ready bool) {
		if ready {
			set[r.Handle] = true
		}
	})
	return set
}

func req(h int, seq uint64) Request {
	return Request{Handle: h, Seq: seq, FU: int(isa.ClassIntALU)}
}

func TestDispatchAndSelectBasics(t *testing.T) {
	q := New(Config{Size: 8, Kind: Random})
	for i := 0; i < 3; i++ {
		if !q.DispatchNormal(req(i, uint64(i))) {
			t.Fatalf("dispatch %d failed", i)
		}
	}
	if q.Occupancy() != 3 {
		t.Errorf("occupancy = %d", q.Occupancy())
	}
	granted := selectReady(q, 4, alwaysReady, unlimitedFU)
	if len(granted) != 3 {
		t.Fatalf("granted %d, want 3", len(granted))
	}
	if q.Occupancy() != 0 {
		t.Error("entries not freed at issue")
	}
}

func TestIssueWidthLimit(t *testing.T) {
	q := New(Config{Size: 16, Kind: Random})
	for i := 0; i < 10; i++ {
		q.DispatchNormal(req(i, uint64(i)))
	}
	if got := len(selectReady(q, 4, alwaysReady, unlimitedFU)); got != 4 {
		t.Errorf("granted %d, want issue width 4", got)
	}
}

func TestFULimit(t *testing.T) {
	q := New(Config{Size: 16, Kind: Random})
	for i := 0; i < 6; i++ {
		q.DispatchNormal(req(i, uint64(i)))
	}
	remaining := 2
	fu := func(int) bool {
		if remaining == 0 {
			return false
		}
		remaining--
		return true
	}
	if got := len(selectReady(q, 8, alwaysReady, fu)); got != 2 {
		t.Errorf("granted %d, want 2 (FU bound)", got)
	}
}

func TestReadyGating(t *testing.T) {
	q := New(Config{Size: 8, Kind: Random})
	q.DispatchNormal(req(1, 1))
	q.DispatchNormal(req(2, 2))
	ready := func(h int) bool { return h == 2 }
	granted := selectReady(q, 4, ready, unlimitedFU)
	if len(granted) != 1 || granted[0].Handle != 2 {
		t.Errorf("granted %v", granted)
	}
	if q.Occupancy() != 1 {
		t.Error("unready entry must stay queued")
	}
}

func TestPriorityEntriesWinSelection(t *testing.T) {
	q := New(Config{Size: 8, PriorityEntries: 2, Kind: Random})
	// Fill normal entries first, then a priority one.
	for i := 0; i < 4; i++ {
		q.DispatchNormal(req(i, uint64(i)))
	}
	if !q.DispatchPriority(req(99, 99)) {
		t.Fatal("priority dispatch failed")
	}
	// With one grant available, the priority entry (position 0..1) wins
	// despite being the youngest.
	granted := selectReady(q, 1, alwaysReady, unlimitedFU)
	if len(granted) != 1 || granted[0].Handle != 99 {
		t.Errorf("granted %v, want the priority entry", granted)
	}
}

func TestPriorityCapacity(t *testing.T) {
	q := New(Config{Size: 8, PriorityEntries: 2, Kind: Random})
	if !q.DispatchPriority(req(1, 1)) || !q.DispatchPriority(req(2, 2)) {
		t.Fatal("priority entries should accept 2")
	}
	if q.DispatchPriority(req(3, 3)) {
		t.Error("third priority dispatch should fail")
	}
	if q.PriorityFree() != 0 || q.NormalFree() != 6 {
		t.Errorf("free = %d/%d", q.PriorityFree(), q.NormalFree())
	}
	// Issuing a priority entry frees it back to the priority list.
	selectReady(q, 1, alwaysReady, unlimitedFU)
	if q.PriorityFree() != 1 {
		t.Error("issued priority entry not recycled")
	}
}

func TestDispatchWeightedFallsBack(t *testing.T) {
	q := New(Config{Size: 4, PriorityEntries: 2, Kind: Random})
	// Draw < ratio chooses the priority list.
	q.DispatchWeighted(req(1, 1), 0.0)
	q.DispatchWeighted(req(2, 2), 0.0)
	// Priority full: falls back to normal.
	if !q.DispatchWeighted(req(3, 3), 0.0) {
		t.Error("weighted dispatch should fall back to normal")
	}
	// Draw ≥ ratio chooses normal; fill it, then fall back to priority...
	if !q.DispatchWeighted(req(4, 4), 0.9) {
		t.Error("weighted dispatch to normal failed")
	}
	// Queue now full.
	if q.DispatchWeighted(req(5, 5), 0.9) {
		t.Error("full queue accepted a dispatch")
	}
}

func TestAgeMatrixPicksOldest(t *testing.T) {
	q := New(Config{Size: 8, Kind: Random, AgeMatrix: true})
	// Dispatch in an order where the oldest (seq 1) lands at a high
	// physical position: fill positions 0..2 with younger seqs first.
	q.DispatchNormal(req(10, 50))
	q.DispatchNormal(req(11, 51))
	q.DispatchNormal(req(12, 1)) // oldest, position 2
	granted := selectReady(q, 1, alwaysReady, unlimitedFU)
	if len(granted) != 1 || granted[0].Handle != 12 {
		t.Errorf("age matrix granted %v, want the oldest (handle 12)", granted)
	}
}

func TestAgeMatrixRespectsFU(t *testing.T) {
	q := New(Config{Size: 8, Kind: Random, AgeMatrix: true})
	old := Request{Handle: 1, Seq: 1, FU: int(isa.ClassFPU)}
	young := Request{Handle: 2, Seq: 9, FU: int(isa.ClassIntALU)}
	q.DispatchNormal(old)
	q.DispatchNormal(young)
	fu := func(class int) bool { return class == int(isa.ClassIntALU) }
	granted := selectReady(q, 2, alwaysReady, fu)
	if len(granted) != 1 || granted[0].Handle != 2 {
		t.Errorf("granted %v, want only the ALU op", granted)
	}
}

func TestShiftingQueueAgeOrder(t *testing.T) {
	q := New(Config{Size: 4, Kind: Shifting})
	for i := 0; i < 4; i++ {
		q.DispatchNormal(req(i, uint64(i)))
	}
	if q.DispatchNormal(req(9, 9)) {
		t.Error("full shifting queue accepted dispatch")
	}
	// Only entry 2 ready: select grants it; compaction preserves order.
	granted := selectReady(q, 1, func(h int) bool { return h == 2 }, unlimitedFU)
	if len(granted) != 1 || granted[0].Handle != 2 {
		t.Fatalf("granted %v", granted)
	}
	// Next select with everything ready grants in age order 0,1,3.
	granted = selectReady(q, 4, alwaysReady, unlimitedFU)
	want := []int{0, 1, 3}
	for i, g := range granted {
		if g.Handle != want[i] {
			t.Errorf("grant %d = handle %d, want %d (age order broken)", i, g.Handle, want[i])
		}
	}
}

func TestCircularQueueTailBlocking(t *testing.T) {
	q := New(Config{Size: 4, Kind: Circular})
	for i := 0; i < 4; i++ {
		q.DispatchNormal(req(i, uint64(i)))
	}
	// Issue the instruction in the middle (hole at position 1).
	selectReady(q, 1, func(h int) bool { return h == 1 }, unlimitedFU)
	// Tail points at position 0 (still used): dispatch blocks even though a
	// hole exists — the capacity inefficiency the paper describes.
	if q.DispatchNormal(req(9, 9)) {
		t.Error("circular queue dispatched into a hole behind the tail")
	}
	// Drain position 0; the tail slot frees and dispatch succeeds.
	selectReady(q, 1, func(h int) bool { return h == 0 }, unlimitedFU)
	if !q.DispatchNormal(req(9, 9)) {
		t.Error("circular queue should accept dispatch at the freed tail")
	}
}

func TestConfigPanics(t *testing.T) {
	cases := []Config{
		{Size: 0, Kind: Random},
		{Size: 4, PriorityEntries: 5, Kind: Random},
		{Size: 4, PriorityEntries: 2, Kind: Shifting},
	}
	for _, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// Property: under arbitrary dispatch/select interleavings, occupancy +
// free-list sizes always equal the queue size, and Select never grants
// more than the issue width or the occupancy.
func TestQuickFreeListConservation(t *testing.T) {
	q := New(Config{Size: 16, PriorityEntries: 4, Kind: Random})
	seq := uint64(0)
	f := func(ops []byte) bool {
		for _, op := range ops {
			seq++
			switch op % 4 {
			case 0:
				q.DispatchNormal(req(int(seq), seq))
			case 1:
				q.DispatchPriority(req(int(seq), seq))
			case 2:
				q.DispatchWeighted(req(int(seq), seq), float64(op)/255)
			case 3:
				granted := selectReady(q, 4, func(h int) bool { return h%2 == 0 }, unlimitedFU)
				if len(granted) > 4 {
					return false
				}
			}
			if q.Occupancy()+q.PriorityFree()+q.NormalFree() != 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: whatever was dispatched is eventually granted exactly once.
func TestQuickNoLostOrDuplicatedGrants(t *testing.T) {
	f := func(n uint8) bool {
		q := New(Config{Size: 32, Kind: Random})
		count := int(n%32) + 1
		for i := 0; i < count; i++ {
			if !q.DispatchNormal(req(i, uint64(i))) {
				return false
			}
		}
		seen := make(map[int]bool)
		for q.Occupancy() > 0 {
			for _, g := range selectReady(q, 4, alwaysReady, unlimitedFU) {
				if seen[g.Handle] {
					return false // duplicate grant
				}
				seen[g.Handle] = true
			}
		}
		return len(seen) == count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Only marked entries compete: an unmarked queue grants nothing, and a mark
// persists across selects until the entry is granted.
func TestSelectWalksOnlyMarkedEntries(t *testing.T) {
	for _, kind := range []Kind{Random, Shifting, Circular} {
		q := New(Config{Size: 8, Kind: kind})
		for i := 0; i < 4; i++ {
			q.DispatchNormal(req(i, uint64(i)))
		}
		if got := q.Select(4, unlimitedFU); len(got) != 0 {
			t.Fatalf("%s: granted %v with nothing marked", kind, got)
		}
		q.MarkReady(2)
		q.MarkReady(3)
		if got := q.Select(1, unlimitedFU); len(got) != 1 {
			t.Fatalf("%s: granted %v, want one of the marked entries", kind, got)
		}
		if got := q.Select(4, unlimitedFU); len(got) != 1 {
			t.Fatalf("%s: second select granted %v, want the surviving mark", kind, got)
		}
		if got := readySet(q); len(got) != 0 {
			t.Errorf("%s: granted entries left ready bits %v", kind, got)
		}
	}
}

// A zero-grant select must leave the ready set untouched (the idle skip's
// purity contract), and shifting compaction must carry each ready flag
// with its entry rather than with its old position.
func TestReadyFlagsFollowEntries(t *testing.T) {
	for _, kind := range []Kind{Random, Shifting, Circular} {
		q := New(Config{Size: 70, Kind: kind}) // two bitset words
		for i := 0; i < 70; i++ {
			q.DispatchNormal(req(i, uint64(i)))
			if i%3 == 0 {
				q.MarkReady(i)
			}
		}
		before := readySet(q)
		if got := q.Select(8, func(int) bool { return false }); len(got) != 0 {
			t.Fatalf("%s: granted %v with no free units", kind, got)
		}
		if got := readySet(q); len(got) != len(before) {
			t.Fatalf("%s: zero-grant select changed the ready set (%d → %d)", kind, len(before), len(got))
		}
		granted := map[int]bool{}
		for _, g := range q.Select(5, unlimitedFU) {
			granted[g.Handle] = true
		}
		for h := range before {
			if got := readySet(q)[h]; got == granted[h] {
				t.Errorf("%s: handle %d ready=%v after select (granted %v)", kind, h, got, granted[h])
			}
		}
		if n := len(readySet(q)); n != len(before)-len(granted) {
			t.Errorf("%s: %d ready after granting %d of %d", kind, n, len(granted), len(before))
		}
		if err := q.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}

func TestDropBit(t *testing.T) {
	m := []uint64{1<<63 | 1<<5 | 1<<4, 1 | 1<<10}
	dropBit(m, 4)
	if want := []uint64{1<<63 | 1<<62 | 1<<4, 1 << 9}; m[0] != want[0] || m[1] != want[1] {
		t.Errorf("dropBit = %#x, want %#x", m, want)
	}
}

// Marking a handle that is not queued is a lost or duplicated wakeup in
// the caller; it must fail loudly rather than flag some other entry.
func TestMarkReadyUnqueuedPanics(t *testing.T) {
	q := New(Config{Size: 8, Kind: Random})
	q.DispatchNormal(req(1, 1))
	q.MarkReady(1)
	q.Select(1, unlimitedFU)
	for _, h := range []int{1, 7, -1, 1 << 20} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MarkReady(%d) of an unqueued handle did not panic", h)
				}
			}()
			q.MarkReady(h)
		}()
	}
}
