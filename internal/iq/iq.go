// Package iq models the issue queue organisations of §III-B1 and the PUBS
// priority-entry partitioning of §III-B2.
//
// The modelled select logic is position-based: physical entry 0 has the
// highest grant priority, as in the prefix-sum and tree-arbiter circuits the
// paper cites. The queue kinds differ in how dispatch chooses a physical
// position:
//
//   - Random: dispatch pops a FIFO free list, so an instruction's physical
//     position rotates through the queue over time and long-run entry order
//     is effectively random (the paper's baseline and the organisation PUBS
//     extends). PUBS reserves positions 0..P-1 ("priority entries") with a
//     separate free list; position-based select then automatically grants
//     unconfident-slice instructions first.
//   - Shifting: entries stay compacted in age order (Alpha 21264 style), so
//     position priority equals age priority; modelled for the taxonomy
//     ablation.
//   - Circular: a ring buffer whose holes stay dead until the tail wraps
//     back over them; position priority inverts across the wrap point —
//     reproducing both pathologies the paper describes.
//
// An optional age matrix (§V-G1) lifts the single oldest ready instruction
// to the highest priority ahead of the positional scan.
//
// Readiness is event-driven (DESIGN.md §14.3): the queue holds a
// per-position ready bitset that the owner sets with MarkReady when an
// entry's last operand becomes available (tag broadcast, in hardware
// terms), and Select walks only that bitset — it never evaluates a
// per-entry predicate. A ready bit lives exactly as long as its entry:
// grants and removals clear it, and shifting-queue compaction moves it
// with the entry.
//
// Skip-invariance contract (DESIGN.md §14): the pipeline's idle-cycle skip
// relies on a failed cycle leaving the queue byte-identical. Every
// Dispatch* method mutates nothing when it fails (the free list, ring
// tail, and shift window are only touched on success), and a Select that
// grants nothing is pure: ready bits are cleared only on grant, and the
// placement RNG is consumed only on pop/grant. Tests pin both properties;
// changing either breaks the null-cycle induction even if results still
// look plausible.
package iq

import (
	"fmt"
	"math/bits"

	"repro/internal/simerr"
)

// Kind selects the queue organisation.
type Kind uint8

const (
	// Random is the baseline random queue (free-list dispatch).
	Random Kind = iota
	// Shifting is the compacting age-ordered queue.
	Shifting
	// Circular is the non-compacting ring buffer.
	Circular
)

func (k Kind) String() string {
	switch k {
	case Random:
		return "random"
	case Shifting:
		return "shifting"
	case Circular:
		return "circular"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Request is one queued instruction, identified by the pipeline's handle.
type Request struct {
	Handle int    // opaque pipeline identifier
	Seq    uint64 // program-order age (smaller = older)
	FU     int    // function-unit class (isa.Class)
	Marked bool   // unconfident-slice mark, used by the Flexible select
}

// Config sizes a queue.
type Config struct {
	Size            int
	PriorityEntries int // PUBS reserved head entries (Random kind only)
	Kind            Kind
	AgeMatrix       bool // add the age-matrix oldest-first pre-select
	// Flexible enables the idealized §III-C1 select: requests carrying the
	// unconfident mark outrank unmarked requests regardless of position, so
	// no entries need reserving and dispatch never stalls on a partition.
	// The paper argues this circuit is impractical (huge MUX fan-in); it is
	// modelled here as an upper bound for the partitioned design.
	Flexible bool
}

// Queue is one issue queue instance.
//
// Select runs every cycle, so the queue is built to be allocation-free in
// steady state: ready positions are tracked in a word bitset (readyMask)
// that the select scan iterates with trailing-zero counts instead of
// probing every slot, and grants accumulate into buffers reused across
// calls.
type Queue struct {
	cfg       Config
	slots     []slot    // physical positions 0..Size-1 (Random/Circular)
	list      []Request // compacted age-ordered list (Shifting)
	readyMask []uint64  // bit per ready position (list index for Shifting)
	posOf     []int32   // handle → position while queued (stale otherwise)
	freePri   freeList
	freeNrm   freeList
	count     int
	tail      int // Circular dispatch point

	grantBuf []Request // Select result buffer, reused across calls
	posBuf   []int     // granted positions, reused across calls
}

// freeList hands out free entry positions uniformly at random (seeded,
// deterministic). Random placement is the defining property of the paper's
// random queue; ordered recycling disciplines are systematically biased —
// LIFO parks the youngest instructions at the highest-priority positions,
// and FIFO recycles positions in issue order, degenerating into a circular
// queue whose wrap-around priority inversion resonates with regular loops.
type freeList struct {
	buf []int
	rng uint64
}

func newFreeList(seed uint64) freeList {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return freeList{rng: seed}
}

func (f *freeList) len() int { return len(f.buf) }

func (f *freeList) push(v int) { f.buf = append(f.buf, v) }

func (f *freeList) pop() int {
	n := len(f.buf)
	if n == 0 {
		panic("iq: free-list underflow")
	}
	f.rng ^= f.rng << 13
	f.rng ^= f.rng >> 7
	f.rng ^= f.rng << 17
	i := int(f.rng % uint64(n))
	v := f.buf[i]
	f.buf[i] = f.buf[n-1]
	f.buf = f.buf[:n-1]
	return v
}

type slot struct {
	used     bool
	priority bool
	granted  bool // transient mark of the reference select (golden_test.go)
	req      Request
}

// New builds a queue.
func New(cfg Config) *Queue {
	if cfg.Size <= 0 {
		panic("iq: size must be positive")
	}
	if cfg.PriorityEntries < 0 || cfg.PriorityEntries > cfg.Size {
		panic("iq: priority entries out of range")
	}
	if cfg.PriorityEntries > 0 && cfg.Kind != Random {
		panic("iq: priority entries require the random queue")
	}
	if cfg.Flexible && (cfg.PriorityEntries > 0 || cfg.Kind != Random) {
		panic("iq: flexible select replaces priority entries and requires the random queue")
	}
	q := &Queue{
		cfg:       cfg,
		readyMask: make([]uint64, (cfg.Size+63)/64),
		posOf:     make([]int32, cfg.Size),
	}
	switch cfg.Kind {
	case Random, Circular:
		q.slots = make([]slot, cfg.Size)
	case Shifting:
		q.list = make([]Request, 0, cfg.Size)
	default:
		panic("iq: unknown kind")
	}
	if cfg.Kind == Random {
		q.freeNrm = newFreeList(0xC0FFEE)
		for i := cfg.PriorityEntries; i < cfg.Size; i++ {
			q.freeNrm.push(i)
		}
		q.freePri = newFreeList(0xBEEF)
		for i := 0; i < cfg.PriorityEntries; i++ {
			q.freePri.push(i)
		}
	}
	return q
}

// Size returns the configured capacity.
func (q *Queue) Size() int { return q.cfg.Size }

// Occupancy returns the number of queued instructions.
func (q *Queue) Occupancy() int { return q.count }

// PriorityFree returns the number of free priority entries.
func (q *Queue) PriorityFree() int { return q.freePri.len() }

// NormalFree returns the number of free normal entries (for the Random
// kind; other kinds report total free capacity).
func (q *Queue) NormalFree() int {
	switch q.cfg.Kind {
	case Random:
		return q.freeNrm.len()
	case Shifting:
		return q.cfg.Size - len(q.list)
	case Circular:
		if q.slots[q.tail].used {
			return 0 // tail blocked: holes behind it are unusable
		}
		return q.cfg.Size - q.count // approximation; dispatch may still block
	}
	return 0
}

// DispatchPriority places r into a priority entry (Random kind only).
func (q *Queue) DispatchPriority(r Request) bool {
	if q.freePri.len() == 0 {
		return false
	}
	pos := q.freePri.pop()
	q.slots[pos] = slot{used: true, priority: true, req: r}
	q.place(r.Handle, pos)
	q.count++
	return true
}

// DispatchNormal places r into a normal entry.
func (q *Queue) DispatchNormal(r Request) bool {
	switch q.cfg.Kind {
	case Random:
		if q.freeNrm.len() == 0 {
			return false
		}
		pos := q.freeNrm.pop()
		q.slots[pos] = slot{used: true, req: r}
		q.place(r.Handle, pos)
		q.count++
		return true
	case Shifting:
		if len(q.list) >= q.cfg.Size {
			return false
		}
		q.place(r.Handle, len(q.list))
		q.list = append(q.list, r)
		q.count++
		return true
	case Circular:
		if q.slots[q.tail].used {
			return false // tail blocked even if holes exist elsewhere
		}
		q.slots[q.tail] = slot{used: true, req: r}
		q.place(r.Handle, q.tail)
		q.tail = (q.tail + 1) % q.cfg.Size
		q.count++
		return true
	}
	return false
}

// DispatchWeighted implements the mode-switch-disabled policy (§III-B3):
// the two free lists are chosen by a random draw weighted by the entry
// ratio; if the drawn list is empty the other is used, so the full capacity
// remains available. pick must be uniform in [0,1).
func (q *Queue) DispatchWeighted(r Request, pick float64) bool {
	if q.cfg.Kind != Random {
		return q.DispatchNormal(r)
	}
	ratio := float64(q.cfg.PriorityEntries) / float64(q.cfg.Size)
	if pick < ratio {
		if q.DispatchPriority(r) {
			return true
		}
		return q.DispatchNormal(r)
	}
	if q.DispatchNormal(r) {
		return true
	}
	return q.DispatchPriority(r)
}

// MarkReady flags the queued request with this handle as ready to issue:
// from the next Select on it competes for a grant. The owner calls it when
// the request's last operand becomes available; readiness is monotone in
// the pipeline, so the bit stays set until the entry is granted. Marking a
// handle that is not queued panics — it means a lost or duplicated wakeup.
func (q *Queue) MarkReady(handle int) {
	pos, ok := q.find(handle)
	if !ok {
		panic(fmt.Sprintf("iq: MarkReady of unqueued handle %d", handle))
	}
	q.readyMask[pos>>6] |= 1 << (pos & 63)
}

// UnmarkReady clears a queued request's ready flag. The pipeline never
// needs it (operands do not become unavailable again); it serves callers
// that replay non-monotone readiness, such as the select differentials.
func (q *Queue) UnmarkReady(handle int) {
	pos, ok := q.find(handle)
	if !ok {
		panic(fmt.Sprintf("iq: UnmarkReady of unqueued handle %d", handle))
	}
	q.readyMask[pos>>6] &^= 1 << (pos & 63)
}

// Visit calls visit for every queued request in position-priority order,
// with its ready flag. It is the audit surface for the ready set (the
// pipeline's invariant sweep compares it against its operand predicate);
// it is not meant for the per-cycle path.
func (q *Queue) Visit(visit func(r Request, ready bool)) {
	if q.cfg.Kind == Shifting {
		for pos, r := range q.list {
			visit(r, q.isReady(pos))
		}
		return
	}
	for pos := range q.slots {
		if q.slots[pos].used {
			visit(q.slots[pos].req, q.isReady(pos))
		}
	}
}

func (q *Queue) isReady(pos int) bool { return q.readyMask[pos>>6]&(1<<(pos&63)) != 0 }

// place records a dispatched request's position in the handle index,
// growing it on first sight of a larger handle (steady state reuses it).
func (q *Queue) place(handle, pos int) {
	if handle >= len(q.posOf) {
		n := 2 * len(q.posOf)
		if n <= handle {
			n = handle + 1
		}
		q.posOf = append(q.posOf, make([]int32, n-len(q.posOf))...)
	}
	q.posOf[handle] = int32(pos)
}

// find returns the position of the queued request with this handle. The
// handle index is never cleared, so a hit is confirmed against the entry.
func (q *Queue) find(handle int) (int, bool) {
	if handle < 0 || handle >= len(q.posOf) {
		return 0, false
	}
	pos := int(q.posOf[handle])
	if q.cfg.Kind == Shifting {
		return pos, pos < len(q.list) && q.list[pos].Handle == handle
	}
	s := &q.slots[pos]
	return pos, s.used && s.req.Handle == handle
}

// Select grants up to issueWidth ready requests, honouring position-based
// priority (plus the age matrix when configured), and frees their entries.
// Only entries flagged by MarkReady compete; fuTryAlloc attempts to claim
// a function unit of the request's class and returns false when none is
// free this cycle.
//
// The returned slice aliases an internal buffer and is only valid until the
// next Select call on this queue.
func (q *Queue) Select(issueWidth int, fuTryAlloc func(fu int) bool) []Request {
	if issueWidth <= 0 || q.count == 0 {
		return nil
	}
	granted := q.grantBuf[:0]
	positions := q.posBuf[:0]

	if q.cfg.AgeMatrix {
		// The age matrix picks the single oldest ready instruction and
		// grants it ahead of the positional arbiter (§V-G1).
		oldest := -1
		var oldestSeq uint64
		for w, rb := range q.readyMask {
			for ; rb != 0; rb &= rb - 1 {
				pos := w<<6 + bits.TrailingZeros64(rb)
				if r := q.requestAt(pos); oldest == -1 || r.Seq < oldestSeq {
					oldest, oldestSeq = pos, r.Seq
				}
			}
		}
		if oldest >= 0 {
			r := q.requestAt(oldest)
			if fuTryAlloc(r.FU) {
				granted = append(granted, *r)
				positions = append(positions, oldest)
				// Consume the bit so the positional passes skip this grant.
				q.readyMask[oldest>>6] &^= 1 << (oldest & 63)
			}
		}
	}

	passes := 1
	if q.cfg.Flexible {
		// Idealized flexible priority: marked requests first, then the rest.
		passes = 2
	}
	for pass := 0; pass < passes; pass++ {
		wantMarked := q.cfg.Flexible && pass == 0
		any := !q.cfg.Flexible
		// Positional pass over the ready bitset, ascending, so grants come
		// in position-priority order; granted entries consume their bit.
		for w := 0; w < len(q.readyMask) && len(granted) < issueWidth; w++ {
			for rb := q.readyMask[w]; rb != 0 && len(granted) < issueWidth; rb &= rb - 1 {
				pos := w<<6 + bits.TrailingZeros64(rb)
				r := q.requestAt(pos)
				if !any && r.Marked != wantMarked {
					continue
				}
				if !fuTryAlloc(r.FU) {
					continue
				}
				q.readyMask[w] &^= 1 << (pos & 63)
				granted = append(granted, *r)
				positions = append(positions, pos)
			}
		}
	}

	// Free granted entries in descending position order: shifting-queue
	// compaction keeps earlier indices valid, and the free-list push order
	// is part of the deterministic placement RNG stream. Positions arrive
	// nearly sorted ascending, so the insertion sort is effectively linear.
	for i := 1; i < len(positions); i++ {
		p := positions[i]
		j := i - 1
		for j >= 0 && positions[j] < p {
			positions[j+1] = positions[j]
			j--
		}
		positions[j+1] = p
	}
	for _, p := range positions {
		q.removeAt(p)
	}
	q.grantBuf, q.posBuf = granted, positions
	return granted
}

// requestAt returns the queued request at a used position.
func (q *Queue) requestAt(pos int) *Request {
	if q.cfg.Kind == Shifting {
		return &q.list[pos]
	}
	return &q.slots[pos].req
}

// removeAt frees the entry at a known position.
func (q *Queue) removeAt(pos int) {
	switch q.cfg.Kind {
	case Random:
		s := &q.slots[pos]
		if !s.used {
			panic(fmt.Sprintf("iq: removeAt of free position %d", pos))
		}
		if s.priority {
			q.freePri.push(pos)
		} else {
			q.freeNrm.push(pos)
		}
		*s = slot{}
		q.readyMask[pos>>6] &^= 1 << (pos & 63)
		q.count--
	case Circular:
		s := &q.slots[pos]
		if !s.used {
			panic(fmt.Sprintf("iq: removeAt of free position %d", pos))
		}
		*s = slot{}
		q.readyMask[pos>>6] &^= 1 << (pos & 63)
		q.count--
	case Shifting:
		// Compaction: the younger entries, their handle index, and their
		// ready flags all move down one place.
		q.list = append(q.list[:pos], q.list[pos+1:]...)
		for i := pos; i < len(q.list); i++ {
			q.posOf[q.list[i].Handle] = int32(i)
		}
		dropBit(q.readyMask, pos)
		q.count--
	}
}

// dropBit deletes bit pos from a multi-word bitset, shifting every higher
// bit down one place.
func dropBit(m []uint64, pos int) {
	w, b := pos>>6, uint(pos&63)
	m[w] = m[w]&(1<<b-1) | m[w]>>(b+1)<<b
	for ; w+1 < len(m); w++ {
		m[w] |= m[w+1] << 63
		m[w+1] >>= 1
	}
}

// CheckInvariants audits the queue's structural state: occupancy within
// capacity and consistent with the slot/list contents, priority entries
// only in the reserved positions and never more than configured, free
// lists disjoint from used slots, no stale transient grant marks, ready
// bits only on queued entries, and a handle index that finds every queued
// entry. Violations wrap simerr.ErrInvariant.
func (q *Queue) CheckInvariants() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: iq(%s): %s", simerr.ErrInvariant, q.cfg.Kind, fmt.Sprintf(format, args...))
	}
	if q.count < 0 || q.count > q.cfg.Size {
		return bad("occupancy %d outside [0,%d]", q.count, q.cfg.Size)
	}
	for w, rb := range q.readyMask {
		for ; rb != 0; rb &= rb - 1 {
			pos := w<<6 + bits.TrailingZeros64(rb)
			if q.cfg.Kind == Shifting && pos >= len(q.list) || q.cfg.Kind != Shifting && !q.slots[pos].used {
				return bad("ready bit on empty position %d", pos)
			}
		}
	}
	var indexErr error
	q.Visit(func(r Request, _ bool) {
		if pos, ok := q.find(r.Handle); !ok && indexErr == nil {
			indexErr = bad("handle index lost queued handle %d (points at %d)", r.Handle, pos)
		}
	})
	if indexErr != nil {
		return indexErr
	}
	switch q.cfg.Kind {
	case Random, Circular:
		used, priority := 0, 0
		for pos := range q.slots {
			s := &q.slots[pos]
			if !s.used {
				if s.priority {
					return bad("free position %d still flagged priority", pos)
				}
				continue
			}
			used++
			if s.granted {
				return bad("position %d holds a stale grant mark", pos)
			}
			if s.priority {
				priority++
				if pos >= q.cfg.PriorityEntries {
					return bad("priority instruction in normal position %d", pos)
				}
			}
		}
		if used != q.count {
			return bad("occupancy %d but %d used slots", q.count, used)
		}
		if priority > q.cfg.PriorityEntries {
			return bad("%d priority entries in use, %d configured", priority, q.cfg.PriorityEntries)
		}
		if q.cfg.Kind == Random {
			if got, want := q.freePri.len()+priority, q.cfg.PriorityEntries; got != want {
				return bad("priority free list (%d) + used (%d) ≠ reserved (%d)", q.freePri.len(), priority, want)
			}
			if got, want := q.freeNrm.len()+(used-priority), q.cfg.Size-q.cfg.PriorityEntries; got != want {
				return bad("normal free list (%d) + used (%d) ≠ capacity (%d)", q.freeNrm.len(), used-priority, want)
			}
			for _, pos := range q.freePri.buf {
				if pos < 0 || pos >= q.cfg.PriorityEntries || q.slots[pos].used {
					return bad("priority free list holds invalid or used position %d", pos)
				}
			}
			for _, pos := range q.freeNrm.buf {
				if pos < q.cfg.PriorityEntries || pos >= q.cfg.Size || q.slots[pos].used {
					return bad("normal free list holds invalid or used position %d", pos)
				}
			}
		}
	case Shifting:
		if len(q.list) != q.count {
			return bad("occupancy %d but list length %d", q.count, len(q.list))
		}
		for i := 1; i < len(q.list); i++ {
			if q.list[i].Seq <= q.list[i-1].Seq {
				return bad("age order broken at position %d (seq %d after %d)", i, q.list[i].Seq, q.list[i-1].Seq)
			}
		}
	}
	return nil
}

// Drain empties the queue (used on pipeline reconfiguration in tests).
func (q *Queue) Drain() {
	*q = *New(q.cfg)
}

// Reset restores the freshly-constructed state without reallocating: slots
// and masks cleared, free lists rebuilt with their construction seeds and
// push order so the deterministic random placement sequence restarts
// identically.
func (q *Queue) Reset() {
	for i := range q.slots {
		q.slots[i] = slot{}
	}
	q.list = q.list[:0]
	clear(q.readyMask)
	q.count = 0
	q.tail = 0
	if q.cfg.Kind == Random {
		q.freeNrm.buf = q.freeNrm.buf[:0]
		q.freeNrm.rng = 0xC0FFEE
		for i := q.cfg.PriorityEntries; i < q.cfg.Size; i++ {
			q.freeNrm.push(i)
		}
		q.freePri.buf = q.freePri.buf[:0]
		q.freePri.rng = 0xBEEF
		for i := 0; i < q.cfg.PriorityEntries; i++ {
			q.freePri.push(i)
		}
	}
}

// Kind returns the queue organisation.
func (q *Queue) Kind() Kind { return q.cfg.Kind }

// PriorityEntries returns the number of reserved head entries.
func (q *Queue) PriorityEntries() int { return q.cfg.PriorityEntries }

// AgeMatrixDelayFactor is the paper's measured IQ-delay increase from adding
// an age matrix (§V-G1: +13% from the HSPICE layout study). Experiments use
// it to convert AGE IPC into performance (Fig. 15b).
const AgeMatrixDelayFactor = 1.13
