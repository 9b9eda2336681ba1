package sampling

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/emu"
	"repro/internal/isa"
)

// Window is one placed measurement window: where in the dynamic
// instruction stream it starts and the architectural snapshot that seeds
// its detailed simulation. Placement is purely functional — it depends on
// the program and the plan geometry only, never on a machine
// configuration — which is what makes windows shareable across every
// machine variant of a sweep and executable in any order.
type Window struct {
	Index     int    // position in the plan, 0-based
	StartInst uint64 // instruction count at the start of the window's warm-up
	Snap      *emu.Snapshot

	// Pre is the window's predecoded trace: the detailed (warm-up +
	// measure) instruction stream plus replaySlack of tail slack, recorded
	// during the same functional pass that placed the window. Immutable
	// once planned — one buffer feeds every machine variant of a sweep
	// concurrently. Nil only for a peer plan sent without a trace; such a
	// window replays on a live emulator restored from Snap.
	Pre *emu.Predecode
}

// replaySlack is how many instructions past the detailed region the planner
// records. The timing front end overfetches past the last committed
// instruction by at most the fetch queue plus the ROB (≲600 even on the
// "huge" machines), so 2048 keeps every replay on the trace; a hypothetical
// overrun falls back to a live emulator stream, changing nothing but speed.
const replaySlack = 2048

// PlanWindows fast-forwards the functional emulator once through the
// program, snapshotting at each window start and functionally skipping the
// detailed (warm-up + measure) region so the next window begins where a
// serial detailed run would leave off. A program that halts during a
// fast-forward gap truncates the plan; one that halts inside a window's
// detailed region keeps that window (it may still measure a partial tail)
// and truncates the rest. The context is checked between windows.
func PlanWindows(ctx context.Context, prog *isa.Program, plan Config) ([]Window, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	m, err := emu.New(prog)
	if err != nil {
		return nil, err
	}
	detailed := plan.Warmup + plan.Measure
	var windows []Window
	for w := 0; w < plan.Windows; w++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sampling: planning window %d: %w", w, err)
		}
		if plan.FastForward > 0 {
			if ran := m.Run(plan.FastForward); ran < plan.FastForward {
				break // program halted during fast-forward
			}
		}
		if m.Done() {
			break
		}
		win := Window{Index: w, StartInst: m.Seq(), Snap: m.Snapshot()}
		// The same pass that skips the detailed region records it (plus
		// tail slack for the front end's bounded overfetch) into the
		// window's predecode buffer.
		rec := emu.NewPredecode(int(detailed) + replaySlack)
		full := true
		for k := uint64(0); k < detailed; k++ {
			di, ok := m.Step()
			if !ok {
				full = false
				break
			}
			rec.Append(di)
		}
		win.Pre = rec
		windows = append(windows, win)
		if !full {
			break // program ends inside this window; no windows follow
		}
		// Record the slack, then rewind the placement machine to the end of
		// the detailed region so the next window starts exactly where a
		// serial detailed run would leave off.
		tail := m.Snapshot()
		for k := 0; k < replaySlack; k++ {
			di, ok := m.Step()
			if !ok {
				break
			}
			rec.Append(di)
		}
		m, err = emu.NewFromSnapshot(prog, tail)
		if err != nil {
			return nil, fmt.Errorf("sampling: planning window %d: %w", w, err)
		}
	}
	return windows, nil
}

// planKey content-addresses a (program, plan geometry) pair. The hash
// covers the program's actual content — code, data image, memory size,
// entry point — not its name, because workload programs are rebuilt per
// call and custom programs may share names. Parallel is excluded: it
// cannot change placement.
func planKey(prog *isa.Program, plan Config) string {
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(len(prog.Code)))
	for _, in := range prog.Code {
		word(uint64(in.Op)<<32 | uint64(in.Rd)<<16 | uint64(in.Rs1)<<8 | uint64(in.Rs2))
		word(uint64(in.Imm))
	}
	word(uint64(len(prog.Data)))
	h.Write(prog.Data)
	word(uint64(prog.MemSize))
	word(uint64(prog.Entry))
	word(uint64(plan.Windows))
	word(plan.FastForward)
	word(plan.Warmup)
	word(plan.Measure)
	// A slack change invalidates recorded traces. The leading zero word
	// keeps keys stable from when plans could also be made without traces.
	word(0)
	word(replaySlack)
	return hex.EncodeToString(h.Sum(nil))
}

// StoreStats counts what a Store actually computed, shared, and holds.
type StoreStats struct {
	Plans         uint64 // fast-forward passes executed locally
	PeerPlans     uint64 // plans fetched from a PlanSource or installed by Adopt instead of computed
	Hits          uint64 // requests answered from an existing (or in-flight) plan
	Evictions     uint64 // completed plans dropped to stay within the byte budget
	ResidentBytes int64  // snapshot + predecode + memoized wire bytes currently held
	ResidentPlans int    // completed plans currently held
}

// PlanSource is the store's remote-plan seam: given a plan content key it
// returns ready-made windows (for example decoded from a peer's serialized
// plan) or reports a miss. It is called inside the store's singleflight
// critical section for the key — concurrent requests for the same plan
// share one fetch exactly as they share one functional pass — so it must
// not call back into the same store.
type PlanSource func(ctx context.Context, key string) ([]Window, bool)

// Store is a content-addressed cache of placed windows with singleflight
// deduplication: concurrent requests for the same (program, plan geometry)
// pair — every machine variant of a grid sweep — share one functional
// fast-forward pass. Snapshots and predecode buffers are immutable, so the
// cached windows are handed out by reference to any number of concurrent
// detailed runs.
//
// A byte budget (NewStoreBudget) bounds the resident footprint with LRU
// eviction over *completed* plans only: an entry is linked into the LRU
// list when its planning pass finishes, so an in-flight singleflight plan —
// and every caller blocked on it — can never be evicted mid-computation.
// Eviction removes the entry from the map; callers already holding its
// windows keep them (immutability + GC make that safe), and the next
// request for the key replans. The most recently used plan always stays
// resident even when it alone exceeds the budget, so a working set of one
// cannot thrash. An entry's memoized wire form (Encoded, Adopt) counts in
// its bytes and leaves with it.
type Store struct {
	mu        sync.Mutex
	entries   map[string]*storeEntry
	budget    int64 // max resident bytes; 0 = unbounded
	resident  int64
	plans     uint64
	peerPlans uint64
	hits      uint64
	evictions uint64
	// Intrusive LRU list over completed entries; lruHead is most recent.
	lruHead, lruTail *storeEntry

	// Plan-exchange seams (WithPlanExchange). fetch is tried on a miss
	// before paying the functional pass; planned fires after a successful
	// *local* pass (never for adopted plans, so plans cannot echo around a
	// ring). Both are read without the lock — set them before first use.
	fetch   PlanSource
	planned func(key string)
}

type storeEntry struct {
	key     string
	done    chan struct{}
	windows []Window
	err     error

	// wire memoizes the serialized plan: the bytes Adopt received, or the
	// one encoding pass Encoded runs under encode.
	wire   []byte
	encode sync.Once

	bytes      int64
	prev, next *storeEntry
	inLRU      bool
}

// NewStore returns an empty, unbounded window store.
func NewStore() *Store {
	return &Store{entries: make(map[string]*storeEntry)}
}

// NewStoreBudget returns a window store bounded to roughly maxBytes of
// resident snapshot + predecode data. maxBytes <= 0 means unbounded.
func NewStoreBudget(maxBytes int64) *Store {
	s := NewStore()
	s.budget = maxBytes
	return s
}

// WithPlanExchange installs the store's cluster seams and returns the
// store. fetch (may be nil) is consulted on every miss before planning
// locally; planned (may be nil) is invoked — outside the store lock, after
// waiters are released — with the key of every successful local pass, whose
// wire form Encoded then serves. Call before the store is shared between
// goroutines.
func (s *Store) WithPlanExchange(fetch PlanSource, planned func(key string)) *Store {
	s.fetch = fetch
	s.planned = planned
	return s
}

// windowsBytes accounts one plan's resident footprint: every window's
// dirty-page snapshot plus its predecode buffer.
func windowsBytes(ws []Window) int64 {
	var b int64
	for _, w := range ws {
		if w.Snap != nil {
			b += int64(w.Snap.MemBytes())
		}
		if w.Pre != nil {
			b += w.Pre.Bytes()
		}
	}
	return b
}

// ready reports whether e finished planning successfully. Once done is
// closed, err is immutable.
func (e *storeEntry) ready() bool {
	select {
	case <-e.done:
		return e.err == nil
	default:
		return false
	}
}

// admit makes a completed entry resident: it is accounted, linked at the
// head of the LRU list and, from now on, evictable. Caller holds mu.
func (s *Store) admit(e *storeEntry) {
	e.bytes = windowsBytes(e.windows) + int64(len(e.wire))
	s.resident += e.bytes
	s.pushMRU(e)
	s.evict()
}

// pushMRU links a completed entry at the head of the LRU list. Caller holds mu.
func (s *Store) pushMRU(e *storeEntry) {
	e.inLRU = true
	e.prev = nil
	e.next = s.lruHead
	if s.lruHead != nil {
		s.lruHead.prev = e
	}
	s.lruHead = e
	if s.lruTail == nil {
		s.lruTail = e
	}
}

// unlink removes e from the LRU list. Caller holds mu.
func (s *Store) unlink(e *storeEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
	e.inLRU = false
}

// touch moves a resident entry to most-recently-used. Caller holds mu.
func (s *Store) touch(e *storeEntry) {
	if !e.inLRU || s.lruHead == e {
		return
	}
	s.unlink(e)
	s.pushMRU(e)
}

// evict drops least-recently-used completed plans until the budget holds,
// always keeping the MRU entry. Caller holds mu.
func (s *Store) evict() {
	if s.budget <= 0 {
		return
	}
	for s.resident > s.budget && s.lruTail != nil && s.lruTail != s.lruHead {
		e := s.lruTail
		s.unlink(e)
		delete(s.entries, e.key)
		s.resident -= e.bytes
		s.evictions++
	}
}

// Windows returns the placed windows for (prog, plan), computing them at
// most once per content key. Concurrent callers for the same key block on
// the first caller's fast-forward; a failed computation (for example a
// cancelled context) is not cached, so later callers retry rather than
// inherit the failure.
func (s *Store) Windows(ctx context.Context, prog *isa.Program, plan Config) ([]Window, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	key := planKey(prog, plan)
	for {
		s.mu.Lock()
		e, ok := s.entries[key]
		if !ok {
			e = &storeEntry{key: key, done: make(chan struct{})}
			s.entries[key] = e
			s.mu.Unlock()
			// Inside the singleflight critical section: try to adopt the
			// plan from a peer before paying the functional pass. Everything
			// queued behind e.done shares whichever path wins.
			adopted := false
			if s.fetch != nil {
				if ws, hit := s.fetch(ctx, key); hit {
					e.windows, adopted = ws, true
				}
			}
			if !adopted {
				s.mu.Lock()
				s.plans++ // local passes only — adopted plans cost no fast-forward
				s.mu.Unlock()
				e.windows, e.err = PlanWindows(ctx, prog, plan)
			}
			s.mu.Lock()
			if e.err != nil {
				delete(s.entries, key)
			} else {
				if adopted {
					s.peerPlans++
				}
				// The plan becomes evictable only now that it is complete;
				// waiters blocked on done still hold e and its windows.
				s.admit(e)
			}
			s.mu.Unlock()
			close(e.done)
			if e.err == nil && !adopted && s.planned != nil {
				// Announce the fresh local plan (proactive push) after
				// waiters are released; adopted plans are never re-announced.
				s.planned(key)
			}
			return e.windows, e.err
		}
		s.touch(e)
		s.mu.Unlock()
		select {
		case <-e.done:
			if e.err == nil {
				s.mu.Lock()
				s.hits++
				s.mu.Unlock()
				return e.windows, nil
			}
			// The computing caller failed; retry unless we are cancelled too.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{
		Plans:         s.plans,
		PeerPlans:     s.peerPlans,
		Hits:          s.hits,
		Evictions:     s.evictions,
		ResidentBytes: s.resident,
	}
	for e := s.lruHead; e != nil; e = e.next {
		st.ResidentPlans++
	}
	return st
}

// Len returns the number of cached plans.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Adopt installs a plan computed elsewhere (a peer's proactive push) under
// key, memoizing wire, the serialized form it arrived as, so serving it on
// costs no re-encode. The entry is complete and resident like a local plan:
// LRU-linked, budgeted (wire bytes included) and counted in PeerPlans. Any
// existing entry for key, complete or in flight, wins, and Adopt changes
// nothing. The caller vouches that ws is the plan key addresses, as
// DecodePlan's content hash does.
func (s *Store) Adopt(key string, ws []Window, wire []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[key]; ok {
		return
	}
	e := &storeEntry{key: key, done: make(chan struct{}), windows: ws, wire: wire}
	close(e.done)
	s.entries[key] = e
	s.peerPlans++
	s.admit(e)
}

// Encoded returns the serialized resident plan for key, if one has
// completed. Each entry is encoded at most once; the bytes are memoized on
// it, count against the budget and are evicted with the plan. In-flight
// plans report a miss rather than block — the peer answer path is
// cache-only by design (a fetch that could trigger planning on the serving
// node would let two nodes plan for each other in a loop). Serving a plan
// counts as a use for LRU purposes.
func (s *Store) Encoded(key string) ([]byte, bool) {
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok || !e.ready() {
		s.mu.Unlock()
		return nil, false
	}
	s.touch(e)
	s.mu.Unlock()
	e.encode.Do(func() {
		if e.wire != nil {
			return // adopted with its wire form
		}
		data, err := EncodePlan(e.windows)
		if err != nil {
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		e.wire = data
		if e.inLRU { // still resident: the memo joins its budget
			e.bytes += int64(len(data))
			s.resident += int64(len(data))
			s.evict()
		}
	})
	return e.wire, e.wire != nil
}

// Has reports whether a completed plan for key is resident, without
// serializing it or counting a use.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	return ok && e.ready()
}
