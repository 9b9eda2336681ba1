package bpred

// BTB is a set-associative branch target buffer (Table I: 2K sets, 4-way)
// with true-LRU replacement. The front end needs a BTB hit to redirect fetch
// to a taken target in the same cycle; a miss costs a decode-time redirect
// bubble.
type BTB struct {
	sets    int
	ways    int
	entries []btbEntry // sets × ways, row-major
	tick    uint64
}

type btbEntry struct {
	valid  bool
	tag    uint64
	target uint64
	lru    uint64
}

// NewBTB returns a BTB with the given geometry. sets must be a power of two.
func NewBTB(sets, ways int) *BTB {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("bpred: BTB sets must be a positive power of two")
	}
	if ways <= 0 {
		panic("bpred: BTB ways must be positive")
	}
	return &BTB{sets: sets, ways: ways, entries: make([]btbEntry, sets*ways)}
}

// DefaultBTB returns the paper's 2K-set 4-way BTB.
func DefaultBTB() *BTB { return NewBTB(2048, 4) }

func (b *BTB) row(pc uint64) (base int, tag uint64) {
	idx := (pc >> 2) & uint64(b.sets-1)
	return int(idx) * b.ways, (pc >> 2) / uint64(b.sets)
}

// Lookup returns the stored target for pc, if present.
func (b *BTB) Lookup(pc uint64) (target uint64, hit bool) {
	base, tag := b.row(pc)
	b.tick++
	for i := 0; i < b.ways; i++ {
		e := &b.entries[base+i]
		if e.valid && e.tag == tag {
			e.lru = b.tick
			return e.target, true
		}
	}
	return 0, false
}

// Insert records (pc → target), replacing the LRU way on a conflict.
func (b *BTB) Insert(pc, target uint64) {
	base, tag := b.row(pc)
	b.tick++
	victim := base
	for i := 0; i < b.ways; i++ {
		e := &b.entries[base+i]
		if e.valid && e.tag == tag {
			e.target = target
			e.lru = b.tick
			return
		}
		if !e.valid {
			victim = base + i
			break
		}
		if e.lru < b.entries[victim].lru {
			victim = base + i
		}
	}
	b.entries[victim] = btbEntry{valid: true, tag: tag, target: target, lru: b.tick}
}

// CostBytes approximates storage: each entry holds a ~50-bit tag+target pair.
func (b *BTB) CostBytes() int { return b.sets * b.ways * 8 }

// Reset invalidates every entry.
func (b *BTB) Reset() {
	for i := range b.entries {
		b.entries[i] = btbEntry{}
	}
	b.tick = 0
}

// RAS is a fixed-depth return address stack with wrap-around overwrite, used
// to predict Jr-through-link returns.
type RAS struct {
	stack []uint64
	top   int
	depth int
}

// NewRAS returns a return-address stack with n entries.
func NewRAS(n int) *RAS {
	if n <= 0 {
		panic("bpred: RAS depth must be positive")
	}
	return &RAS{stack: make([]uint64, n)}
}

// Push records a return address (on Jal).
func (r *RAS) Push(addr uint64) {
	r.stack[r.top] = addr
	r.top = (r.top + 1) % len(r.stack)
	if r.depth < len(r.stack) {
		r.depth++
	}
}

// Pop predicts the next return address (on Jr via the link register).
func (r *RAS) Pop() (addr uint64, ok bool) {
	if r.depth == 0 {
		return 0, false
	}
	r.top = (r.top - 1 + len(r.stack)) % len(r.stack)
	r.depth--
	return r.stack[r.top], true
}

// Reset empties the stack.
func (r *RAS) Reset() {
	for i := range r.stack {
		r.stack[i] = 0
	}
	r.top = 0
	r.depth = 0
}
