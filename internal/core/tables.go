// Package core implements the PUBS scheme — the paper's primary
// contribution: predicting whether each decoding instruction belongs to an
// unconfident branch slice (§III-A), the hardware-cost-reduced table
// organisation with XOR-folded hashed tags (§IV), and the MPKI-driven mode
// switch (§III-B3). The issue-queue priority entries themselves live in
// internal/iq; this package produces the per-instruction "unconfident"
// decision the dispatch stage consumes.
package core

import (
	"fmt"

	"repro/internal/simerr"
)

// Ptr is a compressed pointer into a set-associative table: the paper's
// c = i ‖ t data (index concatenated with hashed tag, Fig. 6).
type Ptr struct {
	Idx   uint32 // set index
	Tag   uint32 // hashed tag
	Valid bool
}

// splitPC divides a PC into a set index and the remaining tag portion.
// PCs are word addresses, so the low two bits are dropped first.
func splitPC(pc uint64, sets int) (idx uint32, tagPart uint64) {
	w := pc >> 2
	return uint32(w & uint64(sets-1)), w / uint64(sets)
}

// FoldTag XOR-folds the tag portion of a PC into `bits` bits (Fig. 7). The
// paper finds fold widths of 8 (brslice_tab) and 4 (conf_tab) lose almost
// no performance while slashing storage. bits == 0 yields a constant tag
// (the tagless organisation of §IV).
func FoldTag(tagPart uint64, bits int) uint32 {
	if bits <= 0 {
		return 0
	}
	if bits > 32 {
		bits = 32
	}
	mask := uint64(1)<<bits - 1
	var h uint64
	for tagPart != 0 {
		h ^= tagPart & mask
		tagPart >>= uint(bits)
	}
	return uint32(h)
}

// Confidence is the tri-state result of a confidence lookup.
type Confidence uint8

const (
	// ConfUnknown: no entry allocated — treated as confident (§III-A3).
	ConfUnknown Confidence = iota
	// ConfConfident: counter saturated at its maximum.
	ConfConfident
	// ConfUnconfident: counter below maximum.
	ConfUnconfident
)

func (c Confidence) String() string {
	switch c {
	case ConfConfident:
		return "confident"
	case ConfUnconfident:
		return "unconfident"
	default:
		return "unknown"
	}
}

// ConfTable is the conf_tab: a set-associative table of JRS saturating
// *resetting* counters, indexed by branch PC, with XOR-folded tags.
type ConfTable struct {
	sets        int
	ways        int
	counterMax  uint8
	counterBits int
	tagBits     int
	blind       bool
	entries     []confEntry
	tick        uint64
}

type confEntry struct {
	valid   bool
	tag     uint32
	counter uint8
	lru     uint64
}

// NewConfTable builds a conf_tab. counterBits selects the resetting-counter
// width (paper sweeps 2..8, optimum 6). blind makes every branch estimate
// unconfident without consulting counters (the "blind" bar of Fig. 11).
func NewConfTable(sets, ways, counterBits, tagBits int, blind bool) *ConfTable {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("core: conf_tab sets must be a positive power of two")
	}
	if ways <= 0 {
		panic("core: conf_tab ways must be positive")
	}
	if counterBits < 1 || counterBits > 8 {
		panic(fmt.Sprintf("core: conf_tab counter bits %d out of range [1,8]", counterBits))
	}
	var max uint8
	if counterBits == 8 {
		max = 255
	} else {
		max = uint8(1)<<counterBits - 1
	}
	return &ConfTable{
		sets:        sets,
		ways:        ways,
		counterMax:  max,
		counterBits: counterBits,
		tagBits:     tagBits,
		blind:       blind,
		entries:     make([]confEntry, sets*ways),
	}
}

// PointerFor returns the c_C pointer (index ‖ hashed tag) that brslice_tab
// entries store to reach this branch's confidence counter.
func (t *ConfTable) PointerFor(pc uint64) Ptr {
	idx, tagPart := splitPC(pc, t.sets)
	return Ptr{Idx: idx, Tag: FoldTag(tagPart, t.tagBits), Valid: true}
}

func (t *ConfTable) find(p Ptr) *confEntry {
	base := int(p.Idx) * t.ways
	for i := 0; i < t.ways; i++ {
		e := &t.entries[base+i]
		if e.valid && e.tag == p.Tag {
			return e
		}
	}
	return nil
}

// LookupPC estimates the confidence of the branch at pc (decode time).
func (t *ConfTable) LookupPC(pc uint64) Confidence {
	return t.LookupPtr(t.PointerFor(pc))
}

// LookupPtr estimates confidence through a stored c_C pointer.
func (t *ConfTable) LookupPtr(p Ptr) Confidence {
	if !p.Valid {
		return ConfUnknown
	}
	if t.blind {
		return ConfUnconfident
	}
	e := t.find(p)
	if e == nil {
		return ConfUnknown
	}
	if e.counter >= t.counterMax {
		return ConfConfident
	}
	return ConfUnconfident
}

// Update learns from an executed branch (§III-A1): allocate on first sight
// (counter = max if predicted correctly, else 0); otherwise saturating
// increment on correct, reset to 0 on incorrect.
func (t *ConfTable) Update(pc uint64, correct bool) {
	if t.blind {
		return
	}
	p := t.PointerFor(pc)
	t.tick++
	if e := t.find(p); e != nil {
		e.lru = t.tick
		if correct {
			if e.counter < t.counterMax {
				e.counter++
			}
		} else {
			e.counter = 0
		}
		return
	}
	// Allocate, replacing LRU.
	base := int(p.Idx) * t.ways
	victim := base
	for i := 0; i < t.ways; i++ {
		e := &t.entries[base+i]
		if !e.valid {
			victim = base + i
			break
		}
		if e.lru < t.entries[victim].lru {
			victim = base + i
		}
	}
	var c uint8
	if correct {
		c = t.counterMax
	}
	t.entries[victim] = confEntry{valid: true, tag: p.Tag, counter: c, lru: t.tick}
}

// Reset invalidates every entry.
func (t *ConfTable) Reset() {
	for i := range t.entries {
		t.entries[i] = confEntry{}
	}
	t.tick = 0
}

// CostBits returns the storage of the table in bits: per entry one valid
// bit, the hashed tag, and the counter.
func (t *ConfTable) CostBits() int {
	return t.sets * t.ways * (1 + t.tagBits + t.counterBits)
}

// BrsliceTable is the brslice_tab: a set-associative table indexed by the PC
// of a (potential) slice instruction, whose payload is the c_C pointer to
// the associated branch's conf_tab entry.
type BrsliceTable struct {
	sets        int
	ways        int
	tagBits     int
	confPtrBits int // payload width, for cost accounting
	entries     []sliceEntry
	tick        uint64
}

type sliceEntry struct {
	valid bool
	tag   uint32
	ptr   Ptr // pointer into conf_tab
	lru   uint64
}

// NewBrsliceTable builds a brslice_tab. confPtrBits is the stored pointer
// width (log2(conf sets) + conf tag bits), used only for cost accounting.
func NewBrsliceTable(sets, ways, tagBits, confPtrBits int) *BrsliceTable {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("core: brslice_tab sets must be a positive power of two")
	}
	if ways <= 0 {
		panic("core: brslice_tab ways must be positive")
	}
	return &BrsliceTable{
		sets:        sets,
		ways:        ways,
		tagBits:     tagBits,
		confPtrBits: confPtrBits,
		entries:     make([]sliceEntry, sets*ways),
	}
}

// PointerFor returns the c_B pointer stored in def_tab for an instruction at
// pc, so later consumers can insert into this instruction's brslice_tab row.
func (t *BrsliceTable) PointerFor(pc uint64) Ptr {
	idx, tagPart := splitPC(pc, t.sets)
	return Ptr{Idx: idx, Tag: FoldTag(tagPart, t.tagBits), Valid: true}
}

// Lookup returns the conf_tab pointer linked to the instruction at pc.
func (t *BrsliceTable) Lookup(pc uint64) (Ptr, bool) {
	p := t.PointerFor(pc)
	base := int(p.Idx) * t.ways
	t.tick++
	for i := 0; i < t.ways; i++ {
		e := &t.entries[base+i]
		if e.valid && e.tag == p.Tag {
			e.lru = t.tick
			return e.ptr, true
		}
	}
	return Ptr{}, false
}

// Insert links the instruction identified by cB to the branch confidence
// entry identified by cC (mark (2)/(3) in Fig. 3).
func (t *BrsliceTable) Insert(cB, cC Ptr) {
	if !cB.Valid || !cC.Valid {
		return
	}
	base := int(cB.Idx) * t.ways
	t.tick++
	victim := base
	for i := 0; i < t.ways; i++ {
		e := &t.entries[base+i]
		if e.valid && e.tag == cB.Tag {
			e.ptr = cC
			e.lru = t.tick
			return
		}
		if !e.valid {
			victim = base + i
			break
		}
		if e.lru < t.entries[victim].lru {
			victim = base + i
		}
	}
	t.entries[victim] = sliceEntry{valid: true, tag: cB.Tag, ptr: cC, lru: t.tick}
}

// Reset invalidates every entry.
func (t *BrsliceTable) Reset() {
	for i := range t.entries {
		t.entries[i] = sliceEntry{}
	}
	t.tick = 0
}

// CostBits returns the table storage in bits: per entry one valid bit, the
// hashed tag, and the conf_tab pointer payload.
func (t *BrsliceTable) CostBits() int {
	return t.sets * t.ways * (1 + t.tagBits + t.confPtrBits)
}

// DefTable is the def_tab: one row per logical register (64), holding the
// c_B pointer of the instruction that most recently wrote the register.
// It is a full-size (non-tagged) table because the register space is tiny.
type DefTable struct {
	rows    []Ptr
	ptrBits int // c_B width, for cost accounting
}

// NewDefTable builds a def_tab with `regs` rows whose entries are ptrBits
// wide.
func NewDefTable(regs, ptrBits int) *DefTable {
	return &DefTable{rows: make([]Ptr, regs), ptrBits: ptrBits}
}

// Write records that the instruction with pointer cB wrote register r.
func (t *DefTable) Write(r int, cB Ptr) {
	if r <= 0 || r >= len(t.rows) { // register 0 is hardwired zero
		return
	}
	t.rows[r] = cB
}

// Read returns the c_B pointer of the last writer of register r.
func (t *DefTable) Read(r int) (Ptr, bool) {
	if r <= 0 || r >= len(t.rows) {
		return Ptr{}, false
	}
	p := t.rows[r]
	return p, p.Valid
}

// Reset clears every row.
func (t *DefTable) Reset() {
	for i := range t.rows {
		t.rows[i] = Ptr{}
	}
}

// CostBits returns def_tab storage: rows × (valid + pointer).
func (t *DefTable) CostBits() int { return len(t.rows) * (1 + t.ptrBits) }

// ---------------------------------------------------- invariant checking

// tagLimit returns the exclusive upper bound of a `bits`-wide hashed tag.
func tagLimit(bits int) uint64 {
	if bits <= 0 {
		return 1 // tagless tables fold every tag to 0
	}
	if bits > 32 {
		bits = 32
	}
	return uint64(1) << bits
}

// checkPtr validates one stored pointer against the geometry of the table
// it points into.
func checkPtr(what string, p Ptr, sets int, tagBits int) error {
	if !p.Valid {
		return nil
	}
	if int(p.Idx) >= sets {
		return fmt.Errorf("%w: core: %s index %d outside %d sets", simerr.ErrInvariant, what, p.Idx, sets)
	}
	if uint64(p.Tag) >= tagLimit(tagBits) {
		return fmt.Errorf("%w: core: %s tag %#x wider than %d bits", simerr.ErrInvariant, what, p.Tag, tagBits)
	}
	return nil
}

// CheckInvariants audits conf_tab state: counters within the configured
// saturation value and tags within the fold width.
func (t *ConfTable) CheckInvariants() error {
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid {
			continue
		}
		if e.counter > t.counterMax {
			return fmt.Errorf("%w: core: conf_tab counter %d above max %d", simerr.ErrInvariant, e.counter, t.counterMax)
		}
		if uint64(e.tag) >= tagLimit(t.tagBits) {
			return fmt.Errorf("%w: core: conf_tab tag %#x wider than %d bits", simerr.ErrInvariant, e.tag, t.tagBits)
		}
	}
	return nil
}

// CheckInvariants audits brslice_tab state: own tags within the fold width
// and every stored c_C pointer addressing a real conf_tab set/tag.
func (t *BrsliceTable) CheckInvariants(confSets, confTagBits int) error {
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid {
			continue
		}
		if uint64(e.tag) >= tagLimit(t.tagBits) {
			return fmt.Errorf("%w: core: brslice_tab tag %#x wider than %d bits", simerr.ErrInvariant, e.tag, t.tagBits)
		}
		if err := checkPtr("brslice_tab→conf_tab pointer", e.ptr, confSets, confTagBits); err != nil {
			return err
		}
	}
	return nil
}

// CheckInvariants audits def_tab state: every stored c_B pointer must
// address a real brslice_tab set/tag.
func (t *DefTable) CheckInvariants(sliceSets, sliceTagBits int) error {
	for r := range t.rows {
		if err := checkPtr("def_tab→brslice_tab pointer", t.rows[r], sliceSets, sliceTagBits); err != nil {
			return err
		}
	}
	return nil
}
