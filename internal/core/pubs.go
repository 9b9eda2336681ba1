package core

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/simerr"
)

// Config holds every PUBS parameter (the paper's Table II plus the knobs
// its sensitivity studies sweep).
type Config struct {
	// Enable turns the whole scheme on. When false the pipeline behaves as
	// the base machine (uniform random-queue IQ).
	Enable bool

	// PriorityEntries is the number of IQ head entries reserved for
	// unconfident-slice instructions (Fig. 10 optimum: 6).
	PriorityEntries int

	// StallDispatch selects the dispatch policy when no priority entry is
	// free for an unconfident-slice instruction: true stalls dispatch (the
	// paper's better-performing default), false falls back to a normal
	// entry (the "non-stall" bars of Fig. 10).
	StallDispatch bool

	// FlexibleSelect replaces the priority-entry partition with the
	// idealized §III-C1 select logic that ranks unconfident-slice requests
	// first regardless of queue position. The paper deems the circuit
	// impractical; it is modelled as an upper bound on the partitioned
	// design (no reserved entries, no dispatch stalls).
	FlexibleSelect bool

	// conf_tab geometry (§IV): set-associative, hashed 4-bit tags, 6-bit
	// resetting counters by default.
	ConfSets        int
	ConfWays        int
	ConfCounterBits int
	ConfTagBits     int

	// Blind estimates every branch unconfident, eliminating conf_tab (the
	// rightmost bar of Fig. 11).
	Blind bool

	// brslice_tab geometry (§IV): set-associative, hashed 8-bit tags.
	SliceSets    int
	SliceWays    int
	SliceTagBits int

	// Tagless drops the tags from both tables (the §IV preliminary
	// evaluation found this performs worse than set-associative+tags).
	Tagless bool

	// Mode switching (§III-B3): PUBS is enabled only while the observed LLC
	// MPKI over the sampling window stays below the threshold.
	ModeSwitch        bool
	ModeWindowInsts   uint64
	ModeThresholdMPKI float64
}

// DefaultConfig returns the paper's PUBS parameters (Table II): 6 priority
// entries with the stall policy, a 1K-entry 4-way conf_tab with 6-bit
// resetting counters and 4-bit hashed tags, a 1K-entry 4-way brslice_tab
// with 8-bit hashed tags, and mode switching at 1.0 LLC MPKI sampled every
// 20K instructions. Total cost ≈ 4.0 KB (Table III).
func DefaultConfig() Config {
	return Config{
		Enable:            true,
		PriorityEntries:   6,
		StallDispatch:     true,
		ConfSets:          256,
		ConfWays:          4,
		ConfCounterBits:   6,
		ConfTagBits:       4,
		SliceSets:         256,
		SliceWays:         4,
		SliceTagBits:      8,
		ModeSwitch:        true,
		ModeWindowInsts:   20_000,
		ModeThresholdMPKI: 1.0,
	}
}

// Validate checks the configuration. Rejections wrap
// simerr.ErrInvalidConfig.
func (c Config) Validate() error {
	if !c.Enable {
		return nil
	}
	invalid := func(format string, args ...any) error {
		return fmt.Errorf("%w: core: %s", simerr.ErrInvalidConfig, fmt.Sprintf(format, args...))
	}
	if c.PriorityEntries < 0 {
		return invalid("negative priority entries")
	}
	if c.ConfSets <= 0 || c.ConfSets&(c.ConfSets-1) != 0 {
		return invalid("ConfSets must be a positive power of two")
	}
	if c.SliceSets <= 0 || c.SliceSets&(c.SliceSets-1) != 0 {
		return invalid("SliceSets must be a positive power of two")
	}
	if c.ConfWays <= 0 || c.SliceWays <= 0 {
		return invalid("table ways must be positive")
	}
	if !c.Blind && (c.ConfCounterBits < 1 || c.ConfCounterBits > 8) {
		return invalid("ConfCounterBits %d out of range [1,8]", c.ConfCounterBits)
	}
	if c.ModeSwitch && c.ModeWindowInsts == 0 {
		return invalid("mode switch requires a sampling window")
	}
	return nil
}

// ConfPtrBits returns the width of a c_C pointer (index ‖ hashed tag).
func (c Config) ConfPtrBits() int { return log2(c.ConfSets) + c.ConfTagBits }

// SlicePtrBits returns the width of a c_B pointer.
func (c Config) SlicePtrBits() int { return log2(c.SliceSets) + c.SliceTagBits }

func log2(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// PUBS ties the three tables together and implements the decode-time
// protocol of §III-A3 plus the execute-time confidence update.
type PUBS struct {
	cfg   Config
	Conf  *ConfTable
	Slice *BrsliceTable
	Def   *DefTable
	mode  *ModeSwitch

	// Decode-side statistics.
	UnconfBranches   uint64
	UnconfSliceInsts uint64
	DecodedBranches  uint64
}

// New builds the PUBS engine from a validated config.
func New(cfg Config) (*PUBS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	confTag, sliceTag := cfg.ConfTagBits, cfg.SliceTagBits
	if cfg.Tagless {
		confTag, sliceTag = 0, 0
	}
	counterBits := cfg.ConfCounterBits
	if counterBits == 0 {
		counterBits = 6
	}
	p := &PUBS{
		cfg:   cfg,
		Conf:  NewConfTable(cfg.ConfSets, cfg.ConfWays, counterBits, confTag, cfg.Blind),
		Slice: NewBrsliceTable(cfg.SliceSets, cfg.SliceWays, sliceTag, cfg.ConfPtrBits()),
		Def:   NewDefTable(isa.NumLogicalRegs, cfg.SlicePtrBits()),
	}
	if cfg.ModeSwitch {
		p.mode = NewModeSwitch(cfg.ModeWindowInsts, cfg.ModeThresholdMPKI)
	}
	return p, nil
}

// MustNew is New, panicking on error.
func MustNew(cfg Config) *PUBS {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Active reports whether prioritization is currently in force (Enable plus
// the mode switch's current decision).
func (p *PUBS) Active() bool {
	if !p.cfg.Enable {
		return false
	}
	if p.mode != nil {
		return p.mode.Enabled()
	}
	return true
}

// Mode returns the mode switch, or nil when mode switching is disabled.
func (p *PUBS) Mode() *ModeSwitch { return p.mode }

// Reset restores all three tables, the mode switch, and the decode
// statistics to the freshly-constructed state.
func (p *PUBS) Reset() {
	p.Conf.Reset()
	p.Slice.Reset()
	p.Def.Reset()
	if p.mode != nil {
		p.mode.Reset()
	}
	p.UnconfBranches = 0
	p.UnconfSliceInsts = 0
	p.DecodedBranches = 0
}

// Decode processes one instruction at the decode stage, in program order,
// and reports whether it is predicted to belong to an unconfident branch
// slice. It performs the three §III-A steps:
//
//  1. A conditional branch consults conf_tab by PC; it is unconfident when
//     a counter exists below its maximum.
//  2. A non-branch consults brslice_tab by PC; on a hit the stored pointer
//     reaches the branch's counter.
//  3. Producers of the instruction's sources (via def_tab) are linked into
//     brslice_tab so the slice grows backward transitively.
//
// Table maintenance happens regardless of whether prioritization is
// currently active, so a mode-switch re-enable starts with warm tables.
func (p *PUBS) Decode(pc uint64, inst isa.Inst) bool {
	unconf := false
	switch {
	case inst.IsCondBranch():
		p.DecodedBranches++
		conf := p.Conf.LookupPC(pc)
		unconf = conf == ConfUnconfident
		if unconf {
			p.UnconfBranches++
		}
		// Link the branch's producers to its confidence counter.
		cC := p.Conf.PointerFor(pc)
		srcs, n := inst.Sources()
		for i := 0; i < n; i++ {
			if cB, ok := p.Def.Read(int(srcs[i])); ok {
				p.Slice.Insert(cB, cC)
			}
		}
	default:
		if ptr, hit := p.Slice.Lookup(pc); hit {
			unconf = p.Conf.LookupPtr(ptr) == ConfUnconfident
			if unconf {
				p.UnconfSliceInsts++
			}
			// Propagate the link to this instruction's producers (§III-A2
			// step 2, repeated every time the instruction decodes).
			srcs, n := inst.Sources()
			for i := 0; i < n; i++ {
				if cB, ok := p.Def.Read(int(srcs[i])); ok {
					p.Slice.Insert(cB, ptr)
				}
			}
		}
	}
	// Record this instruction as the latest writer of its destination.
	if inst.HasDest() {
		p.Def.Write(int(inst.Rd), p.Slice.PointerFor(pc))
	}
	return unconf
}

// BranchExecuted trains conf_tab with a resolved conditional branch.
func (p *PUBS) BranchExecuted(pc uint64, predictedCorrectly bool) {
	p.Conf.Update(pc, predictedCorrectly)
}

// CheckInvariants audits the three tables' structural state: counters
// within saturation, tags within their fold widths, and the def_tab →
// brslice_tab → conf_tab pointer chain addressing real sets. Violations
// wrap simerr.ErrInvariant.
func (p *PUBS) CheckInvariants() error {
	confTag, sliceTag := p.cfg.ConfTagBits, p.cfg.SliceTagBits
	if p.cfg.Tagless {
		confTag, sliceTag = 0, 0
	}
	if err := p.Conf.CheckInvariants(); err != nil {
		return err
	}
	if err := p.Slice.CheckInvariants(p.cfg.ConfSets, confTag); err != nil {
		return err
	}
	return p.Def.CheckInvariants(p.cfg.SliceSets, sliceTag)
}

// CostBreakdown itemises PUBS storage (Table III).
type CostBreakdown struct {
	DefBits     int
	BrsliceBits int
	ConfBits    int
}

// TotalKB returns the total cost in kilobytes.
func (c CostBreakdown) TotalKB() float64 {
	return float64(c.DefBits+c.BrsliceBits+c.ConfBits) / 8 / 1024
}

// DefKB returns def_tab cost in KB.
func (c CostBreakdown) DefKB() float64 { return float64(c.DefBits) / 8 / 1024 }

// BrsliceKB returns brslice_tab cost in KB.
func (c CostBreakdown) BrsliceKB() float64 { return float64(c.BrsliceBits) / 8 / 1024 }

// ConfKB returns conf_tab cost in KB.
func (c CostBreakdown) ConfKB() float64 { return float64(c.ConfBits) / 8 / 1024 }

// Cost computes the hardware cost of a PUBS configuration.
func Cost(cfg Config) CostBreakdown {
	counterBits := cfg.ConfCounterBits
	if counterBits == 0 {
		counterBits = 6
	}
	bd := CostBreakdown{
		DefBits:     isa.NumLogicalRegs * (1 + cfg.SlicePtrBits()),
		BrsliceBits: cfg.SliceSets * cfg.SliceWays * (1 + cfg.SliceTagBits + cfg.ConfPtrBits()),
	}
	if !cfg.Blind {
		bd.ConfBits = cfg.ConfSets * cfg.ConfWays * (1 + cfg.ConfTagBits + counterBits)
	}
	return bd
}

// UnhashedCost computes the cost with full (unhashed) tags, quantifying
// what the §IV hashing saves. PCs are modelled as 64-bit word addresses
// (62 significant bits, as in the paper's example).
func UnhashedCost(cfg Config) CostBreakdown {
	counterBits := cfg.ConfCounterBits
	if counterBits == 0 {
		counterBits = 6
	}
	const pcBits = 62
	sliceFullTag := pcBits - log2(cfg.SliceSets)
	confFullTag := pcBits - log2(cfg.ConfSets)
	slicePtr := log2(cfg.SliceSets) + sliceFullTag
	confPtr := log2(cfg.ConfSets) + confFullTag
	bd := CostBreakdown{
		DefBits:     isa.NumLogicalRegs * (1 + slicePtr),
		BrsliceBits: cfg.SliceSets * cfg.SliceWays * (1 + sliceFullTag + confPtr),
	}
	if !cfg.Blind {
		bd.ConfBits = cfg.ConfSets * cfg.ConfWays * (1 + confFullTag + counterBits)
	}
	return bd
}

// ModeSwitch gates PUBS on memory intensity (§III-B3): every WindowInsts
// committed instructions it compares the window's LLC MPKI against the
// threshold; PUBS stays enabled only below it.
type ModeSwitch struct {
	windowInsts   uint64
	thresholdMPKI float64

	enabled        bool
	instInWindow   uint64
	missesAtWindow uint64
	lastLLCMisses  uint64

	Checks         uint64
	EnabledWindows uint64
}

// NewModeSwitch builds a mode switch; PUBS starts enabled.
func NewModeSwitch(windowInsts uint64, thresholdMPKI float64) *ModeSwitch {
	if windowInsts == 0 {
		panic("core: mode switch window must be positive")
	}
	return &ModeSwitch{
		windowInsts:   windowInsts,
		thresholdMPKI: thresholdMPKI,
		enabled:       true,
	}
}

// Enabled reports the current decision.
func (m *ModeSwitch) Enabled() bool { return m.enabled }

// OnCommit advances the window by one committed instruction; llcMisses is
// the monotone cumulative LLC demand-miss counter. At each window boundary
// the decision is refreshed.
func (m *ModeSwitch) OnCommit(llcMisses uint64) {
	m.instInWindow++
	if m.instInWindow < m.windowInsts {
		return
	}
	delta := llcMisses - m.lastLLCMisses
	mpki := float64(delta) / float64(m.instInWindow) * 1000
	m.enabled = mpki < m.thresholdMPKI
	m.Checks++
	if m.enabled {
		m.EnabledWindows++
	}
	m.lastLLCMisses = llcMisses
	m.instInWindow = 0
}

// Reset restores the constructed state: PUBS enabled, all counters zero.
func (m *ModeSwitch) Reset() {
	m.enabled = true
	m.instInWindow = 0
	m.missesAtWindow = 0
	m.lastLLCMisses = 0
	m.Checks = 0
	m.EnabledWindows = 0
}
