package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/faultinject"
	"repro/internal/iq"
	"repro/internal/isa"
	"repro/internal/lsq"
	"repro/internal/prefetch"
	"repro/internal/rob"
	"repro/internal/simerr"
	"repro/internal/stats"
)

// InstStream supplies the committed dynamic instruction stream in program
// order (normally an *emu.Machine via Stream).
type InstStream interface {
	Next() (emu.DynInst, bool)
}

// Stream adapts an emulator machine to InstStream.
type Stream struct{ M *emu.Machine }

// Next implements InstStream.
func (s Stream) Next() (emu.DynInst, bool) { return s.M.Step() }

// noSeq is the sentinel for "not blocked on any branch".
const noSeq = ^uint64(0)

// issueQueue is the dispatch/select surface shared by the unified queue
// and the §III-C2 distributed queue complex.
type issueQueue interface {
	DispatchPriority(iq.Request) bool
	DispatchNormal(iq.Request) bool
	DispatchWeighted(iq.Request, float64) bool
	MarkReady(handle int)
	Select(int, func(int) bool) []iq.Request
	Visit(func(r iq.Request, ready bool))
	Occupancy() int
	PriorityFree() int
	CheckInvariants() error
	Reset()
}

// fuPool maps an isa.Class to a function-unit pool (loads and stores share
// the Ld/St units).
func fuPool(c isa.Class) int {
	switch c {
	case isa.ClassIntALU:
		return 0
	case isa.ClassIntMulDiv:
		return 1
	case isa.ClassLoad, isa.ClassStore:
		return 2
	case isa.ClassFPU:
		return 3
	}
	return -1
}

type src struct {
	h   int
	seq uint64
}

// flight is the slim record of a fetched instruction: the part of its
// emu.DynInst that any stage after fetch reads. The branch outcome (Taken,
// Target, NextPC) is consumed by fetchControl while the DynInst is still
// staged, and the PC is 4*idx, so neither is carried down the pipeline.
type flight struct {
	seq   uint64
	addr  uint64 // effective address (loads/stores)
	inst  isa.Inst
	idx   int32 // static instruction index
	class isa.Class
}

func (f *flight) pc() uint64 { return isa.PC(int(f.idx)) }

// slim keeps the part of the staged di that outlives fetch. It writes
// field by field: building a flight value and assigning it would go
// through a stack temporary.
func (f *flight) slim(di *emu.DynInst) {
	f.seq, f.addr, f.inst, f.idx, f.class = di.Seq, di.Addr, di.Inst, int32(di.Idx), di.Class
}

// ring reduces i, which must lie in [0, 2n), modulo n: ring-buffer index
// arithmetic without the integer division % costs on the
// per-instruction path.
func ring(i, n int) int {
	if i >= n {
		return i - n
	}
	return i
}

// uop is one in-flight instruction. Handles index the fixed pool (sized to
// the ROB); (handle, seq) pairs disambiguate reuse.
type uop struct {
	flight
	live        bool
	fetchCycle  int64
	unconf      bool
	inPriority  bool
	mispredict  bool // this branch/indirect blocked fetch
	predCorrect bool // conditional branches: prediction outcome

	srcs   [2]src
	nsrc   int
	fwd    src // loads: matching older store
	hasFwd bool

	// Operand wakeup (wakeup.go): readyAt is the latest completion among
	// the producers that have issued, waits counts those that have not,
	// and deps heads this uop's own list of waiting consumers (a link
	// index plus one, so the zero value is the empty list).
	readyAt int64
	deps    int32
	waits   uint8

	issued        bool
	scheduled     bool // completeCycle is valid
	completeCycle int64
	dispatchCycle int64
	issueCycle    int64
}

// fqEntry is one instruction flowing down the front end.
type fqEntry struct {
	flight
	fetchCycle  int64
	mispredict  bool
	predCorrect bool
	decoded     bool
	unconf      bool
}

// BranchStat profiles one static conditional branch (Config.Profile).
type BranchStat struct {
	PC          uint64
	Executed    uint64
	Mispredicts uint64
}

// MispredictRate returns the branch's individual misprediction rate.
func (b BranchStat) MispredictRate() float64 {
	if b.Executed == 0 {
		return 0
	}
	return float64(b.Mispredicts) / float64(b.Executed)
}

// Result is the outcome of one simulation run (measurement window only).
type Result struct {
	stats.Sim
	Name         string
	Measured     uint64
	L1I, L1D, L2 cache.Stats

	// Populated only when Config.Profile is set.
	IQOccupancy *stats.Histogram // per-cycle issue-queue occupancy
	TopBranches []BranchStat     // worst mispredicting branches, descending
}

// Sim is one simulated processor instance: build, Run; Reset returns it to
// the freshly-constructed state for reuse across independent runs.
type Sim struct {
	cfg    Config
	stream InstStream
	mach   *emu.Machine // the machine behind stream when it is a Stream
	trace  *Replay      // non-nil while the fetch stage reads a predecode buffer

	bp   bpred.Predictor
	btb  *bpred.BTB
	ras  *bpred.RAS
	l1i  *cache.Cache
	l1d  *cache.Cache
	l2   *cache.Cache
	mem  *cache.Memory
	pubs *core.PUBS
	q    issueQueue
	rob  *rob.ROB
	lsq  *lsq.LSQ

	uops  []uop
	freeU []int

	// fetchQ is a fixed-capacity ring buffer: fqHead indexes the oldest
	// entry, fqLen counts occupancy. A ring keeps dispatch O(1) per
	// instruction (the previous head-slicing drain copied the whole queue
	// forward on every dispatch).
	fetchQ []fqEntry
	fqHead int
	fqLen  int

	now           int64
	fetchResumeAt int64
	blockedOnSeq  uint64
	lastLine      uint64
	haveLine      bool
	lineReadyAt   int64

	pending      emu.DynInst // the staged instruction fetch reads in place
	hasPending   bool
	streamDone   bool
	halted       bool
	hangInjected bool // fault injection wedged the commit stage

	// Wrong-path decode state (Config.WrongPathDecode).
	code          []isa.Inst
	wrongPathIdx  int // next wrong-path instruction to decode; -1 = none
	wrongPathLeft int // remaining wrong-path decode budget for this event

	regProducer [isa.NumLogicalRegs]src // .h == -1 means architected
	intInFlight int
	fpInFlight  int

	fuBusy      [4][]int64 // per pool, per unit: busy-until (non-pipelined ops)
	fuRemaining [4]int     // per pool: units still grantable this cycle
	dports      []int64    // D-cache ports: next-free cycle

	// The FU claim is bound once at construction: a method value created
	// inside the cycle loop would allocate a closure per cycle.
	fuFn func(int) bool

	// Operand wakeup state (wakeup.go): the intrusive producer→consumer
	// links, linksPerUop per handle (each holds the next link on the same
	// producer's list, plus one). Consumers whose producers have all
	// issued wait in cal, linked at the cycle their last operand arrives.
	links []int32

	// storeBuf is a fixed-capacity ring buffer of committed store addresses
	// awaiting drain: sbHead indexes the oldest, sbLen counts occupancy.
	// (The previous slice drain re-sliced from the head and reset with
	// [:0:cap], so front capacity shrank monotonically and steady state
	// reallocated on every refill.)
	storeBuf []uint64
	sbHead   int
	sbLen    int

	rng uint64

	pipeTrace     io.Writer
	pipeTraceLeft int64

	// Idle-skip bookkeeping (see idleskip.go). act is cleared at the top
	// of every cycle; each stage that mutates persistent state sets it. A
	// cycle that ends with act still false is provably null and eligible
	// for fast-forward. stallCtr/stallRand record the one integrable tick
	// a stalled dispatch produces per cycle (which stall counter fired,
	// and whether the weighted policy consumed a rand01 draw). polled
	// counts executed loop iterations — in poll mode it equals s.now; the
	// invariant-check and context-poll cadences key on it so their
	// behaviour is independent of how far each iteration advanced time.
	// cal is the event calendar nextWake reads instead of rescanning
	// every threshold; it also holds the operand-ready releases.
	act              bool
	stallCtr         *uint64
	stallRand        bool
	polled           int64
	cal              calendar
	skipSpans        uint64
	skippedCycles    uint64
	telemetryFlushed SkipTelemetry // portion already flushed to the package counters

	st             stats.Sim
	occHist        *stats.Histogram
	brProf         *branchProfile
	committedTotal uint64
	lastCommitAt   int64
	measureStart   int64
	baseL1I        cache.Stats
	baseL1D        cache.Stats
	baseL2         cache.Stats
	basePubs       [3]uint64 // unconf branches, unconf slice insts, decoded branches
}

// New builds a simulator for the given configuration.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{
		cfg:          cfg,
		bp:           bpred.MustNew(cfg.Bpred),
		btb:          bpred.NewBTB(cfg.BTBSets, cfg.BTBWays),
		ras:          bpred.NewRAS(cfg.RASDepth),
		mem:          &cache.Memory{Latency: cfg.MemLatency, LineBytes_: 64, BytesPerCycle: cfg.MemBW},
		rob:          rob.New(cfg.ROBSize),
		lsq:          lsq.New(cfg.LSQSize),
		uops:         make([]uop, cfg.ROBSize),
		blockedOnSeq: noSeq,
		wrongPathIdx: -1,
		rng:          0x9E3779B97F4A7C15,
	}
	s.l2 = cache.New(cfg.L2, s.mem)
	if cfg.Prefetch {
		s.l2.SetPrefetcher(prefetch.Default())
	}
	s.l1i = cache.New(cfg.L1I, s.l2)
	s.l1d = cache.New(cfg.L1D, s.l2)

	prio := 0
	if cfg.PUBS.Enable {
		if !cfg.PUBS.FlexibleSelect {
			prio = cfg.PUBS.PriorityEntries
		}
		p, err := core.New(cfg.PUBS)
		if err != nil {
			return nil, err
		}
		s.pubs = p
	}
	if cfg.DistributedIQ {
		s.q = iq.NewDistributed(iq.DistributedConfig{
			NumQueues:       4,
			TotalSize:       cfg.IQSize,
			PriorityEntries: prio,
			AgeMatrix:       cfg.AgeMatrix,
			Router:          func(fu int) int { return fuPool(isa.Class(fu)) },
		})
	} else {
		s.q = iq.New(iq.Config{
			Size:            cfg.IQSize,
			PriorityEntries: prio,
			Kind:            cfg.IQKind,
			AgeMatrix:       cfg.AgeMatrix,
			Flexible:        cfg.PUBS.Enable && cfg.PUBS.FlexibleSelect,
		})
	}

	for h := cfg.ROBSize - 1; h >= 0; h-- {
		s.freeU = append(s.freeU, h)
	}
	for r := range s.regProducer {
		s.regProducer[r] = src{h: -1}
	}
	s.fuBusy[0] = make([]int64, cfg.NumIntALU)
	s.fuBusy[1] = make([]int64, cfg.NumIntMulDiv)
	s.fuBusy[2] = make([]int64, cfg.NumLdSt)
	s.fuBusy[3] = make([]int64, cfg.NumFPU)
	s.dports = make([]int64, 2)
	s.fetchQ = make([]fqEntry, 4*cfg.FetchWidth)
	s.storeBuf = make([]uint64, cfg.StoreBufferSize)
	s.fuFn = s.fuTryAlloc
	s.links = make([]int32, linksPerUop*cfg.ROBSize)
	s.cal.init(cfg.ROBSize, s.q)
	if cfg.Profile {
		s.occHist = stats.NewHistogram(cfg.IQSize + 1)
		s.brProf = newBranchProfile()
	}
	return s, nil
}

// branchProfile is an open-addressed PC → BranchStat table (linear probing,
// power-of-two capacity). It replaces a map[uint64]*BranchStat on the commit
// path: no per-branch pointer allocations, and reset reuses the backing
// arrays so the warm-up boundary does not reallocate.
type branchProfile struct {
	used  []bool
	keys  []uint64
	stats []BranchStat
	n     int
}

const branchProfileMinSize = 256

func newBranchProfile() *branchProfile {
	return &branchProfile{
		used:  make([]bool, branchProfileMinSize),
		keys:  make([]uint64, branchProfileMinSize),
		stats: make([]BranchStat, branchProfileMinSize),
	}
}

// get returns the entry for pc, inserting it if absent. The pointer is
// valid until the next get (a grow rehashes in place).
func (p *branchProfile) get(pc uint64) *BranchStat {
	if p.n >= len(p.keys)-len(p.keys)/4 {
		p.grow()
	}
	mask := uint64(len(p.keys) - 1)
	i := (pc * 0x9E3779B97F4A7C15) & mask
	for p.used[i] {
		if p.keys[i] == pc {
			return &p.stats[i]
		}
		i = (i + 1) & mask
	}
	p.used[i], p.keys[i] = true, pc
	p.stats[i] = BranchStat{PC: pc}
	p.n++
	return &p.stats[i]
}

func (p *branchProfile) grow() {
	oldUsed, oldKeys, oldStats := p.used, p.keys, p.stats
	size := 2 * len(oldKeys)
	p.used = make([]bool, size)
	p.keys = make([]uint64, size)
	p.stats = make([]BranchStat, size)
	p.n = 0
	for i, u := range oldUsed {
		if u {
			*p.get(oldKeys[i]) = oldStats[i]
		}
	}
}

// reset empties the table, keeping the backing arrays.
func (p *branchProfile) reset() {
	if p == nil {
		return
	}
	clear(p.used)
	p.n = 0
}

// top extracts the n worst mispredicting branches, descending; nil-safe
// (a non-profile run never allocates the table).
func (p *branchProfile) top(n int) []BranchStat {
	if p == nil {
		return nil
	}
	out := make([]BranchStat, 0, p.n)
	for i, u := range p.used {
		if u {
			out = append(out, p.stats[i])
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Mispredicts != out[j].Mispredicts {
			return out[i].Mispredicts > out[j].Mispredicts
		}
		return out[i].PC < out[j].PC
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// rand01 returns a deterministic uniform value in [0,1) (xorshift64*).
func (s *Sim) rand01() float64 {
	s.rng ^= s.rng >> 12
	s.rng ^= s.rng << 25
	s.rng ^= s.rng >> 27
	return float64(s.rng*0x2545F4914F6CDD1D>>11) / float64(1<<53)
}

// peek stages the next instruction of the stream and returns a pointer to
// the staged record, or nil at the end of the stream.
func (s *Sim) peek() *emu.DynInst {
	if s.streamDone {
		return nil
	}
	if !s.hasPending {
		// Pulling from the stream steps the emulator (or trace cursor) —
		// a one-time mutation, as is the done transition.
		s.act = true
		var ok bool
		if s.mach != nil {
			// Step the emulator directly: the interface call would copy
			// the record once more on its way through Stream.Next.
			s.pending, ok = s.mach.Step()
		} else {
			s.pending, ok = s.stream.Next()
		}
		if !ok {
			s.streamDone = true
			return nil
		}
		s.hasPending = true
	}
	return &s.pending
}

func (s *Sim) take() { s.hasPending = false }

// ---------- fetch ----------

// lineReady models the single-line I-cache buffer: a new line is requested
// the cycle it is first needed and fetch stalls until it arrives.
func (s *Sim) lineReady(pc uint64) bool {
	line := pc &^ 63
	if !s.haveLine || line != s.lastLine {
		s.act = true // new line request mutates the I-cache
		done := s.l1i.Access(pc, s.now, false)
		s.lastLine, s.haveLine = line, true
		s.lineReadyAt = done
		s.cal.push(done, s.now) // fill arrival unblocks fetch
	}
	return s.lineReadyAt <= s.now
}

// fetchControl runs the control-flow side of fetching the staged di into
// f (prediction, BTB, RAS, wrong-path setup) and reports whether it ends
// the fetch group. It is shared by the live-emulator and trace-replay fetch
// paths.
func (s *Sim) fetchControl(f *fqEntry, di *emu.DynInst) (stop bool) {
	switch {
	case di.Inst.IsCondBranch():
		pred := s.bp.Predict(di.PC)
		s.bp.Update(di.PC, di.Taken)
		f.predCorrect = pred == di.Taken
		if di.Taken {
			s.btb.Insert(di.PC, di.Target)
		}
		if !f.predCorrect {
			f.mispredict = true
			s.blockedOnSeq = di.Seq
			stop = true
			if s.cfg.WrongPathDecode && s.code != nil {
				// The front end runs down the predicted (wrong) path:
				// the fall-through when the branch was actually taken,
				// the target when it was actually not taken. The walk is
				// bounded by what the front-end buffers can hold before
				// the stall backs decode up — wrong-path instructions
				// occupy real fetch-queue and window slots in hardware.
				if di.Taken {
					s.wrongPathIdx = di.Idx + 1
				} else {
					s.wrongPathIdx = int(di.Inst.Imm)
				}
				s.wrongPathLeft = len(s.fetchQ) + s.cfg.FetchWidth*int(s.cfg.FrontEndDepth)
			}
		} else if pred {
			// Correctly predicted taken: target must come from the BTB
			// to redirect this cycle; otherwise a decode-redirect bubble.
			if tgt, hit := s.btb.Lookup(di.PC); !hit || tgt != di.Target {
				s.st.BTBMisses++
				s.fetchResumeAt = s.now + s.cfg.BTBMissPenalty
				s.cal.push(s.fetchResumeAt, s.now) // redirect-bubble end
			}
			stop = true // taken branch ends the fetch group
		}

	case di.Inst.Op == isa.Jmp || di.Inst.Op == isa.Jal:
		if tgt, hit := s.btb.Lookup(di.PC); !hit || tgt != di.Target {
			s.st.BTBMisses++
			s.fetchResumeAt = s.now + s.cfg.BTBMissPenalty
			s.cal.push(s.fetchResumeAt, s.now) // redirect-bubble end
		}
		s.btb.Insert(di.PC, di.Target)
		if di.Inst.Op == isa.Jal {
			s.ras.Push(di.PC + 4)
		}
		stop = true

	case di.Inst.Op == isa.Jr:
		var predTgt uint64
		var havePred bool
		if di.Inst.Rs1 == isa.RLink {
			predTgt, havePred = s.ras.Pop()
		}
		if !havePred {
			predTgt, havePred = s.btb.Lookup(di.PC)
		}
		s.btb.Insert(di.PC, di.Target)
		if !havePred || predTgt != di.Target {
			f.mispredict = true
			s.blockedOnSeq = di.Seq
		}
		stop = true

	case di.Inst.Op == isa.Halt:
		stop = true
	}
	return stop
}

func (s *Sim) fetch() {
	if s.halted || s.now < s.fetchResumeAt || s.blockedOnSeq != noSeq {
		return
	}
	for n := 0; n < s.cfg.FetchWidth; n++ {
		if s.fqLen == len(s.fetchQ) {
			break
		}
		var di *emu.DynInst
		if tr := s.trace; tr != nil {
			// Trace fast path: reconstruct the DynInst straight from the
			// predecode buffer into the staging record — no emulator step,
			// no stream call.
			if !s.lineReady(tr.Pre.PCAt(tr.pos)) {
				break
			}
			di = &s.pending
			tr.Pre.Fill(tr.pos, tr.Decode, di)
			tr.pos++
			if tr.pos == tr.Pre.Len() {
				// Buffer drained: later fetches go through the generic
				// stream path (Replay.Next ends the stream after a halting
				// trace, or continues on the live fallback).
				s.trace = nil
			}
		} else {
			if di = s.peek(); di == nil {
				break
			}
			if !s.lineReady(di.PC) {
				break
			}
			s.take()
		}
		f := &s.fetchQ[ring(s.fqHead+s.fqLen, len(s.fetchQ))]
		f.slim(di)
		f.fetchCycle = s.now
		f.mispredict, f.predCorrect, f.decoded, f.unconf = false, false, false, false
		stop := s.fetchControl(f, di)
		s.fqLen++
		s.act = true
		// The staged entry matures for dispatch once it clears the
		// front-end pipeline.
		s.cal.push(s.now+s.cfg.FrontEndDepth, s.now)
		if stop {
			break
		}
	}
}

// ---------- dispatch (decode + rename + queue insertion) ----------

func (s *Sim) dispatch() {
	for n := 0; n < s.cfg.FetchWidth; n++ {
		if s.fqLen == 0 {
			break
		}
		f := &s.fetchQ[s.fqHead]
		if s.now < f.fetchCycle+s.cfg.FrontEndDepth {
			break
		}
		// Decode-stage PUBS work happens once, in program order, even if
		// dispatch subsequently stalls on a structural hazard.
		if !f.decoded {
			if s.pubs != nil {
				f.unconf = s.pubs.Decode(f.pc(), f.inst)
			}
			f.decoded = true
			s.act = true // one-time PUBS table update + decoded mark
		}

		// Structural hazards (checked oldest-first; dispatch is in-order).
		// A stall here repeats identically every cycle while the machine is
		// otherwise frozen, so each site records which counter it bumped:
		// an idle skip integrates k more ticks of exactly that counter.
		if s.rob.Full() {
			s.st.DispatchStallROB++
			s.stallCtr = &s.st.DispatchStallROB
			break
		}
		if f.inst.IsMem() && s.lsq.Full() {
			s.st.DispatchStallLSQ++
			s.stallCtr = &s.st.DispatchStallLSQ
			break
		}
		if f.inst.HasDest() {
			if f.inst.Rd.IsFP() {
				if s.fpInFlight >= s.cfg.PhysFPRegs-32 {
					s.st.DispatchStallRegs++
					s.stallCtr = &s.st.DispatchStallRegs
					break
				}
			} else if s.intInFlight >= s.cfg.PhysIntRegs-32 {
				s.st.DispatchStallRegs++
				s.stallCtr = &s.st.DispatchStallRegs
				break
			}
		}

		h := s.freeU[len(s.freeU)-1]
		req := iq.Request{Handle: h, Seq: f.seq, FU: int(f.class)}
		inPriority := false
		if f.class != isa.ClassNone {
			ok := false
			switch {
			case s.pubs != nil && s.pubs.Active() && s.cfg.PUBS.FlexibleSelect:
				// Idealized flexible select: mark and dispatch anywhere.
				req.Marked = f.unconf
				if s.q.DispatchNormal(req) {
					ok = true
				} else {
					s.st.DispatchStallNormal++
					s.stallCtr = &s.st.DispatchStallNormal
				}
			case s.pubs != nil && s.pubs.Active():
				if f.unconf {
					if s.q.DispatchPriority(req) {
						ok, inPriority = true, true
					} else if s.cfg.PUBS.StallDispatch {
						s.st.DispatchStallPriority++
						s.stallCtr = &s.st.DispatchStallPriority
					} else if s.q.DispatchNormal(req) {
						ok = true
					} else {
						s.st.DispatchStallNormal++
						s.stallCtr = &s.st.DispatchStallNormal
					}
				} else if s.q.DispatchNormal(req) {
					ok = true
				} else {
					s.st.DispatchStallNormal++
					s.stallCtr = &s.st.DispatchStallNormal
				}
			case s.pubs != nil:
				// PUBS configured but mode-switched off: both free lists
				// serve everyone, weighted by the entry ratio (§III-B3).
				// The draw is consumed whether or not dispatch succeeds,
				// and failure is pick-independent (both lists full), so a
				// stalled cycle burns exactly one draw — stallRand tells
				// the idle skip to replay k of them.
				if s.q.DispatchWeighted(req, s.rand01()) {
					ok = true
				} else {
					s.st.DispatchStallNormal++
					s.stallCtr = &s.st.DispatchStallNormal
					s.stallRand = true
				}
			default:
				if s.q.DispatchNormal(req) {
					ok = true
				} else {
					s.st.DispatchStallNormal++
					s.stallCtr = &s.st.DispatchStallNormal
				}
			}
			if !ok {
				break
			}
		}
		s.freeU = s.freeU[:len(s.freeU)-1]
		s.act = true

		// Clear the slot and set fields in place: a composite-literal
		// assignment would build the uop in a temporary and copy it.
		u := &s.uops[h]
		*u = uop{}
		u.flight = f.flight
		u.live = true
		u.fetchCycle = f.fetchCycle
		u.unconf = f.unconf
		u.inPriority = inPriority
		u.mispredict = f.mispredict
		u.predCorrect = f.predCorrect
		u.dispatchCycle = s.now
		u.issueCycle = -1
		// The sources, read in place: Rs1 then Rs2, as many as the op
		// reads (isa.Inst.Sources). Copying Sources' two-byte array
		// result stalls on store forwarding.
		switch u.nsrc = f.inst.NumSources(); u.nsrc {
		case 2:
			u.srcs[1] = s.producer(f.inst.Rs2)
			fallthrough
		case 1:
			u.srcs[0] = s.producer(f.inst.Rs1)
		}
		if f.inst.IsLoad() {
			if e, found := s.lsq.ForwardFrom(f.seq, f.addr&^7); found {
				u.fwd = src{h: e.Handle, seq: e.Seq}
				u.hasFwd = true
			}
		}
		if u.class != isa.ClassNone {
			s.linkOperands(h, u)
		}
		if f.inst.IsMem() {
			s.lsq.Alloc(lsq.Entry{
				Handle:  h,
				Seq:     f.seq,
				IsStore: f.inst.IsStore(),
				Addr:    f.addr &^ 7,
			})
		}
		s.rob.Alloc(h)
		if f.inst.HasDest() {
			s.regProducer[f.inst.Rd] = src{h: h, seq: f.seq}
			if f.inst.Rd.IsFP() {
				s.fpInFlight++
			} else {
				s.intInFlight++
			}
		}
		if f.class == isa.ClassNone {
			// Nop/Halt/direct jumps need no FU: complete next cycle.
			u.scheduled = true
			u.completeCycle = s.now + 1
			s.cal.push(u.completeCycle, s.now) // commit-head unblock
		}
		s.fqHead = ring(s.fqHead+1, len(s.fetchQ))
		s.fqLen--
	}
}

// producer returns the in-flight producer of logical register r; the
// hardwired zero register depends on nothing.
func (s *Sim) producer(r isa.Reg) src {
	if r == isa.RZero {
		return src{h: -1}
	}
	return s.regProducer[r]
}

// ---------- issue + execute scheduling ----------

func (s *Sim) issue() {
	for p := range s.fuBusy {
		free := 0
		for _, busy := range s.fuBusy[p] {
			if busy <= s.now {
				free++
			}
		}
		s.fuRemaining[p] = free
	}
	s.releaseReady()
	granted := s.q.Select(s.cfg.IssueWidth, s.fuFn)
	if len(granted) > 0 {
		s.act = true // a zero-grant Select mutates nothing
	}
	for _, g := range granted {
		s.schedule(g.Handle)
	}
}

// fuTryAlloc is the per-cycle function-unit claim passed to the IQ select;
// issue() refreshes fuRemaining before each Select.
func (s *Sim) fuTryAlloc(class int) bool {
	p := fuPool(isa.Class(class))
	if p < 0 || s.fuRemaining[p] == 0 {
		return false
	}
	s.fuRemaining[p]--
	return true
}

// schedule computes the completion time of a granted instruction and, for a
// blocking mispredicted branch, the fetch-redirect time.
func (s *Sim) schedule(h int) {
	u := &s.uops[h]
	u.issued = true
	u.scheduled = true
	u.issueCycle = s.now
	in := u.inst

	switch {
	case in.IsLoad():
		agen := s.now + 1
		forwarded := false
		if u.hasFwd {
			f := &s.uops[u.fwd.h]
			if f.live && f.seq == u.fwd.seq {
				forwarded = true
				done := f.completeCycle
				if agen > done {
					done = agen
				}
				u.completeCycle = done + 2 // forwarding from the LSQ
			}
		}
		if !forwarded {
			// The store may have committed but not yet drained: forward
			// from the store buffer.
			la := u.addr &^ 7
			for i := 0; i < s.sbLen; i++ {
				if s.storeBuf[ring(s.sbHead+i, len(s.storeBuf))]&^7 == la {
					forwarded = true
					u.completeCycle = agen + 2
					break
				}
			}
		}
		if forwarded {
			s.st.LoadsForwarded++
		} else {
			start := s.allocDPort(agen)
			u.completeCycle = s.l1d.Access(u.addr, start, false)
		}
	case in.IsStore():
		u.completeCycle = s.now + 1 // address+data staged into the LSQ
	default:
		lat := in.Latency()
		u.completeCycle = s.now + lat
		if !in.Pipelined() {
			s.blockUnit(fuPool(u.class), lat)
		}
	}
	s.st.Issued++
	// The completion wakes IQ dependents and unblocks the ROB head.
	s.cal.push(u.completeCycle, s.now)
	s.wakeDependents(u)

	if u.mispredict && s.blockedOnSeq == u.seq {
		s.fetchResumeAt = u.completeCycle + s.cfg.RecoveryPenalty
		s.cal.push(s.fetchResumeAt, s.now) // redirect arrival restarts fetch
		s.blockedOnSeq = noSeq
		s.wrongPathIdx = -1 // squash: stop polluting the tables
		s.st.MisspecPenaltyCycles += u.completeCycle - u.fetchCycle
		s.st.RecoveryCycles += s.cfg.RecoveryPenalty
	}
}

// SetStaticCode supplies the program's static code, enabling wrong-path
// decode modelling (Config.WrongPathDecode). RunProgram calls this.
func (s *Sim) SetStaticCode(code []isa.Inst) { s.code = code }

// decodeWrongPath walks the wrong path at decode width while fetch is
// blocked, updating the PUBS tables with the instructions a real front end
// would decode before the squash. The walk follows fall-through on
// conditional branches and targets on direct jumps, and parks on indirect
// jumps and halts (targets unknown).
func (s *Sim) decodeWrongPath() {
	if s.wrongPathIdx < 0 || s.pubs == nil || s.blockedOnSeq == noSeq {
		return
	}
	s.act = true // every pass advances or parks the walk
	for n := 0; n < s.cfg.FetchWidth; n++ {
		if s.wrongPathLeft <= 0 {
			s.wrongPathIdx = -1
			return
		}
		idx := s.wrongPathIdx
		if idx < 0 || idx >= len(s.code) {
			s.wrongPathIdx = -1
			return
		}
		s.wrongPathLeft--
		in := s.code[idx]
		s.pubs.Decode(isa.PC(idx), in)
		switch {
		case in.Op == isa.Jmp || in.Op == isa.Jal:
			s.wrongPathIdx = int(in.Imm)
		case in.Op == isa.Jr || in.Op == isa.Halt:
			s.wrongPathIdx = -1 // unknown target: the walk parks
			return
		default:
			s.wrongPathIdx = idx + 1
		}
	}
}

// allocDPort claims a D-cache port at or after cycle `at`, returning the
// access start cycle.
func (s *Sim) allocDPort(at int64) int64 {
	best := 0
	for i := 1; i < len(s.dports); i++ {
		if s.dports[i] < s.dports[best] {
			best = i
		}
	}
	start := at
	if s.dports[best] > start {
		start = s.dports[best]
	}
	s.dports[best] = start + 1
	s.cal.push(start+1, s.now) // port free lets a committed store drain
	return start
}

// blockUnit marks one unit of pool p busy for lat cycles (non-pipelined op).
func (s *Sim) blockUnit(p int, lat int64) {
	units := s.fuBusy[p]
	for i := range units {
		if units[i] <= s.now {
			units[i] = s.now + lat
			s.cal.push(s.now+lat, s.now) // unit free can turn Select granting
			return
		}
	}
}

// ---------- store buffer ----------

func (s *Sim) drainStores() {
	if s.sbLen == 0 {
		return
	}
	// One committed store drains per cycle when a D-port is idle.
	for i := range s.dports {
		if s.dports[i] <= s.now {
			s.act = true
			s.dports[i] = s.now + 1
			s.cal.push(s.now+1, s.now)
			s.l1d.Access(s.storeBuf[s.sbHead], s.now, true)
			s.sbHead = ring(s.sbHead+1, len(s.storeBuf))
			s.sbLen--
			return
		}
	}
}

// ---------- commit ----------

func (s *Sim) commit() {
	for n := 0; n < s.cfg.CommitWidth; n++ {
		h, ok := s.rob.Head()
		if !ok {
			break
		}
		u := &s.uops[h]
		if !u.scheduled || u.completeCycle > s.now {
			break
		}
		in := u.inst
		if in.IsStore() {
			if s.sbLen >= len(s.storeBuf) {
				break // store buffer full: commit stalls (pure — no mutation)
			}
			s.storeBuf[ring(s.sbHead+s.sbLen, len(s.storeBuf))] = u.addr
			s.sbLen++
		}
		s.act = true // the instruction retires this cycle
		if in.IsMem() {
			s.lsq.Pop(h)
		}
		if in.IsCondBranch() {
			s.st.CondBranches++
			if !u.predCorrect {
				s.st.Mispredicts++
			}
			if s.pubs != nil {
				s.pubs.BranchExecuted(u.pc(), u.predCorrect)
			}
			if s.brProf != nil {
				bs := s.brProf.get(u.pc())
				bs.Executed++
				if !u.predCorrect {
					bs.Mispredicts++
				}
			}
		}
		if in.Op == isa.Jr {
			s.st.IndirectJumps++
			if u.mispredict {
				s.st.IndirectMispred++
			}
		}
		if in.HasDest() {
			if p := s.regProducer[in.Rd]; p.h == h && p.seq == u.seq {
				s.regProducer[in.Rd] = src{h: -1}
			}
			if in.Rd.IsFP() {
				s.fpInFlight--
			} else {
				s.intInFlight--
			}
		}
		if s.pipeTrace != nil && s.pipeTraceLeft > 0 {
			s.pipeTraceLeft--
			s.emitPipeTrace(u)
		}
		s.rob.Pop()
		u.live = false
		s.freeU = append(s.freeU, h)
		s.st.Committed++
		s.committedTotal++
		s.lastCommitAt = s.now
		if s.pubs != nil && s.pubs.Mode() != nil {
			s.pubs.Mode().OnCommit(s.l2.Stats().Misses)
		}
		if in.Op == isa.Halt {
			s.halted = true
			break
		}
	}
}

// ---------- run ----------

// resetMeasurement clears counters at the warm-up boundary while leaving
// all microarchitectural state (predictors, caches, PUBS tables) warm.
func (s *Sim) resetMeasurement() {
	s.st.Reset()
	s.measureStart = s.now
	if s.cfg.Profile {
		// Reuse the profiling structures across the warm-up boundary —
		// reallocating them here put a map rebuild on the reset path and
		// leaked the warm-up histogram.
		s.occHist.Reset()
		s.brProf.reset()
	}
	s.baseL1I = *s.l1i.Stats()
	s.baseL1D = *s.l1d.Stats()
	s.baseL2 = *s.l2.Stats()
	if s.pubs != nil {
		s.basePubs = [3]uint64{s.pubs.UnconfBranches, s.pubs.UnconfSliceInsts, s.pubs.DecodedBranches}
	}
}

func sub(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Accesses:      a.Accesses - b.Accesses,
		Misses:        a.Misses - b.Misses,
		MSHRMerges:    a.MSHRMerges - b.MSHRMerges,
		Writebacks:    a.Writebacks - b.Writebacks,
		PrefetchReqs:  a.PrefetchReqs - b.PrefetchReqs,
		PrefetchFills: a.PrefetchFills - b.PrefetchFills,
		PrefetchHits:  a.PrefetchHits - b.PrefetchHits,
		PrefetchLate:  a.PrefetchLate - b.PrefetchLate,
	}
}

// Run simulates until `measure` instructions have committed after a
// `warmup`-instruction warm-up window (or until the program halts). It
// returns the measurement-window statistics.
func (s *Sim) Run(stream InstStream, warmup, measure uint64) (Result, error) {
	return s.RunContext(context.Background(), stream, warmup, measure)
}

// ctxCheckEvery throttles the context poll: deadlines and cancellation are
// observed within ~1K cycles (plus at most one idle-skip span), far below
// any useful watchdog budget. The poll is scheduled as a cycle threshold
// rather than a mask on s.now so an idle skip cannot jump over it.
const ctxCheckEvery = 1024

// RunContext is Run with cancellation and deadline support. A context
// deadline expiring mid-run aborts with an error wrapping
// simerr.ErrTimeout; cancellation aborts with the context's error. The
// liveness watchdog (Config.WatchdogCycles) aborts a run that stops
// committing with a *DeadlockError wrapping simerr.ErrDeadlock.
func (s *Sim) RunContext(ctx context.Context, stream InstStream, warmup, measure uint64) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if stream == nil {
		return Result{}, fmt.Errorf("pipeline %s: nil instruction stream", s.cfg.Name)
	}
	if measure == 0 {
		return Result{}, fmt.Errorf("%w: pipeline %s: measurement window must be positive",
			simerr.ErrInvalidConfig, s.cfg.Name)
	}
	watchdog := s.cfg.WatchdogCycles
	if watchdog == 0 {
		watchdog = DefaultWatchdogCycles
	}
	s.stream = stream
	s.mach = nil
	if st, ok := stream.(Stream); ok {
		s.mach = st.M
	}
	if tr, ok := stream.(*Replay); ok && tr.Pre != nil && tr.Decode != nil && tr.pos < tr.Pre.Len() && tr.live == nil {
		s.trace = tr
	}
	target := warmup + measure
	warmedUp := warmup == 0
	hook := progressFrom(ctx)
	nextProgress := hook.every
	if warmedUp {
		s.resetMeasurement()
	}

	skipEnabled := !s.cfg.noIdleSkip
	nextCtxCheck := s.now + ctxCheckEvery
	defer s.flushSkipTelemetry()

	for {
		s.act = false
		s.stallCtr = nil
		s.stallRand = false
		if s.hangInjected {
			// Fault injection: the commit stage is wedged; the watchdog
			// below must diagnose it.
		} else if faultinject.Fire(faultinject.PipelineHang, s.cfg.Name) {
			s.hangInjected = true
		} else {
			s.commit()
		}
		if !warmedUp && s.committedTotal >= warmup {
			s.resetMeasurement()
			warmedUp = true
		}
		if hook.fn != nil && s.committedTotal >= nextProgress {
			hook.fn(s.committedTotal)
			for nextProgress <= s.committedTotal {
				nextProgress += hook.every
			}
		}
		if s.committedTotal >= target || s.halted {
			break
		}
		if s.streamDone && !s.hasPending && s.fqLen == 0 && s.rob.Empty() {
			break
		}
		s.issue()
		s.drainStores()
		s.dispatch()
		s.decodeWrongPath()
		s.fetch()
		if s.occHist != nil {
			s.occHist.Add(s.q.Occupancy())
		}
		// Idle skip: if this cycle mutated nothing, fast-forward to just
		// before the next wakeup event (idleskip.go) so the s.now++ below
		// lands exactly on it. Disabled while fault injection is armed
		// (robustness tests count per-cycle Fire calls) and after an
		// injected hang (the watchdog diagnoses it on the polled path).
		if skipEnabled && !s.act && !s.hangInjected && !faultinject.Armed() {
			if t := s.nextWake(); t > s.now+1 {
				s.skipCycles(t - s.now - 1)
			}
		}
		s.now++
		s.polled++
		if watchdog > 0 && s.now-s.lastCommitAt > watchdog {
			return Result{}, s.deadlockError()
		}
		// The invariant-sweep cadence keys on polled iterations, not on
		// s.now: in poll mode the two are equal, and under skipping the
		// sweep stays proportional to simulation work done instead of
		// aliasing against whatever cycles the skips happen to land on.
		if s.cfg.Checks && s.polled%checkInterval == 0 {
			if err := s.checkInvariants(); err != nil {
				return Result{}, err
			}
		}
		if s.now >= nextCtxCheck {
			nextCtxCheck = s.now + ctxCheckEvery
			if err := ctx.Err(); err != nil {
				if errors.Is(err, context.DeadlineExceeded) {
					return Result{}, fmt.Errorf("%w: pipeline %s: deadline exceeded at cycle %d (%d committed)",
						simerr.ErrTimeout, s.cfg.Name, s.now, s.committedTotal)
				}
				return Result{}, fmt.Errorf("pipeline %s: canceled at cycle %d (%d committed): %w",
					s.cfg.Name, s.now, s.committedTotal, err)
			}
		}
	}

	if tr, ok := stream.(*Replay); ok {
		if err := tr.Err(); err != nil {
			return Result{}, fmt.Errorf("pipeline %s: trace replay: %w", s.cfg.Name, err)
		}
	}
	s.st.Cycles = s.now - s.measureStart
	if s.st.Cycles == 0 {
		s.st.Cycles = 1
	}
	res := Result{
		Sim:      s.st,
		Name:     s.cfg.Name,
		Measured: s.st.Committed,
		L1I:      sub(*s.l1i.Stats(), s.baseL1I),
		L1D:      sub(*s.l1d.Stats(), s.baseL1D),
		L2:       sub(*s.l2.Stats(), s.baseL2),
	}
	res.L1IAccesses, res.L1IMisses = res.L1I.Accesses, res.L1I.Misses
	res.L1DAccesses, res.L1DMisses = res.L1D.Accesses, res.L1D.Misses
	res.LLCAccesses, res.LLCMisses = res.L2.Accesses, res.L2.Misses
	res.Prefetches = res.L2.PrefetchReqs
	if s.cfg.Profile {
		res.IQOccupancy = s.occHist
		res.TopBranches = s.brProf.top(10)
	}
	if s.pubs != nil {
		res.UnconfBranches = s.pubs.UnconfBranches - s.basePubs[0]
		res.UnconfSliceInsts = s.pubs.UnconfSliceInsts - s.basePubs[1]
		res.DecodedBranches = s.pubs.DecodedBranches - s.basePubs[2]
		if m := s.pubs.Mode(); m != nil {
			res.ModeSwitchChecks = m.Checks
			res.ModeEnabledWindows = m.EnabledWindows
		}
	}
	return res, nil
}

// SetPipeTrace streams a per-instruction stage log to w for the first
// maxInsts committed instructions: fetch (F), dispatch (D), issue (I),
// execution complete (X), and commit (C) cycle numbers, plus PUBS flags
// (`u` = predicted in an unconfident slice, `P` = held a priority entry,
// `!` = mispredicted blocking branch). Call before Run.
func (s *Sim) SetPipeTrace(w io.Writer, maxInsts int64) {
	s.pipeTrace = w
	s.pipeTraceLeft = maxInsts
}

func (s *Sim) emitPipeTrace(u *uop) {
	flags := ""
	if u.unconf {
		flags += "u"
	}
	if u.inPriority {
		flags += "P"
	}
	if u.mispredict {
		flags += "!"
	}
	issue := "-"
	if u.issueCycle >= 0 {
		issue = fmt.Sprint(u.issueCycle)
	}
	fmt.Fprintf(s.pipeTrace, "seq=%-8d pc=%-6d %-24s F=%-8d D=%-8d I=%-8s X=%-8d C=%-8d %s\n",
		u.seq, u.idx, u.inst, u.fetchCycle, u.dispatchCycle, issue,
		u.completeCycle, s.now, flags)
}

// RunProgram is a convenience wrapper: emulate prog and simulate it.
func RunProgram(cfg Config, prog *isa.Program, warmup, measure uint64) (Result, error) {
	return RunProgramContext(context.Background(), cfg, prog, warmup, measure)
}

// RunProgramContext is RunProgram with cancellation and deadline support
// (see RunContext for the error taxonomy).
func RunProgramContext(ctx context.Context, cfg Config, prog *isa.Program, warmup, measure uint64) (Result, error) {
	s, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	s.SetStaticCode(prog.Code)
	m, err := emu.New(prog)
	if err != nil {
		return Result{}, err
	}
	return s.RunContext(ctx, Stream{M: m}, warmup, measure)
}
