package pipeline

import (
	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/stats"
)

// Reset returns the simulator to its freshly-constructed state without
// reallocating any of its structures: every microarchitectural block
// (predictors, BTB, RAS, caches, memory bus, PUBS tables, issue queue, ROB,
// LSQ), all in-flight bookkeeping, the deterministic RNG seeds, and the
// statistics. A Reset-then-Run is bit-identical to a fresh New-then-Run —
// the window-replay scheduler relies on this to reuse one Sim per machine
// variant across every window of a sweep instead of paying construction per
// window.
func (s *Sim) Reset() {
	s.bp.Reset()
	s.btb.Reset()
	s.ras.Reset()
	s.l1i.Reset()
	s.l1d.Reset()
	s.l2.Reset()
	s.mem.Reset()
	if s.pubs != nil {
		s.pubs.Reset()
	}
	s.q.Reset()
	s.rob.Reset()
	s.lsq.Reset()

	for i := range s.uops {
		s.uops[i] = uop{}
	}
	s.freeU = s.freeU[:0]
	for h := s.cfg.ROBSize - 1; h >= 0; h-- {
		s.freeU = append(s.freeU, h)
	}
	for i := range s.fetchQ {
		s.fetchQ[i] = fqEntry{}
	}
	s.fqHead, s.fqLen = 0, 0

	s.now, s.fetchResumeAt = 0, 0
	s.blockedOnSeq = noSeq
	s.lastLine, s.haveLine, s.lineReadyAt = 0, false, 0

	s.pending, s.hasPending = emu.DynInst{}, false
	s.streamDone, s.halted, s.hangInjected = false, false, false

	s.code = nil
	s.wrongPathIdx, s.wrongPathLeft = -1, 0

	for r := range s.regProducer {
		s.regProducer[r] = src{h: -1}
	}
	s.intInFlight, s.fpInFlight = 0, 0

	for p := range s.fuBusy {
		row := s.fuBusy[p]
		for i := range row {
			row[i] = 0
		}
	}
	s.fuRemaining = [4]int{}
	for i := range s.dports {
		s.dports[i] = 0
	}

	for i := range s.storeBuf {
		s.storeBuf[i] = 0
	}
	s.sbHead, s.sbLen = 0, 0

	s.rng = 0x9E3779B97F4A7C15
	s.pipeTrace, s.pipeTraceLeft = nil, 0

	s.act, s.stallCtr, s.stallRand = false, nil, false
	s.polled, s.skipSpans, s.skippedCycles = 0, 0, 0
	s.cal.clear()
	s.telemetryFlushed = SkipTelemetry{}

	s.st = stats.Sim{}
	if s.occHist != nil {
		s.occHist.Reset()
	}
	s.brProf.reset() // nil-safe
	s.committedTotal, s.lastCommitAt, s.measureStart = 0, 0, 0
	s.baseL1I, s.baseL1D, s.baseL2 = cache.Stats{}, cache.Stats{}, cache.Stats{}
	s.basePubs = [3]uint64{}
	s.stream = nil
	s.trace = nil
}
