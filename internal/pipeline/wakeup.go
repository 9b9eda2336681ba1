package pipeline

import (
	"fmt"

	"repro/internal/iq"
	"repro/internal/simerr"
)

// Producer→consumer operand wakeup (DESIGN.md §14.3).
//
// The issue queue selects from a ready bitset instead of polling every
// occupied entry every cycle; this file keeps that bitset equal to what
// the operand predicate (opReady, below) would say, the way hardware
// keeps it with tag broadcast:
//
//   - Dispatch links each new IQ entry to the producers that have not
//     issued yet — its two sources, plus the forwarding store for a load
//     — through intrusive per-handle link slots (linksPerUop each, sized
//     by the ROB, so wakeup never allocates). Producers that already
//     issued contribute their completion cycle to the consumer's readyAt
//     directly; committed ones contribute nothing (the value is
//     architected).
//   - schedule, once it knows the issuing uop's completion cycle, walks
//     that uop's dependents. A consumer whose last producer just issued
//     is ready at the maximum of its producers' completion cycles and is
//     linked into the event calendar (calendar.go) at that cycle.
//   - issue first advances the calendar to the current cycle, which
//     releases every entry linked at a cycle the clock has reached into
//     the IQ's ready bitset (iq.Queue.MarkReady), then selects.
//
// Every ready cycle is a producer's completion cycle, which schedule has
// already pushed into the same calendar as a wake threshold. An idle skip
// therefore always ends on or before it, and the release happens in the
// same cycle the polled predicate would first have accepted the entry:
// results are bit-identical to polling, and the ready set is part of the
// same skip-invariant state as the rest of the queue.

// linksPerUop is the link slots per handle: slot 0 and 1 for the source
// operands, slot 2 for a load's forwarding store.
const linksPerUop = 3

// linkOperands wires a just-dispatched IQ entry to its producers and, if
// none is still waiting to issue, schedules its readiness at once.
func (s *Sim) linkOperands(h int, u *uop) {
	for i := 0; i < u.nsrc; i++ {
		s.dependOn(h, i, u, u.srcs[i])
	}
	if u.hasFwd {
		s.dependOn(h, 2, u, u.fwd)
	}
	if u.waits == 0 {
		s.readyWhen(h, u.readyAt)
	}
}

// dependOn accounts for one operand of consumer u (handle h) produced by
// sr: nothing if the value is architected, the producer's completion
// cycle if it already issued, and otherwise a link on the producer's
// dependent list through the consumer's link slot.
func (s *Sim) dependOn(h, slot int, u *uop, sr src) {
	if sr.h < 0 {
		return
	}
	p := &s.uops[sr.h]
	if !p.live || p.di.Seq != sr.seq {
		return // committed: the value is architected
	}
	if p.scheduled {
		u.readyAt = max(u.readyAt, p.completeCycle)
		return
	}
	l := int32(h*linksPerUop + slot)
	s.links[l] = p.deps
	p.deps = l + 1
	u.waits++
}

// wakeDependents runs when u issues, with its completion cycle known: each
// consumer on u's list takes that cycle into its readyAt, and a consumer
// with no producer left to wait for is scheduled to become ready.
func (s *Sim) wakeDependents(u *uop) {
	for l := u.deps; l != 0; l = s.links[l-1] {
		h := int(l-1) / linksPerUop
		c := &s.uops[h]
		c.readyAt = max(c.readyAt, u.completeCycle)
		c.waits--
		if c.waits == 0 {
			s.readyWhen(h, c.readyAt)
		}
	}
	u.deps = 0
}

// readyWhen makes IQ entry h ready from cycle at on: immediately if that
// cycle has come, otherwise through the calendar.
func (s *Sim) readyWhen(h int, at int64) {
	if at <= s.now {
		s.q.MarkReady(h)
		return
	}
	s.cal.link(h, at)
}

// releaseReady marks every linked entry whose ready cycle has come. issue
// calls it before each Select; calling it again in the same cycle is a
// no-op.
func (s *Sim) releaseReady() { s.cal.advance(s.now) }

// valueReady reports whether the value identified by sr is available at the
// start of the current cycle. A dead or recycled producer means the value
// is architected (the producer committed).
func (s *Sim) valueReady(sr src) bool {
	if sr.h < 0 {
		return true
	}
	u := &s.uops[sr.h]
	if !u.live || u.di.Seq != sr.seq {
		return true
	}
	return u.scheduled && u.completeCycle <= s.now
}

// opReady is the polled operand predicate the wakeup replaced. It is kept
// only as the oracle the ready set is audited against (auditReadySet):
// an entry is ready exactly when both sources are available and a load's
// forwarding store has issued.
func (s *Sim) opReady(h int) bool {
	u := &s.uops[h]
	for i := 0; i < u.nsrc; i++ {
		if !s.valueReady(u.srcs[i]) {
			return false
		}
	}
	if u.hasFwd {
		f := &s.uops[u.fwd.h]
		if f.live && f.di.Seq == u.fwd.seq && !f.issued {
			return false // forwarding source must have executed
		}
	}
	return true
}

// auditReadySet checks that the IQ's ready set equals the set of queued
// handles opReady accepts, as the next Select will see it. It first
// releases the entries due this cycle, which is exactly what the next
// issue does before selecting, so the audit does not change results.
func (s *Sim) auditReadySet() error {
	s.releaseReady()
	var err error
	s.q.Visit(func(r iq.Request, ready bool) {
		if want := s.opReady(r.Handle); err == nil && ready != want {
			err = fmt.Errorf("%w: pipeline %s at cycle %d: IQ ready flag %v for seq %d (handle %d), operand predicate says %v",
				simerr.ErrInvariant, s.cfg.Name, s.now, ready, r.Seq, r.Handle, want)
		}
	})
	return err
}
