package pipeline

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/iq"
	"repro/internal/simerr"
)

// iqOrganisations is one machine per issue-queue organisation the pipeline
// can configure.
func iqOrganisations() []struct {
	name string
	cfg  Config
} {
	kind := func(k iq.Kind) Config { c := BaseConfig(); c.IQKind = k; return c }
	return []struct {
		name string
		cfg  Config
	}{
		{"base", BaseConfig()},
		{"pubs", PUBSConfig()},
		{"pubs-age", func() Config { c := PUBSConfig(); c.AgeMatrix = true; return c }()},
		{"pubs-distributed", func() Config { c := PUBSConfig(); c.DistributedIQ = true; return c }()},
		{"pubs-flexible", func() Config { c := PUBSConfig(); c.PUBS.FlexibleSelect = true; return c }()},
		{"shifting", kind(iq.Shifting)},
		{"circular", kind(iq.Circular)},
	}
}

// TestReadySetMatchesOracle audits the event-driven ready set against the
// polled operand predicate it replaced: before every Select, the IQ's
// ready flags must equal opReady over every queued handle. A flag set too
// early would issue an instruction before its operands exist; one set too
// late (or lost) would delay or deadlock it. Driven by a branch-heavy
// workload, a memory-bound one, and pseudo-random programs on every IQ
// organisation.
func TestReadySetMatchesOracle(t *testing.T) {
	cycles := 20_000
	if testing.Short() {
		cycles = 5_000
	}
	streams := []struct {
		name string
		mk   func(t *testing.T) *loopStream
	}{
		{"chess", func(t *testing.T) *loopStream { return recordStream(t, "chess", 4096) }},
		{"treewalk", func(t *testing.T) *loopStream { return recordStream(t, "treewalk", 4096) }},
		{"rand7", func(t *testing.T) *loopStream { return recordProgLoop(t, skipRandomProgram(7), 4096) }},
		{"randBEEF", func(t *testing.T) *loopStream { return recordProgLoop(t, skipRandomProgram(0xBEEF), 4096) }},
	}
	for _, org := range iqOrganisations() {
		for _, st := range streams {
			org, st := org, st
			t.Run(fmt.Sprintf("%s/%s", org.name, st.name), func(t *testing.T) {
				t.Parallel()
				s, err := New(org.cfg)
				if err != nil {
					t.Fatal(err)
				}
				s.stream = st.mk(t)
				for c := 0; c < cycles; c++ {
					s.commit()
					if err := s.auditReadySet(); err != nil {
						t.Fatal(err)
					}
					s.issue()
					s.drainStores()
					s.dispatch()
					s.decodeWrongPath()
					s.fetch()
					s.now++
				}
				if s.st.Issued == 0 {
					t.Fatal("nothing issued: the audit saw an empty machine")
				}
			})
		}
	}
}

// TestCheckInvariantsCatchesEarlyWakeup: the Config.Checks sweep must
// reject a ready flag the operand predicate does not support — the audit
// has to have teeth, not just stay quiet on healthy runs.
func TestCheckInvariantsCatchesEarlyWakeup(t *testing.T) {
	s, err := New(BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.stream = recordStream(t, "treewalk", 4096)
	for c := 0; c < 100_000; c++ {
		stepCycle(s)
		if err := s.checkInvariants(); err != nil {
			t.Fatalf("healthy machine failed the sweep at cycle %d: %v", s.now, err)
		}
		early := -1
		s.q.Visit(func(r iq.Request, ready bool) {
			if !ready && !s.opReady(r.Handle) {
				early = r.Handle
			}
		})
		if early >= 0 {
			s.q.MarkReady(early)
			err := s.checkInvariants()
			if !errors.Is(err, simerr.ErrInvariant) {
				t.Fatalf("premature ready flag on handle %d passed the sweep (err=%v)", early, err)
			}
			return
		}
	}
	t.Fatal("no waiting IQ entry found to corrupt")
}
