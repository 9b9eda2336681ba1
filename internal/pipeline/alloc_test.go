package pipeline

// Hot-path allocation regression gates. The per-cycle invariant is:
// after warm-up, one simulated cycle performs zero heap allocations —
// grant buffers, ring buffers, and profile tables are all reused. These
// tests pin that invariant so a future change cannot silently reintroduce
// a per-cycle allocation (the pre-rewrite code allocated select closures
// and grant slices every cycle and leaked store-buffer capacity on every
// drain).

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/emu"
	"repro/internal/workload"
)

// loopStream replays a recorded dynamic-instruction window forever,
// rewriting sequence numbers so program-order ages stay monotone. It never
// allocates, isolating the pipeline's own cycle loop from the emulator.
type loopStream struct {
	buf []emu.DynInst
	i   int
	seq uint64
}

func (l *loopStream) Next() (emu.DynInst, bool) {
	di := l.buf[l.i]
	l.i++
	if l.i == len(l.buf) {
		l.i = 0
	}
	l.seq++
	di.Seq = l.seq
	return di, true
}

// recordStream captures the first n committed-order instructions of a
// workload.
func recordStream(t *testing.T, name string, n int) *loopStream {
	t.Helper()
	ls, err := recordStreamRaw(name, n)
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

func recordStreamRaw(name string, n int) (*loopStream, error) {
	m, err := emu.New(workload.MustProgram(name))
	if err != nil {
		return nil, err
	}
	buf := make([]emu.DynInst, 0, n)
	for len(buf) < n {
		di, ok := m.Step()
		if !ok {
			return nil, fmt.Errorf("workload %s ended after %d instructions", name, len(buf))
		}
		buf = append(buf, di)
	}
	return &loopStream{buf: buf}, nil
}

// stepCycle replicates one iteration of the Run cycle loop (without the
// termination and watchdog bookkeeping, which do not allocate).
func stepCycle(s *Sim) {
	s.commit()
	s.issue()
	s.drainStores()
	s.dispatch()
	s.decodeWrongPath()
	s.fetch()
	if s.occHist != nil {
		s.occHist.Add(s.q.Occupancy())
	}
	s.now++
}

// TestSteadyStateZeroAllocsPerCycle: after warm-up, the whole per-cycle
// loop — fetch, dispatch, operand wakeup, IQ select, execute scheduling,
// store drain, commit — must not touch the heap, on every issue-queue
// organisation and with misses beyond the event calendar's horizon.
func TestSteadyStateZeroAllocsPerCycle(t *testing.T) {
	cases := append(iqOrganisations(), struct {
		name string
		cfg  Config
	}{"base-farmiss", farMissConfig()})
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.stream = recordStream(t, "chess", 4096)
			for i := 0; i < 50_000; i++ {
				stepCycle(s) // warm caches, tables, and buffer capacities
			}
			allocs := testing.AllocsPerRun(20, func() {
				for i := 0; i < 1_000; i++ {
					stepCycle(s)
				}
			})
			if allocs != 0 {
				t.Errorf("%s: %.1f allocations per 1000 steady-state cycles, want 0", tc.name, allocs)
			}
		})
	}
}

// TestStoreBufferFillDrainNoAllocs: repeated fill/drain of the store buffer
// must not allocate or lose capacity. The pre-ring implementation re-sliced
// from the head on every drain and reset with [:0:cap], so the usable
// capacity shrank monotonically and steady state reallocated on refill.
func TestStoreBufferFillDrainNoAllocs(t *testing.T) {
	s, err := New(BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	cap := len(s.storeBuf)
	if cap != BaseConfig().StoreBufferSize {
		t.Fatalf("store buffer sized %d, want %d", cap, BaseConfig().StoreBufferSize)
	}
	fillDrain := func() {
		for s.sbLen < cap {
			s.storeBuf[(s.sbHead+s.sbLen)%cap] = uint64(s.sbLen) * 64
			s.sbLen++
		}
		for s.sbLen > 0 {
			before := s.sbLen
			s.drainStores()
			s.now++
			if s.sbLen >= before {
				t.Fatal("drain made no progress")
			}
		}
	}
	fillDrain() // warm the D-cache MSHR capacity
	if allocs := testing.AllocsPerRun(100, fillDrain); allocs != 0 {
		t.Errorf("%.1f allocations per fill/drain round, want 0", allocs)
	}
	if len(s.storeBuf) != cap {
		t.Errorf("store buffer capacity shrank to %d (was %d)", len(s.storeBuf), cap)
	}
}

// TestNonProfileResetNilBranchProfile: without Config.Profile, the branch
// profile is never allocated; the warm-up reset and the result path must
// tolerate the nil table instead of panicking or materialising one.
func TestNonProfileResetNilBranchProfile(t *testing.T) {
	cfg := BaseConfig()
	cfg.Profile = false
	res := runBench(t, cfg, "chess", 5_000, 10_000) // warmup > 0 forces a mid-run reset
	if res.TopBranches != nil {
		t.Errorf("non-profile run produced TopBranches %v", res.TopBranches)
	}
	if res.IQOccupancy != nil {
		t.Errorf("non-profile run produced an occupancy histogram")
	}
	var nilProf *branchProfile
	nilProf.reset() // must not panic
	if got := nilProf.top(10); got != nil {
		t.Errorf("nil profile top() = %v, want nil", got)
	}
}

// TestProfileResetReusesTables: with Config.Profile, the warm-up reset
// keeps the profiling structures but clears their contents, and the
// measurement window still reports only post-reset branches.
func TestProfileResetReusesTables(t *testing.T) {
	ctx := context.Background()
	cfg := PUBSConfig()
	cfg.Profile = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	histBefore, profBefore := s.occHist, s.brProf
	res, err := s.RunContext(ctx, Stream{M: mustMachine(t, "chess")}, 5_000, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if s.occHist != histBefore || s.brProf != profBefore {
		t.Error("profile reset reallocated the profiling structures")
	}
	if res.IQOccupancy.Total() != uint64(res.Cycles) {
		t.Errorf("histogram holds %d observations over %d measured cycles — warm-up samples leaked in",
			res.IQOccupancy.Total(), res.Cycles)
	}
	var executed uint64
	for _, bs := range res.TopBranches {
		executed += bs.Executed
	}
	if executed == 0 {
		t.Error("profile reset lost the measurement-window branch stats")
	}
	if executed > res.CondBranches {
		t.Errorf("top branches executed %d > %d measured conditional branches — warm-up stats leaked in",
			executed, res.CondBranches)
	}
}

func mustMachine(t *testing.T, name string) *emu.Machine {
	t.Helper()
	m, err := emu.New(workload.MustProgram(name))
	if err != nil {
		t.Fatal(err)
	}
	return m
}
