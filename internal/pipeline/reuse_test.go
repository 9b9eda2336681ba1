package pipeline

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/emu"
	"repro/internal/workload"
)

// TestResetReuseGolden: for every golden machine variant, running on a Sim
// that already completed a run and was Reset must produce a Result
// bit-identical to a freshly constructed Sim — the contract that lets the
// window-replay scheduler keep one Sim per machine variant alive across a
// whole sweep.
func TestResetReuseGolden(t *testing.T) {
	ctx := context.Background()
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			t.Parallel()
			prog := workload.MustProgram(gc.workload)
			fresh := runBench(t, gc.cfg, gc.workload, goldenWarmup, goldenMeasure)

			s, err := New(gc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.SetStaticCode(prog.Code)
			if _, err := s.RunContext(ctx, Stream{M: emu.MustNew(prog)}, goldenWarmup, goldenMeasure); err != nil {
				t.Fatal(err)
			}
			s.Reset()
			s.SetStaticCode(prog.Code)
			reused, err := s.RunContext(ctx, Stream{M: emu.MustNew(prog)}, goldenWarmup, goldenMeasure)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh, reused) {
				t.Errorf("%s: Reset-reuse diverged from fresh construction:\n fresh:  %+v\n reused: %+v",
					gc.name, fresh, reused)
			}
		})
	}
}

// TestResetReuseAcrossPrograms: a Sim that ran one program, through the
// live emulator or the trace front end, and was Reset must run a different
// program exactly as a fresh Sim does — no staged instruction, in-flight
// record or static code of the first program may leak into the second.
func TestResetReuseAcrossPrograms(t *testing.T) {
	ctx := context.Background()
	progA, progB := workload.MustProgram("chess"), workload.MustProgram("bfs")
	for _, cfg := range []Config{BaseConfig(), PUBSConfig()} {
		fresh := runBench(t, cfg, "bfs", goldenWarmup, goldenMeasure)

		trace := func() InstStream {
			m := emu.MustNew(progA)
			pre := emu.NewPredecode(goldenWarmup + goldenMeasure)
			for i := 0; i < goldenWarmup+goldenMeasure; i++ {
				di, _ := m.Step()
				pre.Append(di)
			}
			return &Replay{Pre: pre, Decode: emu.NewStaticDecode(progA.Code),
				Fallback: func() (InstStream, error) { return Stream{M: m}, nil }}
		}
		for mode, first := range map[string]InstStream{
			"live":  Stream{M: emu.MustNew(progA)},
			"trace": trace(),
		} {
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.SetStaticCode(progA.Code)
			if _, err := s.RunContext(ctx, first, goldenWarmup, goldenMeasure); err != nil {
				t.Fatal(err)
			}
			s.Reset()
			s.SetStaticCode(progB.Code)
			reused, err := s.RunContext(ctx, Stream{M: emu.MustNew(progB)}, goldenWarmup, goldenMeasure)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh, reused) {
				t.Errorf("%s after %s chess: bfs diverged from a fresh Sim:\n fresh:  %+v\n reused: %+v",
					cfg.Name, mode, fresh, reused)
			}
		}
	}
}

// TestResetDropsStagedInstruction: a first run that stops while fetch holds
// a staged instruction (pulled from the stream, its I-cache line still in
// flight) must not leak that record into the next program after Reset.
// Measure windows are tried in turn until a run ends with one staged.
func TestResetDropsStagedInstruction(t *testing.T) {
	ctx := context.Background()
	progA, progB := workload.MustProgram("chess"), workload.MustProgram("bfs")
	for _, cfg := range []Config{BaseConfig(), PUBSConfig()} {
		fresh := runBench(t, cfg, "bfs", goldenWarmup, goldenMeasure)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		staged := uint64(0)
		for measure := uint64(1); measure <= 2_000 && staged == 0; measure++ {
			s.Reset()
			s.SetStaticCode(progA.Code)
			if _, err := s.RunContext(ctx, Stream{M: emu.MustNew(progA)}, 0, measure); err != nil {
				t.Fatal(err)
			}
			if s.hasPending {
				staged = measure
			}
		}
		if staged == 0 {
			t.Fatalf("%s: no chess run of up to 2,000 instructions ended with a staged instruction", cfg.Name)
		}
		s.Reset()
		s.SetStaticCode(progB.Code)
		reused, err := s.RunContext(ctx, Stream{M: emu.MustNew(progB)}, goldenWarmup, goldenMeasure)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, reused) {
			t.Errorf("%s after chess staged at %d: bfs diverged from a fresh Sim:\n fresh:  %+v\n reused: %+v",
				cfg.Name, staged, fresh, reused)
		}
	}
}

// TestTraceReplayGolden: replaying a predecoded trace through the
// trace-driven front end must reproduce the live-emulation Result
// bit-identically for every golden machine variant.
func TestTraceReplayGolden(t *testing.T) {
	ctx := context.Background()
	// Record once per workload: the trace covers the run target plus enough
	// slack for the front end's bounded overfetch.
	const slack = 2048
	traces := map[string]*emu.Predecode{}
	decodes := map[string]*emu.StaticDecode{}
	for _, name := range []string{"chess", "goplay"} {
		prog := workload.MustProgram(name)
		m := emu.MustNew(prog)
		n := goldenWarmup + goldenMeasure + slack
		pre := emu.NewPredecode(n)
		for i := 0; i < n; i++ {
			di, ok := m.Step()
			if !ok {
				break
			}
			pre.Append(di)
		}
		traces[name] = pre
		decodes[name] = emu.NewStaticDecode(prog.Code)
	}

	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			t.Parallel()
			prog := workload.MustProgram(gc.workload)
			live := runBench(t, gc.cfg, gc.workload, goldenWarmup, goldenMeasure)

			pre := traces[gc.workload]
			rp := &Replay{
				Pre:    pre,
				Decode: decodes[gc.workload],
				Fallback: func() (InstStream, error) {
					fm := emu.MustNew(prog)
					fm.Run(uint64(pre.Len()))
					return Stream{M: fm}, nil
				},
			}
			s, err := New(gc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.SetStaticCode(prog.Code)
			replayed, err := s.RunContext(ctx, rp, goldenWarmup, goldenMeasure)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(live, replayed) {
				t.Errorf("%s: trace replay diverged from live decode:\n live:   %+v\n replay: %+v",
					gc.name, live, replayed)
			}
			if fp, want := goldenFingerprint(replayed), goldenTable[gc.name]; replayed.Cycles != want.cycles || fp != want.fingerprint {
				t.Errorf("%s: replay cycles=%d fingerprint=0x%x, want cycles=%d fingerprint=0x%x",
					gc.name, replayed.Cycles, fp, want.cycles, want.fingerprint)
			}
		})
	}
}

// TestReplayFallback: a trace shorter than the run target must hand off to
// the live fallback stream mid-run and still match live decode exactly.
func TestReplayFallback(t *testing.T) {
	ctx := context.Background()
	prog := workload.MustProgram("chess")
	live := runBench(t, PUBSConfig(), "chess", goldenWarmup, goldenMeasure)

	// Record only a quarter of the needed stretch to force the handoff.
	m := emu.MustNew(prog)
	n := (goldenWarmup + goldenMeasure) / 4
	pre := emu.NewPredecode(n)
	for i := 0; i < n; i++ {
		di, ok := m.Step()
		if !ok {
			break
		}
		pre.Append(di)
	}
	fallbacks := 0
	rp := &Replay{
		Pre:    pre,
		Decode: emu.NewStaticDecode(prog.Code),
		Fallback: func() (InstStream, error) {
			fallbacks++
			fm := emu.MustNew(prog)
			fm.Run(uint64(pre.Len()))
			return Stream{M: fm}, nil
		},
	}
	s, err := New(PUBSConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.SetStaticCode(prog.Code)
	replayed, err := s.RunContext(ctx, rp, goldenWarmup, goldenMeasure)
	if err != nil {
		t.Fatal(err)
	}
	if fallbacks != 1 {
		t.Errorf("fallback invoked %d times, want exactly 1", fallbacks)
	}
	if !reflect.DeepEqual(live, replayed) {
		t.Errorf("fallback handoff diverged from live decode:\n live:   %+v\n replay: %+v", live, replayed)
	}
}

// TestReplayNoFallbackError: exhausting a non-halted trace with no fallback
// must surface an error rather than silently truncating the run.
func TestReplayNoFallbackError(t *testing.T) {
	ctx := context.Background()
	prog := workload.MustProgram("chess")
	m := emu.MustNew(prog)
	pre := emu.NewPredecode(64)
	for i := 0; i < 64; i++ {
		di, ok := m.Step()
		if !ok {
			break
		}
		pre.Append(di)
	}
	rp := &Replay{Pre: pre, Decode: emu.NewStaticDecode(prog.Code)}
	s, err := New(BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunContext(ctx, rp, 0, goldenMeasure); err == nil {
		t.Fatal("expected an error from a non-halted trace with no fallback")
	}
}
