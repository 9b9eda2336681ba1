package pipeline

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/workload"
)

// TestGoldenEquivalenceSkipOff: the poll-mode loop (noIdleSkip) must still
// reproduce the golden table for every machine variant. Together with
// TestGoldenEquivalence (which runs the skipping default) this pins both
// modes to the same pre-rewrite fingerprints — the bit-identity contract of
// DESIGN.md §14.
func TestGoldenEquivalenceSkipOff(t *testing.T) {
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			t.Parallel()
			cfg := gc.cfg
			cfg.noIdleSkip = true
			res := runBench(t, cfg, gc.workload, goldenWarmup, goldenMeasure)
			fp := goldenFingerprint(res)
			want, ok := goldenTable[gc.name]
			if !ok {
				t.Fatalf("no golden entry for %s", gc.name)
			}
			if res.Cycles != want.cycles || fp != want.fingerprint {
				t.Errorf("%s: poll mode cycles=%d fingerprint=0x%x, want cycles=%d fingerprint=0x%x — "+
					"idle skipping and polling disagree", gc.name, res.Cycles, fp, want.cycles, want.fingerprint)
			}
		})
	}
}

// TestTraceReplaySkipEquivalence: on the trace-driven front end, a skipping
// run must equal a poll-mode run bit for bit. The replay path exercises
// fetch-queue aging and redirect thresholds differently from live decode,
// so it gets its own differential.
func TestTraceReplaySkipEquivalence(t *testing.T) {
	const slack = 2048
	for _, gc := range []goldenCase{
		{"base-random", "chess", BaseConfig()},
		{"pubs-goplay", "goplay", PUBSConfig()},
	} {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			t.Parallel()
			prog := workload.MustProgram(gc.workload)
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
			dec := emu.NewStaticDecode(prog.Code)

			run := func(poll bool) Result {
				cfg := gc.cfg
				cfg.noIdleSkip = poll
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				s.SetStaticCode(prog.Code)
				rp := &Replay{
					Pre:    pre,
					Decode: dec,
					Fallback: func() (InstStream, error) {
						fm := emu.MustNew(prog)
						fm.Run(uint64(pre.Len()))
						return Stream{M: fm}, nil
					},
				}
				res, err := s.Run(rp, goldenWarmup, goldenMeasure)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			skip, poll := run(false), run(true)
			if !reflect.DeepEqual(skip, poll) {
				t.Errorf("%s: trace replay diverged between skip and poll:\n skip: %+v\n poll: %+v",
					gc.name, skip, poll)
			}
		})
	}
}

// skipPropRNG is the xorshift64* generator of the sampling property test
// (math/rand is deliberately not used anywhere in the repo).
type skipPropRNG uint64

func (r *skipPropRNG) next() uint64 {
	x := *r
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = x
	return uint64(x) * 0x2545F4914F6CDD1D
}

// skipRandomProgram builds a deterministic pseudo-random workload:
// straight-line ALU chains, data-dependent loads and stores into a
// scrambled data image, data-dependent forward branches, all inside one
// bounded outer loop so the program always halts. It mirrors the sampling
// package's property-test generator so the differential below sees program
// shapes nobody hand-tuned for the skip.
func skipRandomProgram(seed uint64) *isa.Program {
	rng := skipPropRNG(seed)
	b := asm.New(fmt.Sprintf("skipprop-%d", seed))
	const words = 256
	vals := make([]uint64, words)
	for i := range vals {
		vals[i] = rng.next()
	}
	base := b.Words(vals...)

	ctr, dbase := isa.R(2), isa.R(3)
	scratch := []isa.Reg{isa.R(4), isa.R(5), isa.R(6), isa.R(7), isa.R(8), isa.R(9), isa.R(10), isa.R(11)}
	addr, tmp := isa.R(12), isa.R(13)

	for i, r := range scratch {
		b.Li(r, int64(rng.next()>>(8+i)))
	}
	b.Li(ctr, int64(1200+rng.next()%1200))
	b.Li(dbase, int64(base))
	b.Label("outer")
	labels := 0
	pick := func() isa.Reg { return scratch[rng.next()%uint64(len(scratch))] }
	for blk := 0; blk < 4+int(rng.next()%4); blk++ {
		for k := 0; k < 3+int(rng.next()%5); k++ {
			rd, rs1, rs2 := pick(), pick(), pick()
			switch rng.next() % 6 {
			case 0:
				b.Add(rd, rs1, rs2)
			case 1:
				b.Sub(rd, rs1, rs2)
			case 2:
				b.Xor(rd, rs1, rs2)
			case 3:
				b.And(rd, rs1, rs2)
			case 4:
				b.Or(rd, rs1, rs2)
			default:
				b.Mul(rd, rs1, rs2)
			}
		}
		src := pick()
		b.Andi(addr, src, words-1)
		b.Shli(addr, addr, 3)
		b.Add(addr, addr, dbase)
		b.Ld(tmp, addr, 0)
		b.Xor(pick(), pick(), tmp)
		if rng.next()%2 == 0 {
			b.St(pick(), addr, 0)
		}
		lbl := fmt.Sprintf("skip%d", labels)
		labels++
		b.Andi(tmp, pick(), 1)
		b.Bne(tmp, isa.RZero, lbl)
		b.Add(pick(), pick(), tmp)
		b.Sub(pick(), pick(), tmp)
		b.Label(lbl)
	}
	b.Addi(ctr, ctr, -1)
	b.Bne(ctr, isa.RZero, "outer")
	b.Halt()
	return b.MustBuild()
}

// fetchDrainProgram wedges the backend on a data-dependent load chase
// (every load misses far into memory) and follows it with a block of
// independent ALU work: while the chase blocks commit and the window
// fills, dispatch stalls and fetch alone drains ready I-lines into the
// queue — the fetch-drain shape, where one stage acts through most of a
// miss shadow and the skip only gets the cycles after the queue fills.
func fetchDrainProgram() *isa.Program {
	rng := skipPropRNG(0x5EED)
	b := asm.New("fetch-drain")
	const words = 512
	vals := make([]uint64, words)
	for i := range vals {
		vals[i] = rng.next()
	}
	base := b.Words(vals...)

	ctr, dbase, x, addr := isa.R(2), isa.R(3), isa.R(4), isa.R(5)
	alu := []isa.Reg{isa.R(6), isa.R(7), isa.R(8), isa.R(9)}
	b.Li(ctr, 400)
	b.Li(dbase, int64(base))
	b.Li(x, 1)
	for i, r := range alu {
		b.Li(r, int64(i+1))
	}
	b.Label("loop")
	// Dependent chase, 4 links deep per iteration.
	for i := 0; i < 4; i++ {
		b.Andi(addr, x, words-1)
		b.Shli(addr, addr, 3)
		b.Add(addr, addr, dbase)
		b.Ld(x, addr, 0)
	}
	// Independent ALU block: plenty to fetch while the chase stalls.
	for i := 0; i < 40; i++ {
		r := alu[i%len(alu)]
		b.Add(r, r, alu[(i+1)%len(alu)])
	}
	b.Addi(ctr, ctr, -1)
	b.Bne(ctr, isa.RZero, "loop")
	b.Halt()
	return b.MustBuild()
}

// commitRunProgram loops over a straight-line ALU body spanning many
// instruction lines: with a tiny L1I (withTinyL1I) every traversal
// misses, freezing the front end while the already-dispatched,
// quickly-completed backlog retires at commit width from an empty fetch
// queue — the commit-run shape. Loads and stores are absent so
// retirement never arms the store drain.
func commitRunProgram() *isa.Program {
	b := asm.New("commit-run")
	ctr := isa.R(2)
	alu := []isa.Reg{isa.R(3), isa.R(4), isa.R(5), isa.R(6), isa.R(7), isa.R(8)}
	b.Li(ctr, 600)
	for i, r := range alu {
		b.Li(r, int64(i+1))
	}
	b.Label("loop")
	for i := 0; i < 192; i++ {
		r := alu[i%len(alu)]
		b.Add(r, r, alu[(i+1)%len(alu)])
	}
	b.Addi(ctr, ctr, -1)
	b.Bne(ctr, isa.RZero, "loop")
	b.Halt()
	return b.MustBuild()
}

// withTinyL1I gives cfg a two-line L1I: every traversal of
// commitRunProgram's loop body misses, and the L2 hit latency freezes
// fetch while the ROB backlog retires.
func withTinyL1I(cfg Config, name string) Config {
	cfg.Name = name
	cfg.L1I = cache.Config{Name: "L1I", Sets: 1, Ways: 2, LineBytes: 64, HitLat: 0, MSHRs: 2}
	return cfg
}

// skipInput is one (machine, program) pair a skip-vs-poll test runs.
type skipInput struct {
	name string
	cfg  Config
	prog *isa.Program
}

// runSkipVsPoll runs every input twice, skipping and polling, in parallel
// subtests: the two runs must agree on the entire Result.
func runSkipVsPoll(t *testing.T, inputs []skipInput) {
	t.Helper()
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			t.Parallel()
			skip, err := RunProgram(in.cfg, in.prog, 2_000, 8_000)
			if err != nil {
				t.Fatal(err)
			}
			poll := in.cfg
			poll.noIdleSkip = true
			want, err := RunProgram(poll, in.prog, 2_000, 8_000)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(skip, want) {
				t.Errorf("%s: skip and poll diverged:\n skip: %+v\n poll: %+v", in.name, skip, want)
			}
		})
	}
}

// tinyFetchConfig is the base machine with a one-wide fetch: the fetch
// queue fills almost at once.
func tinyFetchConfig() Config {
	cfg := BaseConfig()
	cfg.Name = "base-tinyfq"
	cfg.FetchWidth = 1
	return cfg
}

// TestIdleSkipDifferentialRandomPrograms: a skipping run and a poll-mode
// run must agree on the entire Result. The programs are pseudo-random on
// both anchor machines, a profiled PUBS variant (the span-integrated
// histogram path) and a one-wide fetch. Runs under -race in CI.
func TestIdleSkipDifferentialRandomPrograms(t *testing.T) {
	seeds := []uint64{1, 0xDEAD, 0xFEEDFACE, 7, 0xBADF00D, 0xC0FFEE}
	if testing.Short() {
		seeds = seeds[:1]
	}
	profiled := PUBSConfig()
	profiled.Name = "pubs-profile"
	profiled.Profile = true
	var inputs []skipInput
	for _, seed := range seeds {
		for _, cfg := range []Config{BaseConfig(), PUBSConfig(), profiled, tinyFetchConfig()} {
			inputs = append(inputs, skipInput{fmt.Sprintf("%s/seed%x", cfg.Name, seed), cfg, skipRandomProgram(seed)})
		}
	}
	runSkipVsPoll(t, inputs)
}

// farMissConfig is the base machine with a memory latency beyond the
// event calendar's horizon: every miss completion, and the ready cycle of
// every consumer waiting on one, starts out in the calendar's far tier.
func farMissConfig() Config {
	cfg := BaseConfig()
	cfg.Name = "base-farmiss"
	cfg.MemLatency = 10_000
	return cfg
}

// TestIdleSkipDifferentialShapes: skip and poll must agree on the
// fetch-drain and commit-run shapes, where one stage keeps acting while
// the rest of the machine waits on a threshold, so the skip only gets the
// cycles at the edges of each stall. The far-miss variant runs the
// fetch-drain shape with misses longer than the calendar's horizon. The
// memory-bound suite workloads, where skipping covers the most cycles,
// run on both anchor machines.
func TestIdleSkipDifferentialShapes(t *testing.T) {
	// Long memory latency amplifies the backend wedge under the chase;
	// the one-wide variant also pins the queue-full boundary.
	longMiss := BaseConfig()
	longMiss.Name = "base-longmiss"
	longMiss.MemLatency = 1_000
	tinyLongMiss := tinyFetchConfig()
	tinyLongMiss.MemLatency = 1_000
	inputs := []skipInput{
		{"fetch-drain", longMiss, fetchDrainProgram()},
		{"fetch-drain-tinyfq", tinyLongMiss, fetchDrainProgram()},
		{"fetch-drain-farmiss", farMissConfig(), fetchDrainProgram()},
		{"commit-run", withTinyL1I(BaseConfig(), "base-tinyl1i"), commitRunProgram()},
		{"commit-run-pubs", withTinyL1I(PUBSConfig(), "pubs-tinyl1i"), commitRunProgram()},
	}
	for _, wl := range []string{"sparse", "treewalk", "quantsim", "bfs"} {
		for _, cfg := range []Config{BaseConfig(), PUBSConfig()} {
			inputs = append(inputs, skipInput{wl + "-" + cfg.Name, cfg, workload.MustProgram(wl)})
		}
	}
	runSkipVsPoll(t, inputs)
}

// TestIdleSkipWatchdogLongMiss: a memory latency far beyond the watchdog
// budget must not trip the liveness watchdog when the stalled span is
// provably idle — skipped cycles are proven progress, not a hang. The same
// configuration in poll mode does trip (every cycle of the miss shadow is
// walked and counted), which is exactly the false positive the skip-aware
// rebase removes; the poll-mode expectation pins that contrast so a future
// change to either semantic is a conscious one.
func TestIdleSkipWatchdogLongMiss(t *testing.T) {
	cfg := BaseConfig()
	cfg.MemLatency = 50_000
	cfg.WatchdogCycles = 10_000

	if _, err := RunProgram(cfg, workload.MustProgram("treewalk"), 500, 1_500); err != nil {
		t.Errorf("skip mode: long miss spuriously tripped the watchdog: %v", err)
	}

	cfg.noIdleSkip = true
	_, err := RunProgram(cfg, workload.MustProgram("treewalk"), 500, 1_500)
	var dead *DeadlockError
	if !errors.As(err, &dead) {
		t.Errorf("poll mode: expected the 50K-cycle miss to exhaust the 10K watchdog, got %v", err)
	}
}

// progressCadence runs prog on cfg with a WithProgress hook, skipping and
// polling: the hook must fire, and at the same committed-instruction counts
// in both modes — it keys on commit progress, which skipped (commit-free)
// spans cannot move.
func progressCadence(t *testing.T, cfg Config, prog *isa.Program) {
	t.Helper()
	run := func(poll bool) []uint64 {
		cfg := cfg
		cfg.noIdleSkip = poll
		var fired []uint64
		ctx := WithProgress(context.Background(), 1_000, func(committed uint64) {
			fired = append(fired, committed)
		})
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.SetStaticCode(prog.Code)
		if _, err := s.RunContext(ctx, Stream{M: emu.MustNew(prog)}, 1_000, 6_000); err != nil {
			t.Fatal(err)
		}
		return fired
	}
	skip, poll := run(false), run(true)
	if len(skip) == 0 {
		t.Fatal("progress hook never fired")
	}
	if !reflect.DeepEqual(skip, poll) {
		t.Errorf("progress cadence diverged:\n skip: %v\n poll: %v", skip, poll)
	}
}

// TestIdleSkipProgressCadence: the progress hook fires at the same commit
// counts whether a memory-bound run skips or polls.
func TestIdleSkipProgressCadence(t *testing.T) {
	progressCadence(t, PUBSConfig(), workload.MustProgram("sparse"))
}

// TestIdleSkipProgressCadenceCommitRun: the commit-run shape retires long
// runs back to back, so the hook fires in cycles that sit right next to
// skipped spans.
func TestIdleSkipProgressCadenceCommitRun(t *testing.T) {
	progressCadence(t, withTinyL1I(BaseConfig(), "base-tinyl1i"), commitRunProgram())
}

// TestSkipStatsTelemetry: a memory-bound run must actually skip (the
// telemetry is how the benchmark harness and EXPERIMENTS.md sanity-check
// the machinery), a poll-mode run must never skip, and the telemetry must
// stay out of Result.
func TestSkipStatsTelemetry(t *testing.T) {
	prog := workload.MustProgram("sparse")
	run := func(poll bool) (Result, uint64, uint64) {
		cfg := BaseConfig()
		cfg.noIdleSkip = poll
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.SetStaticCode(prog.Code)
		res, err := s.Run(Stream{M: emu.MustNew(prog)}, 1_000, 6_000)
		if err != nil {
			t.Fatal(err)
		}
		spans, cycles := s.SkipStats()
		return res, spans, cycles
	}
	skipRes, spans, cycles := run(false)
	if spans == 0 || cycles == 0 {
		t.Errorf("sparse run did not skip: spans=%d cycles=%d", spans, cycles)
	}
	pollRes, pollSpans, pollCycles := run(true)
	if pollSpans != 0 || pollCycles != 0 {
		t.Errorf("poll mode skipped: spans=%d cycles=%d", pollSpans, pollCycles)
	}
	if !reflect.DeepEqual(skipRes, pollRes) {
		t.Errorf("telemetry leaked into Result:\n skip: %+v\n poll: %+v", skipRes, pollRes)
	}
}

// recordProgLoop is recordStream for an arbitrary program: it captures the
// first n committed-order instructions and loops them forever. n must be
// comfortably below the program's dynamic length so a Halt never enters
// the loop buffer.
func recordProgLoop(t *testing.T, prog *isa.Program, n int) *loopStream {
	t.Helper()
	m, err := emu.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]emu.DynInst, 0, n)
	for len(buf) < n {
		di, ok := m.Step()
		if !ok {
			t.Fatalf("program ended after %d instructions, want %d", len(buf), n)
		}
		buf = append(buf, di)
	}
	return &loopStream{buf: buf}
}

// TestWakeHeapNeverLate audits the event heap against the pre-heap
// threshold rescan: at the end of every simulated cycle, nextWake (heap)
// must not report a later wake than nextWakeScan (ground truth) — a later
// wake would let a skip jump across a live threshold. Earlier is fine
// (spurious wakeups only shorten skips). Driven by a branch-heavy
// workload, a memory-bound one, and pseudo-random programs, on both
// anchor machines.
func TestWakeHeapNeverLate(t *testing.T) {
	const cycles = 30_000
	streams := map[string]func(t *testing.T) *loopStream{
		"chess":    func(t *testing.T) *loopStream { return recordStream(t, "chess", 4096) },
		"treewalk": func(t *testing.T) *loopStream { return recordStream(t, "treewalk", 4096) },
		"rand7":    func(t *testing.T) *loopStream { return recordProgLoop(t, skipRandomProgram(7), 4096) },
		"randBEEF": func(t *testing.T) *loopStream { return recordProgLoop(t, skipRandomProgram(0xBEEF), 4096) },
	}
	for _, cfg := range []Config{BaseConfig(), PUBSConfig()} {
		for name, mk := range streams {
			cfg, name, mk := cfg, name, mk
			t.Run(fmt.Sprintf("%s/%s", cfg.Name, name), func(t *testing.T) {
				t.Parallel()
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				s.stream = mk(t)
				for c := 0; c < cycles; c++ {
					s.act = false
					s.commit()
					s.issue()
					s.drainStores()
					s.dispatch()
					s.decodeWrongPath()
					s.fetch()
					scan := s.nextWakeScan()
					heap := s.nextWake()
					if heap > scan {
						t.Fatalf("cycle %d: heap wake %d later than scanned wake %d (act=%t)",
							s.now, heap, scan, s.act)
					}
					s.now++
				}
			})
		}
	}
}
