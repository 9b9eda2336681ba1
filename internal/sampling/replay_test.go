package sampling

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// untraced returns copies of ws with Pre cleared, so RunWindows replays
// each window through runWindow: a fresh emulator restored from the
// window's snapshot feeding a fresh timing model. That live stream is the
// reference the predecoded trace path must equal bit for bit.
func untraced(ws []Window) []Window {
	out := append([]Window(nil), ws...)
	for i := range out {
		out[i].Pre = nil
	}
	return out
}

// traceVsLive runs plan over prog both ways on the same planned windows —
// predecoded traces (serially and on the parallel window pool) and the
// live runWindow reference — and fails on any divergence.
func traceVsLive(t *testing.T, cfg pipeline.Config, prog *isa.Program, plan Config) {
	t.Helper()
	ctx := context.Background()
	ws, err := PlanWindows(ctx, prog, plan)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunWindows(ctx, cfg, prog, plan, untraced(ws))
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunWindows(ctx, cfg, prog, plan, ws)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: trace replay diverged from live decode:\n got %+v\nwant %+v", cfg.Name, got, want)
	}
	par := plan
	par.Parallel = 4
	gotPar, err := RunWindows(ctx, cfg, prog, par, ws)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPar, want) {
		t.Fatalf("%s: parallel trace replay diverged from live decode", cfg.Name)
	}
}

// TestTraceBitIdenticalToLiveDecode: for every machine variant, a sampled
// run over predecoded traces must equal the live runWindow reference on the
// same windows bit for bit — serially and on the parallel window pool.
func TestTraceBitIdenticalToLiveDecode(t *testing.T) {
	for _, vc := range variantCases() {
		t.Run(vc.name, func(t *testing.T) {
			plan := Config{Windows: 3, FastForward: 30_000, Warmup: 5_000, Measure: 10_000}
			traceVsLive(t, vc.cfg, workload.MustProgram(vc.workload), plan)
		})
	}
}

// TestRunSweepBitIdenticalToRunWindows: the window-major sweep scheduler
// must produce, per machine, exactly what RunWindows produces for that
// machine alone — serially and with a worker pool.
func TestRunSweepBitIdenticalToRunWindows(t *testing.T) {
	prog := workload.MustProgram("parser")
	plan := Config{Windows: 3, FastForward: 30_000, Warmup: 5_000, Measure: 10_000}
	store := NewStore()
	ctx := context.Background()
	windows, err := store.Windows(ctx, prog, plan)
	if err != nil {
		t.Fatal(err)
	}

	age := pipeline.PUBSConfig()
	age.Name = "pubs+age"
	age.AgeMatrix = true
	prof := pipeline.PUBSConfig()
	prof.Name = "pubs-profile"
	prof.Profile = true
	cfgs := []pipeline.Config{pipeline.BaseConfig(), pipeline.PUBSConfig(), age, prof}

	want := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		if want[i], err = RunWindows(ctx, cfg, prog, plan, windows); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{0, 3} {
		p := plan
		p.Parallel = workers
		got, errs := RunSweep(ctx, cfgs, prog, p, windows)
		for i := range cfgs {
			if errs[i] != nil {
				t.Fatalf("workers=%d %s: %v", workers, cfgs[i].Name, errs[i])
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("workers=%d %s: sweep result diverged from RunWindows", workers, cfgs[i].Name)
			}
		}
	}
}

// TestRunSweepHaltingProgram: a program that ends mid-plan must truncate
// each machine's sweep result exactly as RunWindows would.
func TestRunSweepHaltingProgram(t *testing.T) {
	b := asm.New("short")
	r2 := isa.R(2)
	b.Li(r2, 100_000)
	b.Label("loop")
	b.Addi(r2, r2, -1)
	b.Bne(r2, isa.RZero, "loop")
	b.Halt()
	prog := b.MustBuild()

	plan := Config{Windows: 10, FastForward: 20_000, Warmup: 5_000, Measure: 30_000, Parallel: 2}
	ctx := context.Background()
	windows, err := PlanWindows(ctx, prog, plan)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []pipeline.Config{pipeline.BaseConfig(), pipeline.PUBSConfig()}
	got, errs := RunSweep(ctx, cfgs, prog, plan, windows)
	for i, cfg := range cfgs {
		want, werr := RunWindows(ctx, cfg, prog, plan, windows)
		if (errs[i] == nil) != (werr == nil) {
			t.Fatalf("%s: sweep err %v, RunWindows err %v", cfg.Name, errs[i], werr)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("%s: truncated sweep diverged from RunWindows", cfg.Name)
		}
		if len(got[i].Windows) == 0 || len(got[i].Windows) >= 10 {
			t.Errorf("%s: windows = %d, want a partial plan", cfg.Name, len(got[i].Windows))
		}
	}
}

// TestObserveCountsWindows: the Observe hook fires once per detailed window
// with a positive duration, and cannot change the result.
func TestObserveCountsWindows(t *testing.T) {
	prog := workload.MustProgram("parser")
	plan := Config{Windows: 3, FastForward: 30_000, Warmup: 5_000, Measure: 10_000}
	want, err := Run(pipeline.BaseConfig(), prog, plan)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seen []time.Duration
	plan.Observe = func(d time.Duration) {
		mu.Lock()
		seen = append(seen, d)
		mu.Unlock()
	}
	got, err := Run(pipeline.BaseConfig(), prog, plan)
	if err != nil {
		t.Fatal(err)
	}
	got2 := got
	if !reflect.DeepEqual(got2, want) {
		t.Fatal("Observe changed the result")
	}
	if len(seen) != len(got.Windows) {
		t.Fatalf("observed %d windows, want %d", len(seen), len(got.Windows))
	}
	for _, d := range seen {
		if d <= 0 {
			t.Fatalf("non-positive window duration %v", d)
		}
	}
}

// TestStoreBudgetEviction: a bounded store stays within its byte budget by
// dropping plans in LRU order, a hit refreshes recency, evicted plans are
// replanned on the next request, and windows handed out before an eviction
// stay fully usable. Encoded memoizes a plan's wire form on its entry and
// counts it as resident, and Adopt never displaces a resident plan.
func TestStoreBudgetEviction(t *testing.T) {
	ctx := context.Background()
	plan := Config{Windows: 2, FastForward: 10_000, Warmup: 1_000, Measure: 2_000}
	progs := []*isa.Program{
		workload.MustProgram("chess"),
		workload.MustProgram("parser"),
		workload.MustProgram("goplay"),
	}

	// Size the budget to hold exactly the first two plans.
	sizer := NewStore()
	var sizes []int64
	for _, p := range progs {
		ws, err := sizer.Windows(ctx, p, plan)
		if err != nil {
			t.Fatal(err)
		}
		if b := windowsBytes(ws); b > 0 {
			sizes = append(sizes, b)
		} else {
			t.Fatal("plan accounted zero bytes")
		}
	}
	if st := sizer.Stats(); st.Evictions != 0 || st.ResidentPlans != 3 {
		t.Fatalf("unbounded store evicted: %+v", st)
	}

	// The first Encoded encodes and accounts the wire bytes; the second
	// returns the memoized bytes.
	keyA := PlanKey(progs[0], plan)
	before := sizer.Stats()
	wire, ok := sizer.Encoded(keyA)
	if !ok {
		t.Fatal("resident plan not encoded")
	}
	if got := sizer.Stats().ResidentBytes; got != before.ResidentBytes+int64(len(wire)) {
		t.Fatalf("resident %d bytes after encoding, want %d + %d wire bytes", got, before.ResidentBytes, len(wire))
	}
	again, ok := sizer.Encoded(keyA)
	if !ok || len(again) != len(wire) || &again[0] != &wire[0] {
		t.Fatal("second Encoded did not return the memoized bytes")
	}

	// Adopt over a resident entry changes nothing: not its windows, its
	// wire form, or any counter.
	keyB := PlanKey(progs[1], plan)
	wsB, err := sizer.Windows(ctx, progs[1], plan)
	if err != nil {
		t.Fatal(err)
	}
	before = sizer.Stats()
	sizer.Adopt(keyB, wsB[:1], []byte("not this plan"))
	if after := sizer.Stats(); after != before {
		t.Fatalf("Adopt over a resident plan changed the store: %+v -> %+v", before, after)
	}
	if got, err := sizer.Windows(ctx, progs[1], plan); err != nil || len(got) != len(wsB) || &got[0] != &wsB[0] {
		t.Fatal("Adopt replaced a resident plan's windows")
	}
	if enc, _ := sizer.Encoded(keyB); string(enc) == "not this plan" {
		t.Fatal("Adopt replaced a resident plan's wire form")
	}

	// Room for A plus whichever of B, C is larger: admitting C forces out
	// exactly one plan.
	budget := sizes[0] + sizes[1]
	if sizes[2] > sizes[1] {
		budget = sizes[0] + sizes[2]
	}
	s := NewStoreBudget(budget)
	wA, err := s.Windows(ctx, progs[0], plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Windows(ctx, progs[1], plan); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Evictions != 0 || st.ResidentBytes != sizes[0]+sizes[1] {
		t.Fatalf("two plans within budget evicted: %+v", st)
	}

	// Touch A so B becomes the LRU victim when C arrives.
	if _, err := s.Windows(ctx, progs[0], plan); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Windows(ctx, progs[2], plan); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatal("over-budget store never evicted")
	}
	if st.ResidentBytes > budget {
		t.Fatalf("resident %d bytes exceeds budget %d", st.ResidentBytes, budget)
	}

	// A was touched, so it must still be a hit; B was evicted and replans.
	plansBefore := s.Stats().Plans
	if _, err := s.Windows(ctx, progs[0], plan); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Plans; got != plansBefore {
		t.Fatalf("recently-used plan was evicted (plans %d -> %d)", plansBefore, got)
	}
	if _, err := s.Windows(ctx, progs[1], plan); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Plans; got != plansBefore+1 {
		t.Fatalf("evicted plan not replanned (plans %d -> %d)", plansBefore, got)
	}

	// Windows handed out before the churn are immutable and still runnable.
	res, err := RunWindows(ctx, pipeline.BaseConfig(), progs[0], plan, wA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 {
		t.Fatal("evicted plan's windows no longer runnable")
	}
}

// TestStoreBudgetKeepsMRU: a single plan larger than the budget stays
// resident — the working set of one cannot thrash itself out of the cache.
func TestStoreBudgetKeepsMRU(t *testing.T) {
	ctx := context.Background()
	plan := Config{Windows: 2, FastForward: 10_000, Warmup: 1_000, Measure: 2_000}
	s := NewStoreBudget(1)
	if _, err := s.Windows(ctx, workload.MustProgram("chess"), plan); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ResidentPlans != 1 || st.Evictions != 0 {
		t.Fatalf("over-budget sole plan not kept: %+v", st)
	}
	if _, err := s.Windows(ctx, workload.MustProgram("chess"), plan); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got.Hits != 1 {
		t.Fatalf("sole resident plan missed: %+v", got)
	}
}

// TestStoreEvictionInFlightSafe: eviction churn from other keys must never
// break an in-flight singleflight plan — every caller blocked on it still
// gets the one shared computation.
func TestStoreEvictionInFlightSafe(t *testing.T) {
	ctx := context.Background()
	s := NewStoreBudget(1) // evict everything but the MRU, constantly
	slow := Config{Windows: 2, FastForward: 1_000_000, Warmup: 1_000, Measure: 2_000}
	churn := Config{Windows: 1, FastForward: 5_000, Warmup: 500, Measure: 1_000}

	const callers = 4
	var started, wg sync.WaitGroup
	outs := make([][]Window, callers)
	started.Add(callers)
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			started.Done()
			w, err := s.Windows(ctx, workload.MustProgram("chess"), slow)
			if err != nil {
				t.Error(err)
				return
			}
			outs[i] = w
		}(i)
	}
	started.Wait()

	// While the slow plan is in flight, plan many other keys against a
	// 1-byte budget: each one evicts its predecessor.
	const churnN = 8
	for k := 0; k < churnN; k++ {
		p := churn
		p.FastForward += uint64(k) // distinct geometry, distinct key
		if _, err := s.Windows(ctx, workload.MustProgram("parser"), p); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	st := s.Stats()
	if st.Plans != 1+churnN {
		t.Fatalf("plans = %d, want %d (in-flight plan recomputed or lost)", st.Plans, 1+churnN)
	}
	if st.Evictions == 0 {
		t.Fatal("churn produced no evictions")
	}
	for i := range outs {
		if len(outs[i]) == 0 {
			t.Fatalf("caller %d got no windows", i)
		}
		// Pointer equality proves every caller shared one computation.
		if outs[i][0].Snap != outs[0][0].Snap || outs[i][0].Pre != outs[0][0].Pre {
			t.Fatalf("caller %d got a different computation", i)
		}
	}
}

// propRNG is a xorshift64* generator for the property test (math/rand is
// deliberately not used anywhere in the repo).
type propRNG uint64

func (r *propRNG) next() uint64 {
	x := *r
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = x
	return uint64(x) * 0x2545F4914F6CDD1D
}

// randomProgram builds a deterministic pseudo-random workload: straight-line
// ALU chains, data-dependent loads and stores into a scrambled data image,
// data-dependent forward branches, all inside one bounded outer loop so the
// program always halts.
func randomProgram(seed uint64) *isa.Program {
	rng := propRNG(seed)
	b := asm.New(fmt.Sprintf("prop-%d", seed))
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
		// Data-dependent load, sometimes a store back to the same slot.
		src := pick()
		b.Andi(addr, src, words-1)
		b.Shli(addr, addr, 3)
		b.Add(addr, addr, dbase)
		b.Ld(tmp, addr, 0)
		b.Xor(pick(), pick(), tmp)
		if rng.next()%2 == 0 {
			b.St(pick(), addr, 0)
		}
		// Data-dependent forward branch over a short run of instructions.
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

// TestReplayPropertyRandomPrograms: for pseudo-random programs, (a) the
// predecode buffer reconstructs the live retired-instruction stream exactly
// — same PCs, branch outcomes, and memory addresses — and (b) sampled runs
// over the recorded traces are bit-identical to the live runWindow
// reference, serially and in parallel. Runs under -race in CI.
func TestReplayPropertyRandomPrograms(t *testing.T) {
	seeds := []uint64{1, 0xDEAD, 0xFEEDFACE}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			prog := randomProgram(seed)

			// (a) Stream identity: record and replay the first stretch.
			const n = 20_000
			rec := emu.MustNew(prog)
			pre := emu.NewPredecode(n)
			for i := 0; i < n; i++ {
				di, ok := rec.Step()
				if !ok {
					break
				}
				pre.Append(di)
			}
			sd := emu.NewStaticDecode(prog.Code)
			live := emu.MustNew(prog)
			for i := 0; i < pre.Len(); i++ {
				want, ok := live.Step()
				if !ok {
					t.Fatalf("live stream ended at %d of %d", i, pre.Len())
				}
				var got emu.DynInst
				pre.Fill(i, sd, &got)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("record %d diverged:\n got %+v\nwant %+v", i, got, want)
				}
			}

			// (b) Sampled-run identity across decode modes.
			plan := Config{Windows: 3, FastForward: 15_000, Warmup: 2_000, Measure: 5_000}
			for _, cfg := range []pipeline.Config{pipeline.BaseConfig(), pipeline.PUBSConfig()} {
				traceVsLive(t, cfg, prog, plan)
			}
		})
	}
}
