package sampling

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/workload"
)

// seedBase is the geometry the seeded-plan tests plan first; its window
// snapshots seed every later geometry's pass over the same program.
var seedBase = Config{Windows: 4, FastForward: 20_000, Warmup: 1_000, Measure: 2_000}

// mustEncode serializes a plan or fails the test.
func mustEncode(t *testing.T, ws []Window) []byte {
	t.Helper()
	data, err := EncodePlan(ws)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkSeededIdentical plans next through s and requires its wire form to
// equal an unseeded PlanWindows pass's byte for byte.
func checkSeededIdentical(t *testing.T, s *Store, prog *isa.Program, next Config) {
	t.Helper()
	ctx := context.Background()
	got, err := s.Windows(ctx, prog, next)
	if err != nil {
		t.Fatal(err)
	}
	want, err := PlanWindows(ctx, prog, next)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustEncode(t, got), mustEncode(t, want)) {
		t.Fatalf("%s %+v: seeded plan's wire form differs from an unseeded pass", prog.Name, next)
	}
}

// TestSeededPlanBitIdentical: for every workload, a plan seeded from
// another geometry's resident snapshots encodes to exactly the bytes of an
// unseeded pass — a longer fast-forward, more windows, a different warm-up
// and measure, and no fast-forward at all (which leaves nothing to seed).
func TestSeededPlanBitIdentical(t *testing.T) {
	more := seedBase
	more.Windows = 8
	warm := seedBase
	warm.Warmup, warm.Measure = 1_500, 3_000
	ff64 := seedBase
	ff64.FastForward += 64
	ff0 := seedBase
	ff0.FastForward = 0
	cases := []struct {
		name   string
		next   Config
		seeded uint64
	}{
		{"fast-forward+64", ff64, 1},
		{"4to8windows", more, 1},
		{"warmup+measure", warm, 1},
		{"fast-forward0", ff0, 0},
	}
	for _, info := range workload.All() {
		prog := workload.MustProgram(info.Name)
		for _, tc := range cases {
			s := NewStore()
			if _, err := s.Windows(context.Background(), prog, seedBase); err != nil {
				t.Fatal(err)
			}
			checkSeededIdentical(t, s, prog, tc.next)
			if st := s.Stats(); st.Plans != 2 || st.Seeded != tc.seeded {
				t.Errorf("%s %s: plans %d seeded %d, want 2 and %d", info.Name, tc.name, st.Plans, st.Seeded, tc.seeded)
			}
		}
	}
}

// TestSeededPlanHaltingProgram: a seeded pass keeps the truncation rules —
// the plan ends when the program halts during a gap, and a window the
// program halts inside is kept — exactly as an unseeded pass does.
func TestSeededPlanHaltingProgram(t *testing.T) {
	b := asm.New("short")
	r2 := isa.R(2)
	b.Li(r2, 100_000)
	b.Label("loop")
	b.Addi(r2, r2, -1)
	b.Bne(r2, isa.RZero, "loop")
	b.Halt()
	prog := b.MustBuild()

	// About 200K instructions: the base plan's fourth window (185K–220K)
	// holds the halt.
	base := Config{Windows: 10, FastForward: 20_000, Warmup: 5_000, Measure: 30_000}
	// Windows of 25K after 20,064-instruction gaps: the fifth gap, from
	// about 180K, runs past the halt, seeded from the base's 185K snapshot.
	inGap := Config{Windows: 10, FastForward: 20_064, Warmup: 5_000, Measure: 20_000}
	// The base's window starts again, reached from the exact snapshots.
	inWindow := Config{Windows: 10, FastForward: 20_000, Warmup: 6_000, Measure: 29_000}

	ctx := context.Background()
	for _, next := range []Config{inGap, inWindow} {
		s := NewStore()
		ws, err := s.Windows(ctx, prog, base)
		if err != nil {
			t.Fatal(err)
		}
		if last := ws[len(ws)-1].Pre; len(ws) != 4 || !last.Halted() {
			t.Fatalf("base plan has %d windows; want 4, the last holding the halt", len(ws))
		}
		checkSeededIdentical(t, s, prog, next)
		if st := s.Stats(); st.Seeded != 1 {
			t.Fatalf("%+v: %d seeded passes, want 1", next, st.Seeded)
		}
	}
	got, _ := PlanWindows(ctx, prog, inGap)
	if n := len(got); n != 4 || got[n-1].Pre.Halted() {
		t.Fatalf("in-gap plan has %d windows; want 4 complete ones", n)
	}
}

// TestSeedChoice: a seed is the latest snapshot at or before the window
// start and after the current position, of the same program, from a
// resident entry whose program a local Windows call has proven. Later
// snapshots, other programs' snapshots and a peer-adopted plan nobody has
// asked for locally are never used.
func TestSeedChoice(t *testing.T) {
	ctx := context.Background()
	chess, parser := workload.MustProgram("chess"), workload.MustProgram("parser")
	dChess := digestProgram(chess)

	s := NewStore()
	base, err := s.Windows(ctx, chess, seedBase)
	if err != nil {
		t.Fatal(err)
	}
	first, second := base[0].Snap, base[1].Snap
	for _, tc := range []struct {
		after, upTo uint64
		want        *emu.Snapshot
	}{
		{0, first.Seq() - 1, nil},           // every snapshot lies past the window start
		{0, first.Seq(), first},             // at the window start
		{0, second.Seq() - 1, first},        // the latest one at or before it
		{first.Seq(), second.Seq(), second}, // strictly after the current position
		{first.Seq(), second.Seq() - 1, nil},
	} {
		if got := s.seed(dChess, tc.after, tc.upTo); got != tc.want {
			t.Errorf("seed(%d, %d) = %v, want %v", tc.after, tc.upTo, got, tc.want)
		}
	}
	if got := s.seed(digestProgram(parser), 0, ^uint64(0)); got != nil {
		t.Error("another program's snapshot seeded parser")
	}
	ff64 := seedBase
	ff64.FastForward += 64
	if _, err := s.Windows(ctx, parser, ff64); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Seeded != 0 {
		t.Fatalf("parser's pass was seeded from chess: %+v", st)
	}

	// A peer-adopted plan seeds nothing until a local call resolves to it.
	adopter := NewStore()
	adopter.Adopt(PlanKey(chess, seedBase), base, mustEncode(t, base))
	if got := adopter.seed(dChess, 0, ^uint64(0)); got != nil {
		t.Fatal("an adopted plan seeded before any local call proved its program")
	}
	checkSeededIdentical(t, adopter, chess, ff64)
	if st := adopter.Stats(); st.Plans != 1 || st.Seeded != 0 {
		t.Fatalf("unproven adopted plan: plans %d seeded %d, want 1 and 0", st.Plans, st.Seeded)
	}
	if _, err := adopter.Windows(ctx, chess, seedBase); err != nil {
		t.Fatal(err)
	}
	if got := adopter.seed(dChess, 0, first.Seq()); got != first {
		t.Fatal("a proven adopted plan does not seed")
	}
}

// TestSeedEvictedMidPass: a seed entry evicted while a seeded pass still
// runs leaves the pass intact — its snapshots are immutable — and stops
// seeding from then on.
func TestSeedEvictedMidPass(t *testing.T) {
	ctx := context.Background()
	chess, parser := workload.MustProgram("chess"), workload.MustProgram("parser")
	d := digestProgram(chess)
	s := NewStoreBudget(1) // everything but the most recent plan is evicted
	if _, err := s.Windows(ctx, chess, seedBase); err != nil {
		t.Fatal(err)
	}
	next := seedBase
	next.Windows = 8
	evicted := false
	got, seeded, err := planWindows(ctx, chess, next, func(after, upTo uint64) *emu.Snapshot {
		snap := s.seed(d, after, upTo)
		if snap != nil && !evicted {
			// Planning parser evicts the only chess entry.
			if _, err := s.Windows(ctx, parser, seedBase); err != nil {
				t.Error(err)
			}
			evicted = true
		}
		return snap
	})
	if err != nil {
		t.Fatal(err)
	}
	if !seeded || !evicted {
		t.Fatalf("seeded %v, evicted %v: the pass never used a seed", seeded, evicted)
	}
	if s.seed(d, 0, ^uint64(0)) != nil {
		t.Fatal("an evicted entry still seeds")
	}
	want, err := PlanWindows(ctx, chess, next)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustEncode(t, got), mustEncode(t, want)) {
		t.Fatal("plan seeded from an entry evicted mid-pass differs from an unseeded pass")
	}
}

// TestSeededPlanConcurrentChurn: geometries of one program planned at once
// while other programs churn a one-byte budget all match unseeded passes.
// Run under -race it checks the seed index against admit and evict.
func TestSeededPlanConcurrentChurn(t *testing.T) {
	ctx := context.Background()
	chess := workload.MustProgram("chess")
	s := NewStoreBudget(1)
	plans := make([]Config, 6)
	for i := range plans {
		plans[i] = seedBase
		plans[i].FastForward += uint64(i) * 64
	}
	var wg sync.WaitGroup
	got := make([][]Window, len(plans))
	for i, p := range plans {
		wg.Add(1)
		go func(i int, p Config) {
			defer wg.Done()
			ws, err := s.Windows(ctx, chess, p)
			if err != nil {
				t.Error(err)
			}
			got[i] = ws
		}(i, p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, wl := range []string{"parser", "goplay", "matmul"} {
			if _, err := s.Windows(ctx, workload.MustProgram(wl), seedBase); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	for i, p := range plans {
		want, err := PlanWindows(ctx, chess, p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustEncode(t, got[i]), mustEncode(t, want)) {
			t.Fatalf("%+v: concurrently seeded plan differs from an unseeded pass", p)
		}
	}
}

// TestSeededCounter: Seeded counts exactly the local passes that started a
// gap from a snapshot; hits, other programs' first plans and passes with
// nothing to seed leave it alone, and Plans counts every local pass.
func TestSeededCounter(t *testing.T) {
	ctx := context.Background()
	chess, parser := workload.MustProgram("chess"), workload.MustProgram("parser")
	ff64 := seedBase
	ff64.FastForward += 64
	ff0 := seedBase
	ff0.FastForward = 0
	s := NewStore()
	for _, step := range []struct {
		prog          *isa.Program
		plan          Config
		plans, seeded uint64
	}{
		{chess, seedBase, 1, 0}, // first geometry: nothing resident
		{chess, ff64, 2, 1},     // seeded
		{chess, ff64, 2, 1},     // a hit
		{parser, ff64, 3, 1},    // another program's first plan
		{chess, ff0, 4, 1},      // no gap to seed
	} {
		if _, err := s.Windows(ctx, step.prog, step.plan); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Plans != step.plans || st.Seeded != step.seeded {
			t.Fatalf("%s %+v: plans %d seeded %d, want %d and %d",
				step.prog.Name, step.plan, st.Plans, st.Seeded, step.plans, step.seeded)
		}
	}
}
