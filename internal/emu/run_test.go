package emu

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/workload"
)

// checkRecords holds a stepped record stream to the DynInst contract,
// independently of the interpreter: Seq numbers counting up from seq0, each
// record fetched from its predecessor's NextPC, and per-kind
// Taken/Target/NextPC rules. Run builds no records, so these rules are what pins down the
// control flow both Run and Step share.
func checkRecords(t *testing.T, prog *isa.Program, seq0 uint64, dis []DynInst) {
	t.Helper()
	for i, di := range dis {
		in := di.Inst
		fall := di.PC + 4
		ok := di.Seq == seq0+uint64(i) && di.PC == isa.PC(di.Idx) && in == prog.Code[di.Idx] && di.Class == in.Class()
		if i > 0 {
			ok = ok && di.PC == dis[i-1].NextPC
		}
		switch {
		case in.Op == isa.Halt:
			ok = ok && !di.Taken && di.Target == 0 && di.NextPC == di.PC
		case in.IsCondBranch():
			want := fall
			if di.Taken {
				want = isa.PC(int(in.Imm))
			}
			ok = ok && di.Target == isa.PC(int(in.Imm)) && di.NextPC == want
		case in.IsControl():
			ok = ok && di.Taken && di.Target == di.NextPC
		default:
			ok = ok && !di.Taken && di.Target == 0 && di.NextPC == fall
		}
		if !in.IsMem() {
			ok = ok && di.Addr == 0
		}
		if !ok {
			t.Fatalf("record %d breaks the DynInst contract: %+v", i, di)
		}
	}
}

// TestRunMatchesStep is the fast-forward oracle: for every workload, at
// seeded random split points k > 0 (Run(0) runs to Halt, and the workloads
// never halt), Run(k) on one machine leaves exactly the
// architectural state of k Steps on another, and the two machines then
// step out the same records.
func TestRunMatchesStep(t *testing.T) {
	const maxSplit, tail = 150_000, 2_000
	for i, w := range workload.All() {
		t.Run(w.Name, func(t *testing.T) {
			prog := workload.MustProgram(w.Name)
			rng := rand.New(rand.NewSource(int64(i) + 1))
			for _, k := range []int{1, 2 + rng.Intn(64), 1 + rng.Intn(maxSplit), 1 + rng.Intn(maxSplit)} {
				fast, slow := MustNew(prog), MustNew(prog)
				if ran := fast.Run(uint64(k)); ran != uint64(k) {
					t.Fatalf("Run(%d) ran %d", k, ran)
				}
				checkRecords(t, prog, 0, record(t, slow, k))
				if !archEqual(fast, slow) || fast.Seq() != slow.Seq() || fast.Done() != slow.Done() {
					t.Fatalf("split %d: Run and Step leave different state", k)
				}
				got, want := record(t, fast, tail), record(t, slow, tail)
				if len(got) != tail || len(want) != tail {
					t.Fatalf("split %d: stepped %d and %d records, want %d", k, len(got), len(want), tail)
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("split %d, record %d: after Run %+v, after Step %+v", k, j, got[j], want[j])
					}
				}
				checkRecords(t, prog, uint64(k), want)
			}
		})
	}
}

// haltingProgram counts r2 down from 3 through a call, then halts at index
// haltIdx.
func haltingProgram() (p *isa.Program, haltIdx int) {
	b := asm.New("halting")
	r2 := isa.R(2)
	b.Li(r2, 3)
	b.Label("loop")
	b.Addi(r2, r2, -1)
	b.Call("fn")
	b.Bne(r2, isa.RZero, "loop")
	haltIdx = b.Here()
	b.Halt()
	b.Label("fn")
	b.Ret()
	return b.MustBuild(), haltIdx
}

func TestRunAndStepAtHalt(t *testing.T) {
	p, haltIdx := haltingProgram()
	const total = 1 + 3*4 + 1 // li, 3 × (addi, jal, jr, bne), halt

	m := MustNew(p)
	if n := m.Run(0); n != total || !m.Done() || m.Seq() != total || m.pc != haltIdx {
		t.Fatalf("Run(0) = %d, done %v, seq %d, pc %d; want %d, true, %d, %d",
			n, m.Done(), m.Seq(), m.pc, total, total, haltIdx)
	}
	if n := m.Run(0); n != 0 {
		t.Errorf("Run(0) on a halted machine = %d, want 0", n)
	}
	if n := m.Run(5); n != 0 {
		t.Errorf("Run(5) on a halted machine = %d, want 0", n)
	}
	if di, ok := m.Step(); ok || di != (DynInst{}) {
		t.Errorf("Step after Halt = (%+v, %v), want (DynInst{}, false)", di, ok)
	}

	s := MustNew(p)
	dis := record(t, s, 2*total)
	if len(dis) != total || !s.Done() || s.pc != haltIdx {
		t.Fatalf("stepped %d records (done %v, pc %d), want %d ending at %d", len(dis), s.Done(), s.pc, total, haltIdx)
	}
	checkRecords(t, p, 0, dis)
	if !archEqual(m, s) {
		t.Error("Run(0) and stepping to Halt leave different state")
	}

	// Run(k) stops after exactly k, short of the Halt.
	r := MustNew(p)
	if n := r.Run(total - 1); n != total-1 || r.Done() || r.pc != haltIdx {
		t.Errorf("Run(%d) = %d, done %v, pc %d; want to stop at the Halt unexecuted", total-1, n, r.Done(), r.pc)
	}
}

// panicOf runs f and returns what it panicked with.
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestFaultsMatchUnderRunAndStep: a faulting instruction panics with the
// same message, naming its own index, whether reached by Run or by Step,
// and leaves pc and Seq on it.
func TestFaultsMatchUnderRunAndStep(t *testing.T) {
	cases := []struct {
		name  string
		fault func(b *asm.Builder)
		want  string
	}{
		{"bad load", func(b *asm.Builder) { b.Li(isa.R(2), 4).Ld(isa.R(3), isa.R(2), 0) }, "bad load address 0x4"},
		{"bad store", func(b *asm.Builder) { b.Li(isa.R(2), math.MaxInt32).St(isa.R(3), isa.R(2), 0) }, "bad store address"},
		{"invalid jr", func(b *asm.Builder) { b.Li(isa.R(2), 1000).Jr(isa.R(2)) }, "jr to invalid index 1000"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := asm.New("fault")
			b.Nop()
			c.fault(b)
			b.Halt()
			p := b.MustBuild()
			faultIdx := len(p.Code) - 2 // the instruction before the Halt

			run, step := MustNew(p), MustNew(p)
			runMsg := panicOf(func() { run.Run(0) })
			stepMsg := panicOf(func() {
				for {
					if _, ok := step.Step(); !ok {
						return
					}
				}
			})
			if runMsg == "" || runMsg != stepMsg {
				t.Fatalf("Run panicked with %q, Step with %q", runMsg, stepMsg)
			}
			if want := fmt.Sprintf("at pc %d", faultIdx); !strings.Contains(runMsg, c.want) || !strings.Contains(runMsg, want) {
				t.Errorf("panic %q does not name %q %q", runMsg, c.want, want)
			}
			for _, m := range []*Machine{run, step} {
				if m.pc != faultIdx || m.Seq() != uint64(faultIdx) || m.Done() {
					t.Errorf("after the fault pc %d, seq %d, done %v; want %d, %d, false", m.pc, m.Seq(), m.Done(), faultIdx, faultIdx)
				}
			}
		})
	}
}

// benchPrograms span the emulator's instruction mixes: control-heavy
// (chess, regex), pointer-chasing (sparse, bfs), FP (matmul) and integer
// (crypto).
var benchPrograms = []string{"chess", "sparse", "bfs", "matmul", "crypto", "regex"}

// BenchmarkFastForward measures record-free fast-forward: Run of 2M
// instructions on a fresh machine.
func BenchmarkFastForward(b *testing.B) {
	const n = 2_000_000
	for _, name := range benchPrograms {
		prog := workload.MustProgram(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := MustNew(prog)
				b.StartTimer()
				m.Run(n)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
		})
	}
}

// stepSink keeps BenchmarkStep's records observable.
var stepSink DynInst

// BenchmarkStep measures the per-instruction record path the detailed core
// drives: 1M Steps on a fresh machine.
func BenchmarkStep(b *testing.B) {
	const n = 1_000_000
	for _, name := range benchPrograms {
		prog := workload.MustProgram(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := MustNew(prog)
				b.StartTimer()
				for j := 0; j < n; j++ {
					stepSink, _ = m.Step()
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
		})
	}
}
