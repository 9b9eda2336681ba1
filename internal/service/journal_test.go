package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// writeJournalLines hand-crafts a journal file, the test's stand-in for
// the log a crashed daemon left behind.
func writeJournalLines(t *testing.T, dir string, recs ...journalRecord) {
	t.Helper()
	var sb strings.Builder
	for _, r := range recs {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		sb.Write(data)
		sb.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(dir, journalFile), []byte(sb.String()), 0o644); err != nil {
		t.Fatalf("write journal: %v", err)
	}
}

func specBaseMatmul() CampaignSpec {
	return CampaignSpec{
		Machines:  []MachineSpec{{Machine: "base"}, {Machine: "pubs"}},
		Workloads: []string{"matmul"},
	}
}

// TestJournalReplayResumesIncompleteJob is the in-process crash-recovery
// test: daemon A accepts a campaign and "crashes" (we fabricate its
// journal: a submit with no terminal record) after checkpointing part of
// the work; daemon B boots on the same journal and checkpoint dirs, must
// re-enqueue the job under its original ID, serve the already-finished
// cells from the checkpoint store, and produce results bit-identical to an
// uninterrupted run.
func TestJournalReplayResumesIncompleteJob(t *testing.T) {
	jdir, cdir := t.TempDir(), t.TempDir()
	spec := specBaseMatmul()

	// Reference: the same campaign on a fresh daemon, no journal involved.
	ref := testService(t, Config{Workers: 2})
	refJob, err := ref.Submit(spec)
	if err != nil {
		t.Fatalf("reference Submit: %v", err)
	}
	refSt := waitJob(t, refJob)
	if refSt.State != JobDone {
		t.Fatalf("reference job %s: %v", refSt.State, refSt.Errors)
	}

	// "Crash": daemon A checkpointed one cell (a partial prior run), and
	// its journal records the submit — and a start and one cell event, as
	// a real crash mid-job would — but no terminal record.
	partial := testService(t, Config{Workers: 2, CheckpointDir: cdir})
	oneCell := spec
	oneCell.Machines = oneCell.Machines[:1]
	pj, err := partial.Submit(oneCell)
	if err != nil {
		t.Fatalf("partial Submit: %v", err)
	}
	pst := waitJob(t, pj)
	if pst.State != JobDone || len(pst.Results) != 1 {
		t.Fatalf("partial job %s: %v", pst.State, pst.Errors)
	}
	writeJournalLines(t, jdir,
		journalRecord{Type: "submit", Job: "j000007", Time: time.Now(), Spec: &spec},
		journalRecord{Type: "start", Job: "j000007", Time: time.Now()},
		journalRecord{Type: "cell", Job: "j000007", Time: time.Now(), Key: pst.Results[0].Key, Outcome: "simulated"},
	)

	// Daemon B: recovery.
	s := testService(t, Config{Workers: 2, CheckpointDir: cdir, JournalDir: jdir})
	job, ok := s.Job("j000007")
	if !ok {
		t.Fatal("recovered job j000007 not found")
	}
	st := waitJob(t, job)
	if st.State != JobDone {
		t.Fatalf("recovered job %s: %v", st.State, st.Errors)
	}
	if h := s.Health(); h.RecoveredJobs != 1 {
		t.Errorf("RecoveredJobs = %d, want 1", h.RecoveredJobs)
	}

	// The checkpointed cell must have been served from disk, not re-run.
	if s.m.ckptHits.Load() == 0 {
		t.Error("recovered job re-simulated its checkpointed cell (CheckpointHits = 0)")
	}

	// Bit-identical to the uninterrupted run, cell by cell.
	if len(st.Results) != len(refSt.Results) {
		t.Fatalf("recovered %d cells, reference %d", len(st.Results), len(refSt.Results))
	}
	for i := range st.Results {
		got, _ := json.Marshal(st.Results[i])
		want, _ := json.Marshal(refSt.Results[i])
		if string(got) != string(want) {
			t.Errorf("cell %d differs after recovery:\ngot  %s\nwant %s", i, got, want)
		}
	}

	// New submissions must not collide with the recovered ID space.
	nj, err := s.Submit(oneCell)
	if err != nil {
		t.Fatalf("post-recovery Submit: %v", err)
	}
	if nj.ID() <= "j000007" {
		t.Errorf("post-recovery ID %s not beyond recovered j000007", nj.ID())
	}
}

// TestJournalIgnoresCompletedAndTornRecords checks the replay filter: jobs
// with terminal records stay dead, a torn trailing line (the crash hit
// mid-write) is tolerated, and corrupt lines are skipped.
func TestJournalIgnoresCompletedAndTornRecords(t *testing.T) {
	dir := t.TempDir()
	spec := specBaseMatmul()
	writeJournalLines(t, dir,
		journalRecord{Type: "submit", Job: "j000001", Time: time.Now(), Spec: &spec},
		journalRecord{Type: "done", Job: "j000001", Time: time.Now()},
		journalRecord{Type: "submit", Job: "j000002", Time: time.Now(), Spec: &spec},
		journalRecord{Type: "failed", Job: "j000002", Time: time.Now()},
		journalRecord{Type: "submit", Job: "j000003", Time: time.Now(), Spec: &spec},
	)
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt mid-log noise plus a torn final line.
	if _, err := f.WriteString("not json at all\n{\"type\":\"submit\",\"job\":\"j0000"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	live, maxSeq, err := readJournal(dir)
	if err != nil {
		t.Fatalf("readJournal: %v", err)
	}
	if len(live) != 1 || live[0].ID != "j000003" {
		t.Fatalf("live = %+v, want only j000003", live)
	}
	if maxSeq != 3 {
		t.Errorf("maxSeq = %d, want 3", maxSeq)
	}
}

// TestJournalCompactionBoundsTheLog: booting on a journal full of finished
// jobs rewrites it down to the live submits only.
func TestJournalCompactionBoundsTheLog(t *testing.T) {
	dir := t.TempDir()
	spec := specBaseMatmul()
	var recs []journalRecord
	for _, id := range []string{"j000001", "j000002", "j000003"} {
		recs = append(recs,
			journalRecord{Type: "submit", Job: id, Time: time.Now(), Spec: &spec},
			journalRecord{Type: "start", Job: id, Time: time.Now()},
			journalRecord{Type: "done", Job: id, Time: time.Now()},
		)
	}
	writeJournalLines(t, dir, recs...)

	live, _, err := readJournal(dir)
	if err != nil {
		t.Fatalf("readJournal: %v", err)
	}
	if len(live) != 0 {
		t.Fatalf("live = %+v, want none", live)
	}
	if err := compactJournal(dir, live); err != nil {
		t.Fatalf("compactJournal: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Errorf("compacted journal not empty:\n%s", data)
	}
}

// TestJournalRecoveryRejectsStaleSpecs: a journaled spec that no longer
// validates (its workload vanished across a version change, say) must land
// as a failed job, not crash the boot or run garbage. A spec that still
// carries fields a later build removed (live_decode, no_idle_skip,
// parallel_windows) recovers
// and finishes: the journal decoder ignores unknown fields, unlike
// POST /v1/jobs.
func TestJournalRecoveryRejectsStaleSpecs(t *testing.T) {
	dir := t.TempDir()
	bad := CampaignSpec{Machines: []MachineSpec{{Machine: "no-such-machine"}}}
	writeJournalLines(t, dir,
		journalRecord{Type: "submit", Job: "j000001", Time: time.Now(), Spec: &bad},
	)
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"submit","job":"j000002","time":"2025-01-01T00:00:00Z","spec":` +
		`{"machines":[{"machine":"base","no_idle_skip":true}],"workloads":["matmul"],` +
		`"windows":2,"fast_forward":10000,"live_decode":true,"parallel_windows":2}}` + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s := testService(t, Config{Workers: 1, JournalDir: dir})
	for id, want := range map[string]JobState{"j000001": JobFailed, "j000002": JobDone} {
		job, ok := s.Job(id)
		if !ok {
			t.Fatalf("journaled job %s not surfaced", id)
		}
		if st := waitJob(t, job); st.State != want {
			t.Errorf("journaled job %s state %s, want %s", id, st.State, want)
		}
	}
}

// TestJournalAppendFaultDegradesNotFails: an injected journal write error
// is counted in the metrics, and the campaign still completes.
func TestJournalAppendFaultDegradesNotFails(t *testing.T) {
	t.Parallel()
	faults := &faultinject.Set{}
	s := testService(t, Config{Workers: 2, JournalDir: t.TempDir(), faults: faults})
	faults.Arm(faultinject.JournalAppend, "", -1)
	job, err := s.Submit(specBaseMatmul())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitJob(t, job)
	faults.Reset()
	if st.State != JobDone {
		t.Fatalf("job %s with lossy journal: %v", st.State, st.Errors)
	}
	if got := s.m.journalErrors.Load(); got == 0 {
		t.Error("journal errors not counted under injected write faults")
	}
	if strings.Contains(s.MetricsText(), "pubsd_journal_errors_total{node=\"local\"} 0\n") {
		t.Error("/metrics does not surface the journal errors")
	}
}

// TestJournalessShutdownStillClean: no JournalDir, the nil-journal path.
func TestJournalessShutdownStillClean(t *testing.T) {
	s := testService(t, Config{Workers: 1})
	job, err := s.Submit(CampaignSpec{Machines: []MachineSpec{{Machine: "base"}}, Workloads: []string{"matmul"}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st := waitJob(t, job); st.State != JobDone {
		t.Fatalf("job %s: %v", st.State, st.Errors)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := s.Shutdown(ctx); err == nil {
		t.Error("second Shutdown should error")
	}
}

// TestJournalSkipsOverlongLines: a line past maxJournalLine is skipped
// like any other corrupt line — in mid-log, and as a newline-free
// zero-filled tail such as a crash can leave — and the daemon still boots.
func TestJournalSkipsOverlongLines(t *testing.T) {
	dir := t.TempDir()
	spec := specBaseMatmul()
	writeJournalLines(t, dir,
		journalRecord{Type: "submit", Job: "j000001", Time: time.Now(), Spec: &spec},
	)
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("x", 2<<20) + "\n"
	rec, err := json.Marshal(journalRecord{Type: "submit", Job: "j000002", Time: time.Now(), Spec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(long + string(rec) + "\n" + strings.Repeat("\x00", 2<<20)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	live, maxSeq, err := readJournal(dir)
	if err != nil {
		t.Fatalf("readJournal: %v", err)
	}
	if len(live) != 2 || live[0].ID != "j000001" || live[1].ID != "j000002" {
		t.Fatalf("live = %+v, want j000001 and j000002", live)
	}
	if maxSeq != 2 {
		t.Errorf("maxSeq = %d, want 2", maxSeq)
	}

	// Boot on a journal whose only job finished before the crash.
	writeJournalLines(t, dir,
		journalRecord{Type: "submit", Job: "j000001", Time: time.Now(), Spec: &spec},
		journalRecord{Type: "done", Job: "j000001", Time: time.Now()},
	)
	f, err = os.OpenFile(filepath.Join(dir, journalFile), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(strings.Repeat("\x00", 2<<20)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	testService(t, Config{Workers: 1, JournalDir: dir})
}

// FuzzReadJournal fuzzes the boot-time journal decoder: whatever bytes a
// crash or a bad disk leaves, it must recover without error or panic,
// return each job at most once, and report a sequence number at least as
// high as every recovered ID.
func FuzzReadJournal(f *testing.F) {
	spec := specBaseMatmul()
	var log []byte
	for _, rec := range []journalRecord{
		{Type: "submit", Job: "j000001", Spec: &spec},
		{Type: "start", Job: "j000001"},
		{Type: "cell", Job: "j000001", Key: "0123abcd", Outcome: "done"},
		{Type: "done", Job: "j000001"},
		{Type: "submit", Job: "j000002", Spec: &spec},
		{Type: "failed", Job: "j000002", Error: "boom"},
		{Type: "submit", Job: "j000003", Spec: &spec},
	} {
		data, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		log = append(append(log, data...), '\n')
		f.Add(append([]byte(nil), log...))
	}
	f.Add(append(append([]byte(nil), log...), `{"type":"submit","job":"j0000`...))
	f.Add([]byte("\x00\x00\x00\n\r\n{}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		live, maxSeq, err := parseJournal(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("parseJournal: %v", err)
		}
		seen := make(map[string]bool)
		for _, j := range live {
			if seen[j.ID] {
				t.Fatalf("job %q recovered twice", j.ID)
			}
			seen[j.ID] = true
			var seq uint64
			if n, err := fmt.Sscanf(j.ID, "j%d", &seq); n == 1 && err == nil && seq > maxSeq {
				t.Fatalf("recovered %s above maxSeq %d", j.ID, maxSeq)
			}
		}
	})
}
