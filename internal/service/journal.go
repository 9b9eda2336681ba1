package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
)

// journalFile is the single append-only NDJSON log inside Config.JournalDir.
const journalFile = "journal.ndjson"

// journalRecord is one NDJSON line of the durable job journal: a job
// lifecycle transition, written at submit/start/cell/terminal time. The
// journal is a write-ahead log for the job queue only — cell results
// themselves are made durable by the content-addressed checkpoint store,
// so the two compose into full crash recovery: the journal says which
// campaigns were in flight, the checkpoints say which of their cells are
// already paid for. Neither ever feeds the checkpoint or content keys.
type journalRecord struct {
	Type string    `json:"type"` // submit | start | cell | done | failed
	Job  string    `json:"job"`
	Time time.Time `json:"time"`

	// submit records carry everything needed to reconstruct the job.
	Spec *CampaignSpec `json:"spec,omitempty"`

	// cell records carry the cell's content address (the KeyHash shared
	// with the checkpoint store and result cache) and its outcome.
	Key     string `json:"key,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	Error   string `json:"error,omitempty"`
}

// journal is the durable job log: append-only NDJSON, one file, fsync-free
// (a lost tail costs at most re-running a cell already checkpointed, never
// correctness). All methods are nil-receiver safe so a journalless daemon
// pays a single pointer test. Append errors are counted, not fatal: a full
// disk degrades crash recovery, not availability.
type journal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	records *atomic.Uint64   // successful appends (metrics)
	errs    *atomic.Uint64   // failed appends (metrics)
	faults  *faultinject.Set // the daemon's (nil outside fault tests)
}

// openJournal opens (creating if needed) the journal in dir for appending.
func openJournal(dir string, records, errs *atomic.Uint64, faults *faultinject.Set) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: journal dir: %w", err)
	}
	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: journal: %w", err)
	}
	return &journal{f: f, path: path, records: records, errs: errs, faults: faults}, nil
}

// append writes one record. Failures (including injected ones) are counted
// and swallowed: the daemon keeps serving with a lossy journal.
func (l *journal) append(rec journalRecord) {
	if l == nil {
		return
	}
	rec.Time = time.Now()
	data, err := json.Marshal(rec)
	if err == nil && l.faults.Fire(faultinject.JournalAppend, rec.Type) {
		err = errors.New("injected journal write fault")
	}
	if err == nil {
		data = append(data, '\n')
		l.mu.Lock()
		_, err = l.f.Write(data)
		l.mu.Unlock()
	}
	if err != nil {
		l.errs.Add(1)
		return
	}
	l.records.Add(1)
}

// close releases the file handle.
func (l *journal) close() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	_ = l.f.Close()
}

// recoveredJob is one incomplete campaign reconstructed from the journal.
type recoveredJob struct {
	ID   string
	Spec CampaignSpec
}

// readJournal replays the log in dir and returns the jobs that were
// submitted but never reached a terminal record — the campaigns a crash
// swallowed — in original submission order, plus the highest job sequence
// number seen (so a restarted daemon's IDs never collide with recovered
// ones). A torn trailing line (the crash interrupted a write) is
// tolerated; any other unparsable line is skipped, and so is a line
// longer than maxJournalLine (a zero-filled tail after a crash has no
// newline at all), since a corrupt journal must cost at most lost
// recovery, never a failed boot.
func readJournal(dir string) ([]recoveredJob, uint64, error) {
	f, err := os.Open(filepath.Join(dir, journalFile))
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("service: journal: %w", err)
	}
	defer f.Close()
	live, maxSeq, err := parseJournal(f)
	if err != nil {
		return nil, 0, fmt.Errorf("service: journal: %w", err)
	}
	return live, maxSeq, nil
}

// parseJournal is readJournal's decoder: it fails only when r itself
// fails, never on what r holds.
func parseJournal(r io.Reader) ([]recoveredJob, uint64, error) {
	type jobState struct {
		spec     CampaignSpec
		order    int
		terminal bool
	}
	jobs := make(map[string]*jobState)
	var maxSeq uint64
	order := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxJournalLine)
	sc.Split(journalLines())
	for sc.Scan() {
		var rec journalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue // torn or corrupt line: skip, recover what we can
		}
		var seq uint64
		if n, err := fmt.Sscanf(rec.Job, "j%d", &seq); n == 1 && err == nil && seq > maxSeq {
			maxSeq = seq
		}
		switch rec.Type {
		case "submit":
			if rec.Spec != nil {
				jobs[rec.Job] = &jobState{spec: *rec.Spec, order: order}
				order++
			}
		case "done", "failed":
			if st, ok := jobs[rec.Job]; ok {
				st.terminal = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}

	var live []recoveredJob
	for id, st := range jobs {
		if !st.terminal {
			live = append(live, recoveredJob{ID: id, Spec: st.spec})
		}
	}
	sort.Slice(live, func(i, j int) bool { return jobs[live[i].ID].order < jobs[live[j].ID].order })
	return live, maxSeq, nil
}

// maxJournalLine caps one journal record, far above any real one (the
// largest, a submit, carries one campaign spec).
const maxJournalLine = 1 << 20

// journalLines is bufio.ScanLines, except that a line reaching
// maxJournalLine bytes is dropped through its newline rather than
// failing the scan with bufio.ErrTooLong.
func journalLines() bufio.SplitFunc {
	dropping := false
	return func(data []byte, atEOF bool) (int, []byte, error) {
		i := bytes.IndexByte(data, '\n')
		switch {
		case dropping && i < 0:
			return len(data), nil, nil
		case dropping:
			dropping = false
			return i + 1, nil, nil
		case i < 0 && len(data) >= maxJournalLine:
			// The scanner's buffer is full: the line is over-long.
			dropping = true
			return len(data), nil, nil
		}
		return bufio.ScanLines(data, atEOF)
	}
}

// compact rewrites the journal to hold only the submit records of the
// given still-live jobs (temp file + rename, the checkpoint store's
// atomicity discipline), so the log stays bounded by the incomplete work
// instead of growing with daemon lifetime across restarts. Called once at
// startup, after recovery and before any new appends.
func compactJournal(dir string, live []recoveredJob) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".journal-*")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(tmp)
	for _, j := range live {
		spec := j.Spec
		if err := enc.Encode(journalRecord{
			Type: "submit", Job: j.ID, Time: time.Now(), Spec: &spec,
		}); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, journalFile))
}
