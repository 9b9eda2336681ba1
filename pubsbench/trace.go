package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made across a layer boundary, or a
// phase read back from the program's own timestamps (a job's queue wait).
// Name is "<layer>.<call>"; Op is the campaign or request the call served.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"` // 0 for a root span
	Name   string    `json:"name"`
	Op     string    `json:"op,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// tracer keeps spans in memory until the run writes them out. A nil tracer
// records nothing, so the untraced path pays one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span under parent and returns its ID (0 when tracing is off).
func (t *tracer) begin(parent int, name, op string) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: now})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere, such as a job's
// submitted_at and started_at.
func (t *tracer) add(parent int, name, op string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: start, End: end})
	return id
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children are clipped to the parent,
// and overlapping children are counted once, so the self times of a tree
// whose children run one after another sum to the root's duration.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		type iv struct{ a, b time.Time }
		var ivs []iv
		for _, c := range children[s.ID] {
			a, b := c.Start, c.End
			if a.Before(s.Start) {
				a = s.Start
			}
			if b.After(s.End) {
				b = s.End
			}
			if b.After(a) {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
		var covered time.Duration
		var curA, curB time.Time
		for i, v := range ivs {
			switch {
			case i == 0:
				curA, curB = v.a, v.b
			case v.a.After(curB):
				covered += curB.Sub(curA)
				curA, curB = v.a, v.b
			case v.b.After(curB):
				curB = v.b
			}
		}
		if len(ivs) > 0 {
			covered += curB.Sub(curA)
		}
		out[s.ID] = s.End.Sub(s.Start) - covered
	}
	return out
}

// layerSelf sums self time per layer.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.layer()] += self[s.ID]
	}
	return out
}

// writeSpans writes the spans as JSON lines to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
