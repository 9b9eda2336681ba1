package main

import (
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/service"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{35, 20, 50, 15, 40}
	for _, c := range []struct{ p, want float64 }{
		{0, 15}, {5, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	// Never interpolated: the value reported is one that was observed.
	if got := percentile([]float64{1, 2}, 50); got != 1 {
		t.Errorf("p50 of {1,2} = %v, want 1", got)
	}
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	if p, n := percentile(hundred, 90), beyond(hundred, 90); p != 90 || n != 10 {
		t.Errorf("p90 of 1..100 = %v with %d beyond, want 90 with 10", p, n)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v", got)
	}
}

// The quartiles must be exactly Python's statistics.quantiles(xs, n=4),
// the definition the run-to-run spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		// Python extrapolates past the ends of a short sample.
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 9}, 1, 9},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestDigestStable(t *testing.T) {
	cells := []pipeline.Result{{Name: "base", Measured: 10}, {Name: "pubs", Measured: 20}}
	a, err := digest(cells)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := digest(append([]pipeline.Result(nil), cells...))
	if a != b {
		t.Fatal("equal results digest differently")
	}
	swapped, _ := digest([]pipeline.Result{cells[1], cells[0]})
	if swapped == a {
		t.Error("grid order does not enter the digest")
	}
	changed := append([]pipeline.Result(nil), cells...)
	changed[1].Cycles++
	if d, _ := digest(changed); d == a {
		t.Error("a changed counter does not change the digest")
	}
	// The encoding itself is pinned: one JSON value per line.
	if d, _ := digest([]int{1, 2, 3}); d != digestOf123 {
		t.Errorf("digest encoding changed: %s", d)
	}
}

// digestOf123 is the SHA-256 of "1\n2\n3\n".
const digestOf123 = "14c5e74c4b96ccef41cd94db73a9ec3348038ac094feca4fd897cecffa07cdae"

func TestMs(t *testing.T) {
	if got := ms(1500 * time.Microsecond); got != 1.5 {
		t.Errorf("ms(1.5ms) = %v", got)
	}
}

func TestSlotBusy(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(msec int) *time.Time {
		t := t0.Add(time.Duration(msec) * time.Millisecond)
		return &t
	}
	cells := func(outcomes ...string) []service.Event {
		var evs []service.Event
		for _, o := range outcomes {
			evs = append(evs, service.Event{Type: "cell", Outcome: o})
		}
		return evs
	}
	outs := []jobOutcome{
		// Three simulated cells hold both slots from 0 to 10 ms.
		{status: service.JobStatus{StartedAt: at(0), FinishedAt: at(10)}, events: cells("simulated", "simulated", "simulated")},
		// One simulated cell holds one slot from 5 to 15 ms, which is
		// busy only on its own from 10 ms.
		{status: service.JobStatus{StartedAt: at(5), FinishedAt: at(15)}, events: cells("simulated", "cached")},
		// Cache hits and merges hold no slot.
		{status: service.JobStatus{StartedAt: at(0), FinishedAt: at(20)}, events: cells("cached", "merged")},
		// A job that never started counts for nothing.
		{events: cells("simulated")},
	}
	// 2 slots × 10 ms + 1 slot × 5 ms = 25 slot-ms over 2 slots.
	if got, want := slotBusy(outs, 2), 12500*time.Microsecond; got != want {
		t.Fatalf("slotBusy = %v, want %v", got, want)
	}
}
