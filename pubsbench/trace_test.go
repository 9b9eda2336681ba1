package main

import (
	"testing"
	"time"
)

// at builds a span on a millisecond clock.
func at(id, parent int, name string, start, end int) span {
	t0 := time.Unix(0, 0)
	return span{ID: id, Parent: parent, Name: name,
		Start: t0.Add(time.Duration(start) * time.Millisecond),
		End:   t0.Add(time.Duration(end) * time.Millisecond)}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100] with children A [10,40] and B [30,60], which overlap,
	// and C [90,120], which runs past its parent; A has a child [15,20].
	spans := []span{
		at(1, 0, "bench.walk", 0, 100),
		at(2, 1, "service.A", 10, 40),
		at(3, 1, "cluster.B", 30, 60),
		at(4, 1, "service.C", 90, 120),
		at(5, 2, "pipeline.A1", 15, 20),
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 40 * time.Millisecond, // 100 - |[10,60] ∪ [90,100]|
		2: 25 * time.Millisecond,
		3: 30 * time.Millisecond,
		4: 30 * time.Millisecond,
		5: 5 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
	layers := layerSelf(spans)
	for layer, w := range map[string]time.Duration{
		"bench": 40 * time.Millisecond, "service": 55 * time.Millisecond,
		"cluster": 30 * time.Millisecond, "pipeline": 5 * time.Millisecond,
	} {
		if layers[layer] != w {
			t.Errorf("layer %s self = %v, want %v", layer, layers[layer], w)
		}
	}
}

// Children that run one after another inside their parent, as in the
// layer walk, make the self times add up to the root's duration exactly.
func TestSelfTimesSumToRoot(t *testing.T) {
	spans := []span{
		at(1, 0, "bench.walk", 0, 100),
		at(2, 1, "bench.op", 0, 60),
		at(3, 2, "sampling.PlanWindows", 5, 20),
		at(4, 2, "pipeline.RunContext", 20, 55),
		at(5, 1, "bench.op", 60, 100),
		at(6, 5, "service.campaign", 61, 99),
		at(7, 6, "service.queue", 61, 62),
		at(8, 6, "service.exec", 62, 98),
	}
	var sum time.Duration
	for _, d := range selfTimes(spans) {
		sum += d
	}
	if sum != 100*time.Millisecond {
		t.Errorf("self times sum to %v, want the root's 100ms", sum)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin(0, "bench.walk", "x")
	tr.end(id)
	tr.add(id, "service.queue", "x", time.Now(), time.Now())
	if id != 0 || tr.snapshot() != nil {
		t.Error("a nil tracer recorded a span")
	}
	tr = &tracer{}
	root := tr.begin(0, "bench.walk", "x")
	child := tr.begin(root, "pipeline.New", "x")
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].End.IsZero() || spans[1].layer() != "pipeline" {
		t.Errorf("recorded %+v", spans)
	}
}
