package faultinject

import "testing"

func TestDisarmedNeverFires(t *testing.T) {
	t.Parallel()
	var s Set
	if s.Fire(PipelineHang, "anything") {
		t.Fatal("disarmed point fired")
	}
}

// TestNilSetNeverFires: code under a run with no faults holds a nil Set.
func TestNilSetNeverFires(t *testing.T) {
	t.Parallel()
	var s *Set
	for _, point := range []string{PipelineHang, WorkerPanic, WorkerTransient, ServicePanic, JournalAppend, CacheEvict} {
		if s.Fire(point, "") {
			t.Errorf("nil Set fired %s", point)
		}
	}
}

// TestSetsAreIndependent: arming one Set leaves every other one quiet.
func TestSetsAreIndependent(t *testing.T) {
	t.Parallel()
	var a, b Set
	a.Arm(WorkerPanic, "", -1)
	if b.Fire(WorkerPanic, "crypto") {
		t.Error("an unarmed Set fired a point armed on another")
	}
	if !a.Fire(WorkerPanic, "crypto") {
		t.Error("the armed Set did not fire")
	}
}

func TestArmMatchAndCount(t *testing.T) {
	t.Parallel()
	var s Set
	s.Arm(WorkerPanic, "crypto", 2)

	if s.Fire(WorkerPanic, "regex") {
		t.Error("fired on a non-matching victim")
	}
	if s.Fire(WorkerTransient, "crypto") {
		t.Error("a different point fired")
	}
	if !s.Fire(WorkerPanic, "crypto") || !s.Fire(WorkerPanic, "crypto") {
		t.Error("armed point did not fire its two shots")
	}
	if s.Fire(WorkerPanic, "crypto") {
		t.Error("fired beyond its count")
	}
}

func TestEmptyMatchHitsEverything(t *testing.T) {
	t.Parallel()
	var s Set
	s.Arm(PipelineHang, "", -1)
	for _, victim := range []string{"base", "pubs", ""} {
		if !s.Fire(PipelineHang, victim) {
			t.Errorf("unlimited wildcard did not fire for %q", victim)
		}
	}
}

func TestSubstringMatch(t *testing.T) {
	t.Parallel()
	var s Set
	s.Arm(PipelineHang, "hang", -1)
	if !s.Fire(PipelineHang, "base-hangtest") {
		t.Error("match did not hit a detail containing it")
	}
	if s.Fire(PipelineHang, "base") {
		t.Error("match hit a detail not containing it")
	}
}

func TestRearmReplacesAndDisarmRemoves(t *testing.T) {
	t.Parallel()
	var s Set
	s.Arm(WorkerTransient, "a", 1)
	s.Arm(WorkerTransient, "b", 1) // replaces the previous arming
	if s.Fire(WorkerTransient, "a") {
		t.Error("stale arming survived a re-arm")
	}
	if !s.Fire(WorkerTransient, "b") {
		t.Error("re-armed point did not fire")
	}
	s.Arm(WorkerTransient, "b", -1)
	s.Arm(WorkerPanic, "", -1)
	s.Disarm(WorkerTransient)
	if s.Fire(WorkerTransient, "b") {
		t.Error("disarmed point fired")
	}
	if !s.Fire(WorkerPanic, "x") {
		t.Error("Disarm removed another point")
	}
	s.Disarm(WorkerTransient) // disarming an unarmed point is a no-op
	if !s.Fire(WorkerPanic, "x") {
		t.Error("a repeated Disarm removed another point")
	}
}

func TestResetDisarmsEverything(t *testing.T) {
	t.Parallel()
	var s Set
	s.Arm(WorkerPanic, "", -1)
	s.Arm(CacheEvict, "", -1)
	s.Reset()
	if s.Fire(WorkerPanic, "x") || s.Fire(CacheEvict, "x") {
		t.Error("a point fired after Reset")
	}
	s.Arm(CacheEvict, "", 1)
	if !s.Fire(CacheEvict, "x") {
		t.Error("a point re-armed after Reset did not fire")
	}
}
