package sim

import (
	"reflect"
	"testing"
)

// TestRunBeforeIsExclusive pins the window-barrier semantics: RunBefore
// fires everything strictly before the bound and nothing at it, leaving
// the at-bound events for the next Run.
func TestRunBeforeIsExclusive(t *testing.T) {
	e := New(1)
	var got []float64
	for _, at := range []float64{1, 2, 2, 3} {
		e.Schedule(at, 0, func(now float64) { got = append(got, now) })
	}
	if n := e.RunBefore(2); n != 1 {
		t.Fatalf("RunBefore(2) fired %d events, want 1", n)
	}
	if !reflect.DeepEqual(got, []float64{1}) {
		t.Fatalf("RunBefore(2) fired %v, want [1]", got)
	}
	if e.Pending() != 3 {
		t.Errorf("pending = %d after exclusive window, want 3", e.Pending())
	}
	if n := e.Run(3); n != 3 {
		t.Errorf("Run(3) fired %d events, want the remaining 3", n)
	}
	if !reflect.DeepEqual(got, []float64{1, 2, 2, 3}) {
		t.Errorf("final order %v, want [1 2 2 3]", got)
	}
}

// TestRunBeforeEmptyWindow pins that a window with no events before the
// bound is a no-op that does not advance the clock past fired events.
func TestRunBeforeEmptyWindow(t *testing.T) {
	e := New(1)
	e.Schedule(5, 0, func(float64) {})
	if n := e.RunBefore(5); n != 0 {
		t.Fatalf("RunBefore(5) fired %d events, want 0", n)
	}
	if e.Now() != 0 {
		t.Errorf("clock = %v after empty window, want 0", e.Now())
	}
	if n := e.Run(10); n != 1 {
		t.Errorf("event at the bound was lost: Run fired %d, want 1", n)
	}
}
