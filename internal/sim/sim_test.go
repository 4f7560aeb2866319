package sim

import (
	"math"
	"reflect"
	"testing"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New(1)
	var got []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		e.Schedule(at, 0, func(now float64) { got = append(got, now) })
	}
	if n := e.Run(10); n != 5 {
		t.Fatalf("ran %d events, want 5", n)
	}
	want := []float64{1, 2, 3, 4, 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fire order %v, want %v", got, want)
	}
	if e.Now() != 5 {
		t.Errorf("clock = %v, want 5 (time of last event, not the horizon)", e.Now())
	}
}

func TestSameTimePriorityThenFIFO(t *testing.T) {
	e := New(1)
	var got []string
	// All at t=1: priority orders phases; within a priority, insertion
	// order wins — never heap-internal order.
	e.Schedule(1, 2, func(float64) { got = append(got, "dispatch") })
	e.Schedule(1, 0, func(float64) { got = append(got, "arrival-a") })
	e.Schedule(1, 1, func(float64) { got = append(got, "complete-a") })
	e.Schedule(1, 0, func(float64) { got = append(got, "arrival-b") })
	e.Schedule(1, 1, func(float64) { got = append(got, "complete-b") })
	e.Run(1)
	want := []string{"arrival-a", "arrival-b", "complete-a", "complete-b", "dispatch"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order %v, want %v", got, want)
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	e := New(1)
	var got []float64
	for _, at := range []float64{1, 2, 3, 4} {
		at := at
		e.Schedule(at, 0, func(now float64) { got = append(got, now) })
	}
	if n := e.Run(2); n != 2 {
		t.Fatalf("ran %d events, want 2 (t=2 inclusive)", n)
	}
	if e.Pending() != 2 {
		t.Errorf("pending = %d, want 2", e.Pending())
	}
	if next, ok := e.Next(); !ok || next != 3 {
		t.Errorf("next = %v/%v, want 3", next, ok)
	}
	// Resume: the calendar survives across Run calls.
	e.Run(10)
	if !reflect.DeepEqual(got, []float64{1, 2, 3, 4}) {
		t.Errorf("resumed run produced %v", got)
	}
}

func TestCancel(t *testing.T) {
	e := New(1)
	fired := make(map[string]bool)
	keep := e.Schedule(1, 0, func(float64) { fired["keep"] = true })
	drop := e.Schedule(2, 0, func(float64) { fired["drop"] = true })
	if !e.Cancel(drop) {
		t.Error("Cancel of a pending event reported false")
	}
	if e.Cancel(drop) {
		t.Error("double Cancel reported true")
	}
	e.Run(10)
	if !fired["keep"] || fired["drop"] {
		t.Errorf("fired = %v, want only keep", fired)
	}
	if e.Cancel(keep) {
		t.Error("Cancel of an executed event reported true")
	}
	if e.Cancel(EventID(0)) {
		t.Error("Cancel of the zero EventID reported true")
	}
}

func TestCancelMiddleOfHeapKeepsOrder(t *testing.T) {
	e := New(1)
	var got []float64
	var ids []EventID
	for _, at := range []float64{1, 2, 3, 4, 5, 6, 7, 8} {
		at := at
		ids = append(ids, e.Schedule(at, 0, func(now float64) { got = append(got, now) }))
	}
	e.Cancel(ids[3]) // t=4
	e.Cancel(ids[6]) // t=7
	e.Run(10)
	want := []float64{1, 2, 3, 5, 6, 8}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order after mid-heap cancels %v, want %v", got, want)
	}
}

func TestHandlersCanScheduleAtCurrentTime(t *testing.T) {
	e := New(1)
	var got []string
	e.Schedule(1, 0, func(now float64) {
		got = append(got, "first")
		// Same-time follow-up runs within the same Run call, after
		// already-pending same-time events of lower priority rank.
		e.Schedule(now, 5, func(float64) { got = append(got, "followup") })
	})
	e.Schedule(1, 1, func(float64) { got = append(got, "second") })
	e.Run(1)
	want := []string{"first", "second", "followup"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("order %v, want %v", got, want)
	}
}

func TestChainedSchedulingAdvancesClock(t *testing.T) {
	e := New(1)
	count := 0
	var tick func(now float64)
	tick = func(now float64) {
		count++
		e.ScheduleAfter(1, 0, tick)
	}
	e.ScheduleAfter(1, 0, tick)
	e.Run(100)
	if count != 100 {
		t.Errorf("ticked %d times, want 100", count)
	}
	if e.Now() != 100 {
		t.Errorf("clock = %v, want 100", e.Now())
	}
}

func TestSchedulingInThePastPanics(t *testing.T) {
	e := New(1)
	e.Schedule(5, 0, func(float64) {})
	e.Run(10)
	defer func() {
		if recover() == nil {
			t.Error("scheduling before Now() did not panic")
		}
	}()
	e.Schedule(1, 0, func(float64) {})
}

func TestDeterministicReplay(t *testing.T) {
	// Two engines driven by identical logic — including RNG draws and a
	// cancellation — must produce identical traces.
	run := func() []float64 {
		e := New(99)
		var got []float64
		var pending EventID
		e.Schedule(1, 0, func(now float64) {
			got = append(got, now+e.RNG().Float64())
			pending = e.ScheduleAfter(10, 0, func(now float64) { got = append(got, -now) })
		})
		e.Schedule(2, 0, func(now float64) {
			e.Cancel(pending)
			got = append(got, now+e.RNG().Float64())
		})
		e.Run(50)
		return got
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("replay diverged: %v vs %v", a, b)
	}
	if len(a) != 2 {
		t.Errorf("cancelled event ran: %v", a)
	}
}

func TestManyEventsStressHeap(t *testing.T) {
	// Schedule a pseudo-random pile of events, cancel a third, and check
	// the execution sequence is sorted.
	e := New(7)
	var ids []EventID
	var got []float64
	for i := 0; i < 2000; i++ {
		at := e.RNG().Float64() * 1000
		ids = append(ids, e.Schedule(at, 0, func(now float64) { got = append(got, now) }))
	}
	for i := 0; i < len(ids); i += 3 {
		e.Cancel(ids[i])
	}
	e.Run(2000)
	if len(got) != 2000-667 {
		t.Fatalf("executed %d events, want %d", len(got), 2000-667)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out-of-order execution at %d: %v after %v", i, got[i], got[i-1])
		}
	}
}

func TestScheduleCallRoutesArgAndCancels(t *testing.T) {
	e := New(1)
	var got []uint64
	h := func(now float64, arg uint64) { got = append(got, arg) }
	e.ScheduleCall(1, 0, h, 7)
	keep := e.ScheduleCall(2, 0, h, 8)
	drop := e.ScheduleCall(3, 0, h, 9)
	if !e.Cancel(drop) {
		t.Error("Cancel of pending ScheduleCall event reported false")
	}
	e.Run(10)
	if !reflect.DeepEqual(got, []uint64{7, 8}) {
		t.Errorf("args %v, want [7 8]", got)
	}
	if e.Cancel(keep) {
		t.Error("Cancel of executed event reported true (stale id must miss the recycled slot)")
	}
	// The slot behind `keep` has been recycled; a new event in it must
	// carry a fresh generation so the old id still misses.
	id := e.ScheduleCall(11, 0, h, 10)
	if id == keep {
		t.Error("recycled slot reissued an identical EventID")
	}
	e.Run(20)
}

func TestSteadyStateSchedulingIsAllocationFree(t *testing.T) {
	// The hot-path contract: a warm engine schedules and fires
	// pre-bound (Handler, arg) events without allocating. This is what
	// keeps the serving simulator's per-decode-step cost at zero
	// steady-state allocations.
	e := New(1)
	var fired int
	h := func(now float64, arg uint64) { fired++ }
	// Warm the slab, heap, and free list past their high-water mark.
	for i := 0; i < 256; i++ {
		e.ScheduleCall(float64(i), i%4, h, uint64(i))
	}
	e.Run(1 << 20)
	allocs := testing.AllocsPerRun(1000, func() {
		e.ScheduleCall(e.Now()+1, 0, h, 1)
		e.ScheduleCall(e.Now()+2, 1, h, 2)
		e.Defer(e.Now(), 3, h, 3)
		e.Step()
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("steady-state schedule+defer+fire allocates %.1f times per round, want 0", allocs)
	}
}

func TestCancelIsAllocationFreeAtSteadyState(t *testing.T) {
	e := New(1)
	h := func(float64, uint64) {}
	for i := 0; i < 64; i++ {
		e.ScheduleCall(float64(i+1), 0, h, 0)
	}
	e.Run(1 << 20)
	allocs := testing.AllocsPerRun(1000, func() {
		id := e.ScheduleCall(e.Now()+1, 0, h, 0)
		if !e.Cancel(id) {
			t.Fatal("cancel failed")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state schedule+cancel allocates %.1f times, want 0", allocs)
	}
}

// labelled returns a handler that appends its arg to *got.
func labelled(got *[]uint64) Handler {
	return func(_ float64, arg uint64) { *got = append(*got, arg) }
}

func TestDeferTiesWithHeapEntriesBySeq(t *testing.T) {
	// At equal (at, prio) the deferred call takes its place in
	// insertion order: after heap entries booked before it, before
	// those booked after it.
	e := New(1)
	var got []uint64
	h := labelled(&got)
	e.ScheduleCall(1, 2, h, 1)
	e.ScheduleCall(1, 2, h, 2)
	e.Defer(1, 2, h, 3)
	e.ScheduleCall(1, 2, h, 4)
	e.ScheduleCall(1, 2, h, 5)
	if n := e.Run(1); n != 5 {
		t.Fatalf("ran %d events, want 5", n)
	}
	if want := []uint64{1, 2, 3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("order %v, want %v", got, want)
	}
}

func TestDeferOrdersByPriorityAgainstHeapTop(t *testing.T) {
	for _, tc := range []struct {
		name string
		prio int
		want []uint64
	}{
		{"lower prio runs first", 0, []uint64{9, 1, 2}},
		{"higher prio runs last", 3, []uint64{1, 2, 9}},
		{"between heap entries", 2, []uint64{1, 9, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(1)
			var got []uint64
			h := labelled(&got)
			// The deferred call is booked last, so only its priority
			// can move it ahead of the heap entries at the same time.
			e.ScheduleCall(1, 1, h, 1)
			e.ScheduleCall(1, 3, h, 2)
			e.Defer(1, tc.prio, h, 9)
			e.Run(1)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("order %v, want %v", got, tc.want)
			}
		})
	}
}

func TestDeferOrdersByTimeBeforePriority(t *testing.T) {
	e := New(1)
	var got []uint64
	h := labelled(&got)
	e.ScheduleCall(2, 0, h, 1)
	e.Defer(1, 5, h, 9)
	e.ScheduleCall(0.5, 9, h, 2)
	e.Run(10)
	if want := []uint64{2, 9, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("order %v, want %v", got, want)
	}
}

func TestRunLeavesDeferredCallBeyondHorizonPending(t *testing.T) {
	e := New(1)
	var got []uint64
	h := labelled(&got)
	e.ScheduleCall(1, 0, h, 1)
	e.Defer(3, 0, h, 9)
	if n := e.Run(2); n != 1 {
		t.Fatalf("ran %d events, want 1", n)
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1 (the deferred call)", e.Pending())
	}
	if next, ok := e.Next(); !ok || next != 3 {
		t.Errorf("next = %v/%v, want 3", next, ok)
	}
	// With a later heap entry, Next still reports the deferred call
	// and Pending counts both.
	e.ScheduleCall(4, 0, h, 2)
	if next, ok := e.Next(); !ok || next != 3 || e.Pending() != 2 {
		t.Errorf("next = %v/%v pending %d, want 3/true 2", next, ok, e.Pending())
	}
	if n := e.Run(10); n != 2 {
		t.Fatalf("resumed run fired %d events, want 2", n)
	}
	if want := []uint64{1, 9, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("order %v, want %v", got, want)
	}
	if _, ok := e.Next(); ok || e.Pending() != 0 {
		t.Errorf("calendar not empty after drain: pending %d", e.Pending())
	}
}

func TestStepFiresDeferredCall(t *testing.T) {
	e := New(1)
	var got []uint64
	e.Defer(2, 0, labelled(&got), 9)
	if !e.Step() || !reflect.DeepEqual(got, []uint64{9}) || e.Now() != 2 {
		t.Errorf("Step fired %v, clock %v; want [9] at 2", got, e.Now())
	}
	if e.Step() {
		t.Error("Step on an empty calendar reported true")
	}
}

func TestDeferredHandlerCanDeferAgain(t *testing.T) {
	// The slot is free by the time the handler runs, so a handler may
	// book the next deferred call, even at the current instant.
	e := New(1)
	count := 0
	var h Handler
	h = func(now float64, _ uint64) {
		if count++; count < 3 {
			e.Defer(now, 0, h, 0)
		}
	}
	e.Defer(1, 0, h, 0)
	if n := e.Run(1); n != 3 || count != 3 {
		t.Errorf("ran %d events with %d handler calls, want 3 and 3", n, count)
	}
}

func TestEventsFiredCountsDeferredCalls(t *testing.T) {
	// The observer's probe CSV reads EventsFired, so the count must not
	// change when a call moves from the heap to the deferred slot.
	e := New(1)
	h := func(float64, uint64) {}
	e.ScheduleCall(1, 0, h, 0)
	e.Defer(1, 1, h, 0)
	e.ScheduleCall(2, 0, h, 0)
	if n := e.Run(5); n != 3 {
		t.Errorf("Run reported %d events, want 3", n)
	}
	if e.EventsFired() != 3 {
		t.Errorf("EventsFired = %d, want 3", e.EventsFired())
	}
}

func TestDeferContractPanics(t *testing.T) {
	// Defer shares ScheduleCall's time checks, so both are held to
	// them here.
	h := func(float64, uint64) {}
	for _, tc := range []struct {
		name string
		fn   func(e *Engine)
	}{
		{"second pending Defer", func(e *Engine) {
			e.Defer(6, 0, h, 0)
			e.Defer(7, 0, h, 0)
		}},
		{"in the past", func(e *Engine) { e.Defer(1, 0, h, 0) }},
		{"at NaN", func(e *Engine) { e.Defer(math.NaN(), 0, h, 0) }},
		{"at -Inf", func(e *Engine) { e.Defer(math.Inf(-1), 0, h, 0) }},
		{"ScheduleCall at NaN", func(e *Engine) { e.ScheduleCall(math.NaN(), 0, h, 0) }},
		{"ScheduleCall at -Inf", func(e *Engine) { e.ScheduleCall(math.Inf(-1), 0, h, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(1)
			e.ScheduleCall(5, 0, h, 0)
			e.Run(10)
			defer func() {
				if recover() == nil {
					t.Error("Defer did not panic")
				}
			}()
			tc.fn(e)
		})
	}
}

func TestStopEndsRunMidInstantAndRunResumes(t *testing.T) {
	// Six calls at one instant over two priorities, the deferred slot
	// among them; the third to fire stops the run. The rest must stay
	// pending and fire, on the next Run, in the order one uninterrupted
	// Run gives.
	book := func(e *Engine, h Handler) {
		e.ScheduleCall(1, 1, h, 1)
		e.ScheduleCall(1, 0, h, 2)
		e.Defer(1, 1, h, 3)
		e.ScheduleCall(1, 0, h, 4)
		e.ScheduleCall(1, 1, h, 5)
		e.ScheduleCall(2, 0, h, 6)
	}
	ref := New(1)
	var want []uint64
	book(ref, labelled(&want))
	ref.Run(10)

	e := New(1)
	var got []uint64
	h := func(_ float64, arg uint64) {
		got = append(got, arg)
		if len(got) == 3 {
			e.Stop()
			e.Stop() // a second Stop in the same handler changes nothing
		}
	}
	book(e, h)
	if n := e.Run(10); n != 3 {
		t.Fatalf("stopped Run fired %d events, want 3", n)
	}
	if e.Now() != 1 || e.Pending() != 3 {
		t.Fatalf("after Stop: now %v pending %d, want 1 and 3", e.Now(), e.Pending())
	}
	if n := e.Run(10); n != 3 {
		t.Fatalf("resumed Run fired %d events, want 3", n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stop and resume fired %v, uninterrupted run %v", got, want)
	}
}

func TestStopOutsideRunIsIgnored(t *testing.T) {
	e := New(1)
	var got []uint64
	h := labelled(&got)
	e.ScheduleCall(1, 0, h, 1)
	e.ScheduleCall(2, 0, h, 2)
	e.Stop()
	if n := e.Run(10); n != 2 {
		t.Errorf("Run after a Stop outside any run fired %d events, want 2", n)
	}
	// A Stop from a handler that Step fired does not carry over either.
	e.Schedule(3, 0, func(float64) { e.Stop() })
	e.ScheduleCall(4, 0, h, 4)
	e.Step()
	if n := e.Run(10); n != 1 {
		t.Errorf("Run after a Stop inside Step fired %d events, want 1", n)
	}
}

func TestStopBoundsAZeroDelayChain(t *testing.T) {
	// A handler that reschedules itself at the current instant never
	// lets the clock or the horizon end Run; an event budget counted in
	// the handler and enforced with Stop does.
	const budget = 1000
	for _, deferred := range []bool{false, true} {
		e := New(1)
		fired := 0
		var h Handler
		h = func(now float64, _ uint64) {
			if fired++; fired == budget {
				e.Stop()
			}
			if deferred {
				e.Defer(now, 0, h, 0)
			} else {
				e.ScheduleCall(now, 0, h, 0)
			}
		}
		e.ScheduleCall(0, 0, h, 0)
		if n := e.Run(math.Inf(1)); n != budget || fired != budget {
			t.Errorf("deferred=%v: Run fired %d events (%d handler calls), want %d", deferred, n, fired, budget)
		}
		if e.Now() != 0 || e.Pending() != 1 {
			t.Errorf("deferred=%v: now %v pending %d, want 0 and 1", deferred, e.Now(), e.Pending())
		}
	}
}
