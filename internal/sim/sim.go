// Package sim is the deterministic discrete-event core shared by the
// litegpu simulators: a slab-backed min-heap event calendar, a simulated
// clock, closure-free typed event scheduling with O(log n) cancellation,
// and seeded randomness through mathx so every run is byte-identical —
// including under the parallel sweep, where each grid cell derives its
// own seed via mathx.DeriveSeed.
//
// Determinism is the whole point. Events fire in (time, priority,
// insertion order) order: priorities give simulators explicit control
// over same-timestamp phases (arrivals before completions before
// dispatch), and the insertion-order tiebreak makes equal-priority ties
// FIFO rather than heap-arbitrary. No wall clock, no global RNG, no map
// iteration touches event order.
//
// The calendar is allocation-free at steady state. Events live in a
// reusable slab indexed by a heap of small value entries; scheduling
// recycles slots through a free list, and cancellation resolves the
// EventID's (slot, generation) pair directly against the slab — there is
// no per-event heap node, no closure, and no id map. The hot-path API is
// ScheduleCall(at, prio, h, arg): simulators bind their handler funcs
// once at setup and pass per-event context through the arg word, so a
// warm engine schedules and fires events without touching the Go heap.
// Defer(at, prio, h, arg) books the same kind of call into one slot
// beside the heap, for a call that recurs often but is never pending
// twice (the serving simulator's end-of-instant dispatch pass): it is
// ordered by the same (time, priority, insertion order) rule, but pays
// no heap push or pop. Stop ends the Run in progress once the current
// handler returns, leaving every pending event in place, so a handler
// can end a run whose outcome is already decided, or bound a run by an
// event budget. Schedule(at, prio, fn) remains as a convenience for
// cold paths and tests; its adapter closure is the only allocation in
// the package.
package sim

import (
	"fmt"
	"math"

	"litegpu/internal/mathx"
)

// EventID names a scheduled event for cancellation. It packs the
// event's slab slot with the slot's generation at scheduling time, so a
// stale id (the event ran, or was cancelled, and the slot moved on)
// simply fails the generation check. The zero EventID is never issued,
// so it can mark "no event pending".
type EventID uint64

// Handler is a pre-bound event callback: `now` is the event's firing
// time (== Engine.Now()) and `arg` is the word passed to ScheduleCall,
// typically an encoded instance or pool index. Binding handlers once
// and routing per-event context through arg is what keeps the hot path
// closure-free.
type Handler func(now float64, arg uint64)

// event is one slab slot: the callback state of a scheduled (or freed)
// event. Ordering state lives in the heap entries; pos links back from
// the slab so Cancel can remove an event in O(log n) without a search.
type event struct {
	h   Handler
	arg uint64
	gen uint32 // bumped every time the slot is freed
	pos int32  // current heap index; -1 when free
}

// heapEnt is one calendar entry: everything the heap ordering needs,
// kept as a small value so sift operations never chase slab pointers.
type heapEnt struct {
	at   float64
	seq  uint64 // insertion-order tiebreak
	prio int32
	slot int32
}

// Engine is a discrete-event simulation: a clock plus a calendar of
// pending events. The zero value is not usable; call New.
type Engine struct {
	now   float64
	prio  int32 // priority of the event that set now (see NowPrio)
	seq   uint64
	fired uint64
	heap  []heapEnt
	slab  []event
	free  []int32
	rng   *mathx.RNG

	// stop asks the Run in progress to return after the current
	// handler (see Stop).
	stop bool

	// The deferred slot (see Defer): def orders the call against
	// heap[0]; defH and defArg are its callback. deferred marks it
	// pending.
	deferred bool
	def      heapEnt
	defH     Handler
	defArg   uint64
}

// New returns an engine at time zero whose RNG is seeded with seed.
// Simulators that need several independent streams should derive them
// with RNG().Split or mathx.DeriveSeed rather than sharing one stream
// across components, so adding draws in one component cannot perturb
// another.
func New(seed uint64) *Engine {
	return &Engine{rng: mathx.NewRNG(seed)}
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// RNG returns the engine's seeded generator.
func (e *Engine) RNG() *mathx.RNG { return e.rng }

// Pending returns the number of scheduled events, the deferred call
// included.
func (e *Engine) Pending() int {
	if e.deferred {
		return len(e.heap) + 1
	}
	return len(e.heap)
}

// NowPrio returns the priority of the event that set the clock: the
// event firing now when called from a handler, the last one fired
// otherwise. With Now it places a stopped Run exactly in the calendar
// order, so a simulator can tell which events at the stopping instant
// had fired before it.
func (e *Engine) NowPrio() int { return int(e.prio) }

// EventsFired returns the count of events executed so far — a cheap
// progress measure for observability probes and heartbeats.
func (e *Engine) EventsFired() uint64 { return e.fired }

// Next peeks at the earliest pending event time.
func (e *Engine) Next() (at float64, ok bool) {
	switch {
	case e.deferredFirst():
		return e.def.at, true
	case len(e.heap) > 0:
		return e.heap[0].at, true
	}
	return 0, false
}

// deferredFirst reports whether the deferred call is pending and
// precedes every heap entry.
//
//litegpu:hotpath
func (e *Engine) deferredFirst() bool {
	return e.deferred && (len(e.heap) == 0 || less(e.def, e.heap[0]))
}

// ScheduleCall books h(at, arg) at absolute time `at` with the given
// priority. Among events at the same time, lower priority runs first;
// equal priorities run in scheduling order. Scheduling in the past (or a
// non-finite time) panics — it is always a simulator bug, and silently
// clamping it would corrupt causality.
//
// This is the allocation-free hot path: h should be a handler bound
// once at simulator setup (a stored method value), with per-event
// context packed into arg.
//
//litegpu:hotpath
func (e *Engine) ScheduleCall(at float64, prio int, h Handler, arg uint64) EventID {
	e.checkAt(at)
	e.seq++
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slab = append(e.slab, event{gen: 1})
		slot = int32(len(e.slab) - 1)
	}
	ev := &e.slab[slot]
	ev.h, ev.arg = h, arg
	ev.pos = int32(len(e.heap))
	e.heap = append(e.heap, heapEnt{at: at, seq: e.seq, prio: int32(prio), slot: slot})
	e.siftUp(int(ev.pos))
	return EventID(uint64(ev.gen)<<32 | uint64(uint32(slot)))
}

// Defer books h(at, arg) like ScheduleCall, but in the engine's one
// deferred slot instead of the heap. The call takes its insertion order
// from the same counter as scheduled events and fires in the same
// (time, priority, insertion order) order, so moving a call from
// ScheduleCall to Defer never changes what runs when; it only skips
// the heap push and pop.
//
// The contract is narrow: at most one deferred call is pending (a
// second Defer before it fires panics), and it cannot be cancelled.
// The slot is free again by the time its handler runs, so the handler
// may Defer the next call.
//
//litegpu:hotpath
func (e *Engine) Defer(at float64, prio int, h Handler, arg uint64) {
	e.checkAt(at)
	if e.deferred {
		panic(fmt.Sprintf("sim: Defer at %v while a deferred call is pending at %v", at, e.def.at))
	}
	e.seq++
	e.deferred = true
	e.def = heapEnt{at: at, seq: e.seq, prio: int32(prio), slot: -1}
	e.defH, e.defArg = h, arg
}

// checkAt panics when at lies before now, which covers -Inf, or is
// NaN, which fails every comparison.
func (e *Engine) checkAt(at float64) {
	if !(at >= e.now) {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, e.now))
	}
}

// Schedule books fn to run at absolute time `at`; see ScheduleCall for
// the ordering contract. The closure adapter allocates, so hot loops
// should prefer ScheduleCall — Schedule exists for cold paths and
// tests.
func (e *Engine) Schedule(at float64, prio int, fn func(now float64)) EventID {
	return e.ScheduleCall(at, prio, func(now float64, _ uint64) { fn(now) }, 0)
}

// ScheduleAfter books fn at Now()+delay. Negative delays panic via
// ScheduleCall.
func (e *Engine) ScheduleAfter(delay float64, prio int, fn func(now float64)) EventID {
	return e.Schedule(e.now+delay, prio, fn)
}

// Cancel removes a pending event booked by ScheduleCall; a deferred
// call has no EventID and cannot be cancelled. It reports false when
// the event already ran, was already cancelled, or never existed —
// cancelling a completed event is a legal no-op, which is what lets
// simulators keep "the completion I booked" handles without tracking
// their lifecycle.
//
//litegpu:hotpath
func (e *Engine) Cancel(id EventID) bool {
	slot := uint32(id)
	gen := uint32(id >> 32)
	if uint64(slot) >= uint64(len(e.slab)) {
		return false
	}
	ev := &e.slab[slot]
	if ev.gen != gen || ev.pos < 0 {
		return false
	}
	e.removeAt(int(ev.pos))
	return true
}

// Run executes events in order until the calendar is empty, the next
// event lies beyond `until` (events at exactly `until` run), or a
// handler calls Stop. The clock advances to each event's time as it
// fires; it does not advance past the last executed event, matching
// the convention that a horizon ends the observation window rather
// than the world. Returns the number of events executed.
//
// Handlers may schedule and cancel freely, including at the current
// time; newly scheduled events at or before `until` run in the same
// call.
//
//litegpu:hotpath
func (e *Engine) Run(until float64) int {
	e.stop = false
	n := 0
	for !e.stop && e.fireNext(until) {
		n++
	}
	return n
}

// Stop ends the Run in progress as soon as the current handler
// returns, even when more events are due at the same instant. Nothing
// is discarded: pending events, the deferred call included, stay in
// the calendar, and a later Run fires them in the order the stopped
// Run would have. Calling Stop more than once in a handler is the same
// as calling it once. Outside a Run (including from a handler that
// Step fired) it has no effect, because every Run starts unstopped.
func (e *Engine) Stop() { e.stop = true }

// Step executes exactly one event if one is pending, reporting whether
// it did. Tests use it to observe intermediate states.
//
//litegpu:hotpath
func (e *Engine) Step() bool {
	return e.fireNext(math.Inf(1))
}

// fireNext fires the earliest pending event, the heap's top or the
// deferred call, if it lies at or before until, and reports whether it
// did. It frees the event's slot, advances the clock, and invokes the
// handler. The handler state is copied out before the slot is
// recycled, so handlers may schedule freely (including into the slot
// they just vacated) and may Defer again.
//
//litegpu:hotpath
func (e *Engine) fireNext(until float64) bool {
	var at float64
	var prio int32
	var h Handler
	var arg uint64
	if e.deferredFirst() {
		if e.def.at > until {
			return false
		}
		at, prio, h, arg = e.def.at, e.def.prio, e.defH, e.defArg
		e.deferred, e.defH = false, nil
	} else {
		if len(e.heap) == 0 || e.heap[0].at > until {
			return false
		}
		top := e.heap[0]
		ev := &e.slab[top.slot]
		at, prio, h, arg = top.at, top.prio, ev.h, ev.arg
		e.removeAt(0)
	}
	e.now, e.prio = at, prio
	e.fired++
	h(at, arg)
	return true
}

// less orders the calendar: earlier time, then lower priority, then
// earlier scheduling.
//
//litegpu:hotpath
func less(a, b heapEnt) bool {
	if mathx.ExactNe(a.at, b.at) {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

//litegpu:hotpath
func (e *Engine) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(e.heap[i], e.heap[parent]) {
			break
		}
		e.swap(i, parent)
		i = parent
	}
}

//litegpu:hotpath
func (e *Engine) siftDown(i int) {
	n := len(e.heap)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && less(e.heap[l], e.heap[min]) {
			min = l
		}
		if r < n && less(e.heap[r], e.heap[min]) {
			min = r
		}
		if min == i {
			return
		}
		e.swap(i, min)
		i = min
	}
}

//litegpu:hotpath
func (e *Engine) swap(i, j int) {
	e.heap[i], e.heap[j] = e.heap[j], e.heap[i]
	e.slab[e.heap[i].slot].pos = int32(i)
	e.slab[e.heap[j].slot].pos = int32(j)
}

// removeAt deletes the heap entry at index i, recycles its slab slot
// (bumping the generation so stale EventIDs miss), and restores the
// heap property around the hole.
//
//litegpu:hotpath
func (e *Engine) removeAt(i int) {
	slot := e.heap[i].slot
	ev := &e.slab[slot]
	ev.gen++
	ev.pos = -1
	ev.h = nil
	ev.arg = 0
	e.free = append(e.free, slot)

	last := len(e.heap) - 1
	if i != last {
		e.heap[i] = e.heap[last]
		e.slab[e.heap[i].slot].pos = int32(i)
	}
	e.heap = e.heap[:last]
	if i < last {
		e.siftDown(i)
		e.siftUp(i)
	}
}
