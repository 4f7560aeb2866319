package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// FuzzCalendarOrder checks the engine's firing order against an
// independent reference. The input is a program: setup actions, then
// actions that each fired event's handler issues from where the
// previous handler stopped. Actions are ScheduleCall, Cancel and Defer
// at small integer offsets from now over three priorities, so equal
// (at, prio) ties are common, and Stop, which ends the Run in progress
// after the current handler and does nothing outside a Run. The same
// program runs on the engine and on refCalendar, which keeps every
// pending event in a plain slice and fires the minimum (at, prio, seq)
// by a linear scan; it calls no code of this package. The two logs of
// fired events, cancel results, Pending and Next must match.
func FuzzCalendarOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 0, 0, 0, 1, 0, 2, 2, 0, 1, 4, 0, 0, 6, 0, 2, 4, 5})
	// Every handler defers at now: a chain of same-instant passes.
	f.Add([]byte{4, 0, 0, 4, 1, 1, 4, 2, 1, 4, 3, 1, 4, 0, 1, 4, 0, 1, 4, 0})
	// Cancels of fired, pending and already cancelled events.
	f.Add([]byte{0, 1, 0, 2, 0, 3, 6, 0, 6, 0, 2, 6, 1, 0, 5, 2, 6, 2, 1, 6, 0})
	// Stops during setup and from handlers mid-instant.
	f.Add([]byte{7, 0, 0, 0, 0, 0, 4, 0, 0, 0, 2, 7, 0, 0, 0, 1, 7, 0, 2, 7, 0, 0, 0, 1, 7, 0})
	for seed := uint64(1); seed <= 6; seed++ {
		f.Add(xorshiftBytes(seed, 400))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got := runCalendarProgram(data, func(fire func(int, float64)) calendar {
			c := &engineCalendar{e: New(1), ids: map[int]EventID{}}
			c.h = func(now float64, arg uint64) { fire(int(arg), now) }
			return c
		})
		want := runCalendarProgram(data, func(fire func(int, float64)) calendar {
			return &refCalendar{fire: fire}
		})
		if !reflect.DeepEqual(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("engine log diverges from the reference at entry %d of %d/%d: engine %v, reference %v",
				i, len(got), len(want), logAt(got, i), logAt(want, i))
		}
	})
}

// calendar is what a calendar program drives: the engine through
// engineCalendar, or refCalendar.
type calendar interface {
	now() float64
	schedule(at float64, prio, label int)
	deferCall(at float64, prio, label int)
	cancel(label int) bool
	run(until float64)
	stop()
	step() bool
	pending() int
	next() (float64, bool)
}

// calendarProgram interprets a fuzz input against one calendar and
// logs what it observes.
type calendarProgram struct {
	cal       calendar
	data      []byte
	labels    int   // labels issued so far
	scheduled []int // labels booked with schedule, for cancel to pick from
	deferred  int   // label of the pending deferred call; 0 when none
	log       []string
}

// runCalendarProgram runs data on the calendar that mk builds around
// the program's fire callback and returns the log.
func runCalendarProgram(data []byte, mk func(fire func(int, float64)) calendar) []string {
	p := &calendarProgram{data: data}
	p.cal = mk(p.fire)
	p.act(8)
	for until := 2.0; until <= 12; until += 2 {
		p.cal.run(until)
		p.observe("run")
	}
	for p.cal.step() {
	}
	p.observe("drain")
	return p.log
}

func (p *calendarProgram) fire(label int, now float64) {
	if label == p.deferred {
		p.deferred = 0
	}
	p.log = append(p.log, fmt.Sprintf("fire %d at %v", label, now))
	if len(p.data) > 0 {
		n := int(p.data[0] % 3)
		p.data = p.data[1:]
		p.act(n)
	}
	p.observe("after")
}

// act issues up to n actions of two bytes each: an opcode and an
// operand whose low two bits are the time offset and whose next bits
// pick the priority.
func (p *calendarProgram) act(n int) {
	for ; n > 0 && len(p.data) >= 2; n-- {
		op, x := p.data[0]%8, p.data[1]
		p.data = p.data[2:]
		at := p.cal.now() + float64(x%4)
		prio := int(x>>2) % 3
		switch {
		case op <= 3:
			p.labels++
			p.cal.schedule(at, prio, p.labels)
			p.scheduled = append(p.scheduled, p.labels)
		case op <= 5:
			if p.deferred != 0 {
				continue
			}
			p.labels++
			p.deferred = p.labels
			p.cal.deferCall(at, prio, p.labels)
		case op == 7:
			p.log = append(p.log, "stop")
			p.cal.stop()
		default:
			if len(p.scheduled) == 0 {
				continue
			}
			label := p.scheduled[int(x)%len(p.scheduled)]
			p.log = append(p.log, fmt.Sprintf("cancel %d: %v", label, p.cal.cancel(label)))
		}
	}
}

func (p *calendarProgram) observe(when string) {
	next, ok := p.cal.next()
	p.log = append(p.log, fmt.Sprintf("%s: now %v pending %d next %v/%v",
		when, p.cal.now(), p.cal.pending(), next, ok))
}

// engineCalendar adapts an Engine to calendar; labels ride in arg.
type engineCalendar struct {
	e   *Engine
	h   Handler
	ids map[int]EventID
}

func (c *engineCalendar) now() float64 { return c.e.Now() }
func (c *engineCalendar) schedule(at float64, prio, label int) {
	c.ids[label] = c.e.ScheduleCall(at, prio, c.h, uint64(label))
}
func (c *engineCalendar) deferCall(at float64, prio, label int) {
	c.e.Defer(at, prio, c.h, uint64(label))
}
func (c *engineCalendar) cancel(label int) bool { return c.e.Cancel(c.ids[label]) }
func (c *engineCalendar) run(until float64)     { c.e.Run(until) }
func (c *engineCalendar) stop()                 { c.e.Stop() }
func (c *engineCalendar) step() bool            { return c.e.Step() }
func (c *engineCalendar) pending() int          { return c.e.Pending() }
func (c *engineCalendar) next() (float64, bool) { return c.e.Next() }

// refCalendar is the reference: pending events in a plain slice, the
// earliest found by a linear scan. A deferred call is an ordinary
// entry here. stopped is set by stop and cleared when run starts.
type refCalendar struct {
	clock   float64
	seq     int
	evs     []refEvent
	stopped bool
	fire    func(label int, now float64)
}

type refEvent struct {
	at               float64
	prio, seq, label int
}

func (r *refCalendar) now() float64 { return r.clock }
func (r *refCalendar) schedule(at float64, prio, label int) {
	r.seq++
	r.evs = append(r.evs, refEvent{at: at, prio: prio, seq: r.seq, label: label})
}
func (r *refCalendar) deferCall(at float64, prio, label int) { r.schedule(at, prio, label) }

func (r *refCalendar) cancel(label int) bool {
	for i, ev := range r.evs {
		if ev.label == label {
			r.evs = append(r.evs[:i], r.evs[i+1:]...)
			return true
		}
	}
	return false
}

// first returns the index of the earliest event by (at, prio, seq),
// or -1 when none is pending.
func (r *refCalendar) first() int {
	best := -1
	for i, ev := range r.evs {
		if best < 0 {
			best = i
			continue
		}
		b := r.evs[best]
		if ev.at < b.at || ev.at == b.at && (ev.prio < b.prio || ev.prio == b.prio && ev.seq < b.seq) {
			best = i
		}
	}
	return best
}

func (r *refCalendar) step() bool {
	i := r.first()
	if i < 0 {
		return false
	}
	ev := r.evs[i]
	r.evs = append(r.evs[:i], r.evs[i+1:]...)
	r.clock = ev.at
	r.fire(ev.label, ev.at)
	return true
}

func (r *refCalendar) run(until float64) {
	r.stopped = false
	for i := r.first(); i >= 0 && r.evs[i].at <= until; i = r.first() {
		r.step()
		if r.stopped {
			return
		}
	}
}

func (r *refCalendar) stop() { r.stopped = true }

func (r *refCalendar) pending() int { return len(r.evs) }
func (r *refCalendar) next() (float64, bool) {
	if i := r.first(); i >= 0 {
		return r.evs[i].at, true
	}
	return 0, false
}

// logAt returns log[i], or "end" past its end.
func logAt(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "end"
}

// xorshiftBytes returns n pseudo-random bytes from seed, for seed
// corpus entries longer than is convenient to write by hand.
func xorshiftBytes(seed uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		b[i] = byte(seed >> 32)
	}
	return b
}
