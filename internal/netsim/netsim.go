// Package netsim is a deterministic, flow-level discrete-event model of
// a switched GPU fabric, built on the shared internal/sim calendar. It
// answers the question the analytical internal/network package cannot:
// what a transfer actually costs *under contention* — when several
// KV-cache handoffs share the same ports at the same time, when a
// circuit switch serializes them, when path latency stacks onto
// serialization.
//
// The model is the classic flow abstraction used by flow-level network
// simulators: a Transfer occupies its source endpoint's egress port and
// its destination endpoint's ingress port from start to delivery.
// Under a packet-switched discipline, concurrent transfers share port
// bandwidth max-min fairly, and every start or finish triggers a
// progress settlement and rate recomputation. Under a circuit-switched
// discipline (Sirius/OCS style), a transfer needs an exclusive circuit
// over both ports: transfers queue FIFO, run one-at-a-time per port at
// full bandwidth, and pay a reconfiguration delay per circuit. Both
// disciplines add the topology's path latency to delivery.
//
// Determinism and allocation discipline follow the repo contract:
// transfers live in a recyclable slab addressed by (slot, generation)
// ids, the active and pending sets are index slices scanned in start
// order (no maps), scratch buffers for the max-min waterfill are reused
// across recomputations, and delivery events ride the caller-supplied
// priority band — so a warm fabric starts, reshapes, and completes
// transfers without touching the Go heap, and identical inputs produce
// byte-identical schedules.
package netsim

import (
	"fmt"
	"math"

	"litegpu/internal/mathx"
	"litegpu/internal/sim"
)

// TransferID names an in-flight transfer for cancellation. Like
// sim.EventID it packs the slab slot with its generation, so a stale id
// (the transfer delivered or was cancelled) fails the generation check.
// The zero TransferID is never issued.
type TransferID uint64

// Params configures a Fabric.
type Params struct {
	// Ports is the per-endpoint port bandwidth in bytes/s, one entry
	// per endpoint; entry i caps both endpoint i's egress and its
	// ingress. Every entry must be positive.
	Ports []float64
	// PathLatency is the switch-traversal latency added to every
	// transfer's delivery (seconds) — the last byte arrives this long
	// after it is serialized.
	PathLatency float64
	// Circuit selects the circuit-switched discipline: exclusive
	// per-port circuits, FIFO queueing, full port bandwidth, and
	// ReconfigTime of setup per transfer. False = packet switching with
	// max-min fair sharing.
	Circuit bool
	// ReconfigTime is the circuit-establishment delay (Circuit only).
	ReconfigTime float64
}

// Validate reports the first configuration problem, or nil.
func (p Params) Validate() error {
	if len(p.Ports) == 0 {
		return fmt.Errorf("netsim: fabric needs at least one endpoint")
	}
	for i, bw := range p.Ports {
		if !(bw > 0) {
			return fmt.Errorf("netsim: endpoint %d port bandwidth %v must be positive", i, bw)
		}
	}
	if p.PathLatency < 0 || p.ReconfigTime < 0 {
		return fmt.Errorf("netsim: negative latency")
	}
	return nil
}

// flow states. A slot is reusable exactly when free.
const (
	flowFree int8 = iota
	flowPending
	flowActive
)

// flow is one slab slot: a transfer's live state.
type flow struct {
	src, dst int32
	state    int8
	gen      uint32

	bytes     float64 // original payload size, for stats
	remaining float64 // bytes not yet serialized
	overhead  float64 // latency (+ reconfig) left after the last byte
	rate      float64 // current serialization rate, bytes/s
	lastAt    float64 // time of the last settlement

	h    sim.Handler
	arg  uint64
	prio int32
	ev   sim.EventID
}

// Fabric is a simulated switched fabric attached to a sim.Engine. Not
// safe for concurrent use (the engine is single-threaded by design).
type Fabric struct {
	eng *sim.Engine
	p   Params

	flows []flow
	free  []int32

	// active holds running transfers in start order (packet mode: the
	// fair-share set; circuit mode: the circuits up). pending is the
	// circuit-mode FIFO.
	active  []int32
	pending []int32

	// Per-endpoint circuit occupancy (circuit mode).
	egBusy, inBusy []bool

	// Waterfill scratch, reused across recomputations.
	egCap, inCap []float64
	egCnt, inCnt []int
	prevRates    []float64

	deliverH sim.Handler

	// Delivered counts completed transfers; BytesDelivered sums their
	// payload bytes.
	Delivered      int
	BytesDelivered float64
}

// New returns a fabric on the engine. Params must validate.
func New(eng *sim.Engine, p Params) (*Fabric, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(p.Ports)
	f := &Fabric{
		eng:    eng,
		p:      p,
		egBusy: make([]bool, n),
		inBusy: make([]bool, n),
		egCap:  make([]float64, n),
		inCap:  make([]float64, n),
		egCnt:  make([]int, n),
		inCnt:  make([]int, n),
	}
	f.deliverH = f.onDeliver
	return f, nil
}

// Endpoints returns the fabric's endpoint count.
func (f *Fabric) Endpoints() int { return len(f.p.Ports) }

// InFlight returns the number of transfers started but not delivered.
func (f *Fabric) InFlight() int { return len(f.active) + len(f.pending) }

// Start launches a transfer of `bytes` from endpoint src to endpoint
// dst at the current engine time. When the transfer is delivered (all
// bytes serialized plus path latency), h(now, arg) fires in the given
// event-priority band. A zero-byte transfer is legal: it delivers after
// the latency overhead alone (same-timestamp when that is zero), still
// through the calendar so ordering stays deterministic.
//
//litegpu:hotpath
func (f *Fabric) Start(src, dst int, bytes float64, prio int, h sim.Handler, arg uint64) TransferID {
	if src < 0 || src >= len(f.p.Ports) || dst < 0 || dst >= len(f.p.Ports) {
		panic(fmt.Sprintf("netsim: endpoint out of range: %d -> %d of %d", src, dst, len(f.p.Ports)))
	}
	if bytes < 0 || math.IsNaN(bytes) || math.IsInf(bytes, 0) {
		panic(fmt.Sprintf("netsim: bad transfer size %v", bytes))
	}
	now := f.eng.Now()
	var slot int32
	if n := len(f.free); n > 0 {
		slot = f.free[n-1]
		f.free = f.free[:n-1]
	} else {
		f.flows = append(f.flows, flow{gen: 1})
		slot = int32(len(f.flows) - 1)
	}
	fl := &f.flows[slot]
	gen := fl.gen
	*fl = flow{
		src: int32(src), dst: int32(dst), gen: gen,
		bytes:     bytes,
		remaining: bytes,
		overhead:  f.p.PathLatency,
		lastAt:    now,
		h:         h,
		arg:       arg,
		prio:      int32(prio),
	}
	id := TransferID(uint64(gen)<<32 | uint64(uint32(slot)))
	if f.p.Circuit {
		fl.state = flowPending
		fl.overhead += f.p.ReconfigTime
		f.pending = append(f.pending, slot)
		f.drainPending(now)
	} else {
		fl.state = flowActive
		f.active = append(f.active, slot)
		f.reshare(now)
	}
	return id
}

// Cancel aborts a pending or in-flight transfer; its delivery handler
// never fires. It reports false when the id is stale (the transfer
// already delivered or was already cancelled) — a legal no-op, matching
// sim.Cancel semantics.
//
//litegpu:hotpath
func (f *Fabric) Cancel(id TransferID) bool {
	slot := uint32(id)
	gen := uint32(id >> 32)
	if uint64(slot) >= uint64(len(f.flows)) {
		return false
	}
	fl := &f.flows[slot]
	if fl.gen != gen || fl.state == flowFree {
		return false
	}
	now := f.eng.Now()
	switch fl.state {
	case flowPending:
		f.removeFrom(&f.pending, int32(slot))
		f.release(int32(slot))
	case flowActive:
		f.eng.Cancel(fl.ev)
		f.removeFrom(&f.active, int32(slot))
		if f.p.Circuit {
			f.egBusy[fl.src] = false
			f.inBusy[fl.dst] = false
			f.release(int32(slot))
			f.drainPending(now)
		} else {
			f.release(int32(slot))
			f.reshare(now)
		}
	}
	return true
}

// release recycles a slot, bumping the generation so stale TransferIDs
// miss.
//
//litegpu:hotpath
func (f *Fabric) release(slot int32) {
	fl := &f.flows[slot]
	fl.state = flowFree
	fl.gen++
	fl.h = nil
	f.free = append(f.free, slot)
}

// removeFrom deletes slot from an order-preserving id slice.
//
//litegpu:hotpath
func (f *Fabric) removeFrom(s *[]int32, slot int32) {
	ids := *s
	w := 0
	for _, id := range ids {
		if id != slot {
			ids[w] = id
			w++
		}
	}
	*s = ids[:w]
}

// onDeliver fires a transfer's delivery: free its ports, recycle its
// slot, account stats, hand the fabric to waiting work, and only then
// run the user handler — so the handler observes a consistent fabric.
//
//litegpu:hotpath
func (f *Fabric) onDeliver(now float64, arg uint64) {
	slot := int32(arg)
	fl := &f.flows[slot]
	h, userArg := fl.h, fl.arg
	f.Delivered++
	f.BytesDelivered += fl.bytes
	f.removeFrom(&f.active, slot)
	if f.p.Circuit {
		f.egBusy[fl.src] = false
		f.inBusy[fl.dst] = false
		f.release(slot)
		f.drainPending(now)
	} else {
		f.release(slot)
		f.reshare(now)
	}
	h(now, userArg)
}

// schedule (re)books a flow's delivery event at its projected delivery
// time: remaining serialization at the current rate, then the overhead
// tail.
//
//litegpu:hotpath
func (f *Fabric) schedule(slot int32) {
	fl := &f.flows[slot]
	if fl.ev != 0 {
		f.eng.Cancel(fl.ev)
	}
	at := fl.lastAt + fl.overhead
	if fl.remaining > 0 {
		at += fl.remaining / fl.rate
	}
	fl.ev = f.eng.ScheduleCall(at, int(fl.prio), f.deliverH, uint64(uint32(slot)))
}

// settle advances a flow's progress to now at its current rate: bytes
// serialize first, then the overhead tail burns in real time.
//
//litegpu:hotpath
func (f *Fabric) settle(slot int32, now float64) {
	fl := &f.flows[slot]
	dt := now - fl.lastAt
	fl.lastAt = now
	if dt <= 0 {
		return
	}
	if fl.remaining > 0 && fl.rate > 0 {
		tBytes := fl.remaining / fl.rate
		if dt < tBytes {
			fl.remaining -= fl.rate * dt
			return
		}
		fl.remaining = 0
		dt -= tBytes
	}
	fl.overhead -= dt
	if fl.overhead < 0 {
		fl.overhead = 0
	}
}

// drainPending starts every queued circuit whose source egress and
// destination ingress are both free, scanning in FIFO order (blocked
// entries are skipped, not head-of-line blocking the rest — skipping
// is what makes the atomically-grab-both-ports discipline
// deadlock-free).
//
//litegpu:hotpath
func (f *Fabric) drainPending(now float64) {
	ids := f.pending
	w := 0
	for _, slot := range ids {
		fl := &f.flows[slot]
		if f.egBusy[fl.src] || f.inBusy[fl.dst] {
			ids[w] = slot
			w++
			continue
		}
		f.egBusy[fl.src] = true
		f.inBusy[fl.dst] = true
		fl.state = flowActive
		fl.lastAt = now
		fl.rate = math.Min(f.p.Ports[fl.src], f.p.Ports[fl.dst])
		f.active = append(f.active, slot)
		f.schedule(slot)
	}
	f.pending = ids[:w]
}

// reshare settles every active flow to now, recomputes max-min fair
// rates over the endpoint ports, and reschedules deliveries whose rate
// changed (packet discipline only).
//
// The waterfill is the textbook algorithm: repeatedly find the most
// contended port (smallest capacity/flows ratio; ties break egress
// before ingress, then lowest endpoint index, so the outcome is
// deterministic), freeze its flows at that fair share, charge the share
// to each frozen flow's other port, and repeat until every flow has a
// rate.
//
//litegpu:hotpath
func (f *Fabric) reshare(now float64) {
	if len(f.active) == 0 {
		return
	}
	for _, slot := range f.active {
		f.settle(slot, now)
	}
	for i := range f.p.Ports {
		f.egCap[i] = f.p.Ports[i]
		f.inCap[i] = f.p.Ports[i]
		f.egCnt[i] = 0
		f.inCnt[i] = 0
	}
	for _, slot := range f.active {
		fl := &f.flows[slot]
		f.egCnt[fl.src]++
		f.inCnt[fl.dst]++
	}
	unassigned := len(f.active)
	// rate < 0 marks a flow not yet frozen this round; prev rates are
	// kept so unchanged flows skip the cancel-and-reschedule churn.
	prev := f.prevRates[:0]
	for _, slot := range f.active {
		prev = append(prev, f.flows[slot].rate) //litegpu:alloc-ok prev aliases the reused f.prevRates scratch; growth is amortized-zero
		f.flows[slot].rate = -1
	}
	f.prevRates = prev
	for unassigned > 0 {
		// Find the bottleneck port.
		bestShare := math.Inf(1)
		bestIdx, bestIn := -1, false
		for i := range f.p.Ports {
			if f.egCnt[i] > 0 {
				if share := f.egCap[i] / float64(f.egCnt[i]); share < bestShare {
					bestShare, bestIdx, bestIn = share, i, false
				}
			}
		}
		for i := range f.p.Ports {
			if f.inCnt[i] > 0 {
				if share := f.inCap[i] / float64(f.inCnt[i]); share < bestShare {
					bestShare, bestIdx, bestIn = share, i, true
				}
			}
		}
		if bestIdx < 0 {
			break // defensive: no contended port left
		}
		for _, slot := range f.active {
			fl := &f.flows[slot]
			if fl.rate >= 0 {
				continue
			}
			if (!bestIn && int(fl.src) == bestIdx) || (bestIn && int(fl.dst) == bestIdx) {
				fl.rate = bestShare
				unassigned--
				f.egCnt[fl.src]--
				f.egCap[fl.src] -= bestShare
				f.inCnt[fl.dst]--
				f.inCap[fl.dst] -= bestShare
			}
		}
	}
	for i, slot := range f.active {
		fl := &f.flows[slot]
		// A settled flow's delivery time depends only on (lastAt,
		// remaining, rate); with the rate unchanged the booked event is
		// still exact, so only rate changes (and fresh flows, ev == 0)
		// reschedule.
		if fl.ev != 0 && mathx.ExactEq(fl.rate, prev[i]) {
			continue
		}
		f.schedule(slot)
	}
}
