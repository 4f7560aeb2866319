// Package obs is the simulator's deterministic observability layer:
// per-request span timelines (reservoir-sampled, exportable as Chrome
// trace_event JSON that Perfetto loads directly), fixed-interval
// time-series probes (exportable as CSV or JSON), and capacity-planner
// decision traces.
//
// The contract that lets observers ride inside the byte-identity
// corpus is strict read-onlyness: a Recorder never draws from a
// simulation RNG stream (its reservoir runs on its own
// mathx.DeriveSeed-derived stream), never mutates simulation state,
// and is consulted only behind nil guards — a disabled observer is a
// nil pointer and costs the hot path nothing. Same seed and config
// therefore export byte-identical timelines and probe series, with or
// without other observers attached, at any point of the run.
package obs

import "litegpu/internal/mathx"

// Kind enumerates timeline event kinds — the request lifecycle from
// arrival to completion, plus the instance-level events (failures,
// autoscaling) that explain why a request's timeline stalls.
type Kind uint8

const (
	// Request-scoped kinds (carried by sampled request timelines).
	Arrival      Kind = iota // request reached the router; Val = prompt tokens
	Shed                     // admission gate rejected it; Val = class
	Enqueue                  // joined its pool's scheduler queue
	PrefillStart             // prefill pass or chunk began; Val = batch size, chunk tokens, or a static rebuild's KV tokens
	PrefillEnd               // prompt fully prefilled
	Chunk                    // one chunked-prefill chunk completed; Val = prompt tokens left
	KVAlloc                  // KV blocks claimed at admission; Inst = -1, Val = blocks in use across the pool
	KVGrow                   // sequence grew into a fresh KV block; Inst = -1, Val = blocks in use across the pool
	KVPreempt                // evicted from the batch on KV exhaustion; Val = tokens held
	KVSwapOut                // preempted KV began its swap round-trip; Val = bytes
	KVRelease                // KV blocks returned; Inst = -1, Val = blocks in use across the pool
	XferStart                // fabric transfer launched; Val = bytes
	XferDeliver              // fabric transfer delivered; Val = seconds in flight
	Timeout                  // client deadline expired; Val = attempt index
	Backoff                  // retry booked; Val = backoff seconds
	Retry                    // resubmission entered the frontend under its new id; Val = attempt index
	Abandon                  // client gave up for good; Val = attempt index
	FirstToken               // first output token emitted; Val = TTFT seconds
	Complete                 // generation finished; Val = E2E seconds
	Requeue                  // in-flight work requeued off a dead instance; Val = 0
	Drop                     // dropped (failure policy, or oversize); Val = prompt tokens when oversized, 0 on failure

	// Instance-scoped kinds (always recorded; bounded by failure and
	// autoscale event counts, not the trace length).
	InstanceDown // instance failed; Val = GPUs lost
	InstanceUp   // spare takeover completed; Val = seconds the instance was down
	ScaleUp      // autoscaler unparked an instance; Inst = -1, Val = outstanding work per live instance
	ScaleDown    // autoscaler parked an instance; Inst = -1, Val = outstanding work per live instance
)

// kindNames renders Kind for exports; indexes match the constants.
var kindNames = [...]string{
	"arrival", "shed", "enqueue", "prefill_start", "prefill_end", "chunk",
	"kv_alloc", "kv_grow", "kv_preempt", "kv_swap_out", "kv_release",
	"xfer_start", "xfer_deliver", "timeout", "backoff", "retry",
	"abandon", "first_token", "complete", "requeue", "drop",
	"instance_down", "instance_up", "scale_up", "scale_down",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one timeline entry. Pool and Inst locate it (Inst -1 means
// the pool frontend/queue, not a specific instance); Req is the
// submission's request id (retries carry fresh ids, unique across the
// cluster); Val is the kind-specific payload documented on the Kind
// constants.
type Event struct {
	T    float64
	Kind Kind
	Pool int32
	Inst int32
	Req  int64
	Val  float64
}

// slot is one reservoir entry: a sampled request's timeline, held as a
// chain of chunks from the recorder's slab. Evicting the slot returns
// its chain to the slab's free list, so a long run cycles through the
// chunks its largest working set needed.
type slot struct {
	id         int64
	arrival    float64
	head, tail *chunk
	n          int // events held; the tail holds the last, at (n-1)%chunkEvents
}

// Slab sizes: a chunk holds chunkEvents events of one timeline, and the
// slab allocates chunks blockChunks at a time. The benchmark's overload
// run at seed 9 ends holding 4,096 timelines of 13 events at the median
// and 19 on average, in 6,741 chunks drawn from 106 blocks.
const (
	chunkEvents = 16
	blockChunks = 64
)

// chunk is one link of a slot's event chain, or of the free list.
type chunk struct {
	events [chunkEvents]Event
	next   *chunk
}

// DefaultSampleTargets bounds the reservoir: at most this many request
// timelines are retained, uniformly sampled over all arrivals, so a
// 1M-request run holds a bounded working set.
const DefaultSampleTargets = 4096

// Options configures a Recorder.
type Options struct {
	// Seed seeds the reservoir's private RNG stream (expanded through
	// mathx.DeriveSeed, so it never collides with simulation streams).
	Seed uint64
	// SampleTargets is the timeline reservoir capacity; 0 means
	// DefaultSampleTargets.
	SampleTargets int
	// ProbeInterval is the time-series sampling period in simulated
	// seconds; 0 disables probes.
	ProbeInterval float64
	// Heartbeat, when non-nil, is invoked on every request completion
	// with the simulated time and the exact completed-request count so
	// far (counted before reservoir sampling, so it is the run's true
	// total). The callback must be read-only with respect to the
	// simulation; litegpu-serve's -progress flag uses it to print a
	// wall-clock-throttled heartbeat to stderr.
	Heartbeat func(now float64, completed int64)
}

// Recorder accumulates one run's telemetry. It is not safe for
// concurrent use; a serving run drives it from its one event engine.
type Recorder struct {
	k    int
	rng  *mathx.RNG
	seen int

	slots   []slot
	live    idIndex // request id → slot, for tracked requests
	cluster []Event // instance-scoped events

	// The chunk slab: blocks are never re-copied, and the chunks of
	// evicted slots wait on free for reuse before block is drawn on.
	block  *[blockChunks]chunk
	used   int // chunks of block handed out
	free   *chunk
	blocks int // blocks allocated

	probeInterval float64
	probes        []ProbeSample

	heartbeat func(now float64, completed int64)
	completed int64

	poolNames []string
}

// New builds a Recorder. The zero Options value is valid: default
// reservoir size, probes off, seed 0.
func New(o Options) *Recorder {
	k := o.SampleTargets
	if k <= 0 {
		k = DefaultSampleTargets
	}
	return &Recorder{
		k:             k,
		rng:           mathx.NewRNG(mathx.DeriveSeed(o.Seed, 0x0b5e)),
		slots:         make([]slot, 0, k),
		live:          newIDIndex(k),
		probeInterval: o.ProbeInterval,
		heartbeat:     o.Heartbeat,
		poolNames:     nil,
	}
}

// SetPoolName records a pool's display name for exports. Pools without
// a recorded name render as "pool <i>".
func (r *Recorder) SetPoolName(pool int, name string) {
	for len(r.poolNames) <= pool {
		r.poolNames = append(r.poolNames, "")
	}
	r.poolNames[pool] = name
}

func (r *Recorder) poolName(pool int32) string {
	if int(pool) < len(r.poolNames) && r.poolNames[pool] != "" {
		return r.poolNames[pool]
	}
	return "pool"
}

// ProbeInterval reports the configured probe period (0 = probes off).
func (r *Recorder) ProbeInterval() float64 { return r.probeInterval }

// Request records one request-scoped event. An Arrival runs the
// reservoir admission decision; every other kind is recorded only when
// the request is currently tracked. Untracked requests cost one lookup
// in the id index. Recording allocates only when the slab runs out of
// chunks: once the reservoir is full, evicted timelines supply them.
//
//litegpu:hotpath
func (r *Recorder) Request(kind Kind, t float64, pool, inst int32, req int64, val float64) {
	var idx int32
	if kind == Arrival {
		idx = r.admit(req, t)
	} else {
		if kind == Complete {
			r.completed++
			if r.heartbeat != nil {
				r.heartbeat(t, r.completed)
			}
		}
		idx = r.live.get(req)
	}
	if idx < 0 {
		return
	}
	r.record(&r.slots[idx], Event{T: t, Kind: kind, Pool: pool, Inst: inst, Req: req, Val: val})
}

// record appends e to s's chain, starting a new chunk when the tail is
// full.
//
//litegpu:hotpath
func (r *Recorder) record(s *slot, e Event) {
	i := s.n % chunkEvents
	if i == 0 {
		c := r.newChunk()
		if s.tail == nil {
			s.head = c
		} else {
			s.tail.next = c
		}
		s.tail = c
	}
	s.tail.events[i] = e
	s.n++
}

// newChunk takes a chunk from the free list, or else from the current
// block, allocating a fresh block when that one is spent.
//
//litegpu:hotpath
func (r *Recorder) newChunk() *chunk {
	if c := r.free; c != nil {
		r.free = c.next
		c.next = nil
		return c
	}
	if r.block == nil || r.used == blockChunks {
		r.block = new([blockChunks]chunk) //litegpu:alloc-ok slab block: one per blockChunks chunks, and evicted chains are reused first
		r.used = 0
		r.blocks++
	}
	c := &r.block[r.used]
	r.used++
	return c
}

// release empties s, handing its whole chain to the free list.
//
//litegpu:hotpath
func (r *Recorder) release(s *slot) {
	if s.head != nil {
		s.tail.next = r.free
		r.free = s.head
	}
	s.head, s.tail, s.n = nil, nil, 0
}

// appendEvents appends s's timeline to dst in recording order.
func (s *slot) appendEvents(dst []Event) []Event {
	rest := s.n
	for c := s.head; rest > 0; c = c.next {
		k := min(chunkEvents, rest)
		dst = append(dst, c.events[:k]...)
		rest -= k
	}
	return dst
}

// Adopt re-keys a tracked request's timeline to a retry submission's
// fresh id, so the retries of a sampled request extend the same span
// instead of re-entering the reservoir. Untracked requests are a
// no-op.
//
//litegpu:hotpath
func (r *Recorder) Adopt(oldID, newID int64) {
	idx := r.live.get(oldID)
	if idx < 0 {
		return
	}
	r.live.del(oldID)
	r.slots[idx].id = newID
	r.live.put(newID, idx)
}

// Cluster records one instance-scoped event (failure, recovery,
// autoscale). These are never sampled away: their count is bounded by
// the failure/autoscale processes, not the trace.
func (r *Recorder) Cluster(kind Kind, t float64, pool, inst int32, val float64) {
	r.cluster = append(r.cluster, Event{T: t, Kind: kind, Pool: pool, Inst: inst, Req: -1, Val: val})
}

// admit runs the classic reservoir decision for a new arrival id:
// the first k arrivals fill the reservoir; arrival i>k replaces a
// uniformly chosen victim with probability k/i. Returns the slot
// index, or -1 when the arrival is not sampled.
//
//litegpu:hotpath
func (r *Recorder) admit(id int64, t float64) int32 {
	i := r.seen
	r.seen++
	if len(r.slots) < r.k {
		r.slots = append(r.slots, slot{id: id, arrival: t})
		idx := int32(len(r.slots) - 1)
		r.live.put(id, idx)
		return idx
	}
	j := r.rng.Intn(i + 1)
	if j >= r.k {
		return -1
	}
	v := &r.slots[j]
	r.live.del(v.id)
	r.release(v)
	v.id = id
	v.arrival = t
	r.live.put(id, int32(j))
	return int32(j)
}

// Sampled reports how many request timelines the reservoir currently
// holds and how many arrivals it has considered.
func (r *Recorder) Sampled() (held, seen int) { return len(r.slots), r.seen }
