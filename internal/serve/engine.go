package serve

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"litegpu/internal/failure"
	"litegpu/internal/kv"
	"litegpu/internal/mathx"
	"litegpu/internal/netsim"
	"litegpu/internal/obs"
	"litegpu/internal/sim"
	"litegpu/internal/trace"
	"litegpu/internal/units"
)

// Same-timestamp event ordering, reproducing the phased scan of the
// pre-sim serve loop: all arrivals, then prefill completions in engine
// order, then decode completions in engine order, then failure
// machinery, then exactly one dispatch pass. Within each band an
// instance's offset is poolIndexBase(pool)+instance, so pool 0's
// engines order before pool 1's; ClusterConfig validation caps pools
// at maxPoolInstances instances to keep offsets inside their band.
// Colocated schedulers use the prefill band for prefill-only steps and
// the decode band for steps that emit tokens.
const (
	prioArrival  = 0
	prioPrefill  = 1 << 20 // + global prefill engine index
	prioDecode   = 2 << 20 // + global decode engine index
	prioFailure  = 3 << 20 // + global instance index
	prioTransfer = 4 << 20 // + destination instance index: fabric deliveries
	prioClient   = 5 << 20 // + pool index base: client deadlines/retries; +1 for autoscale ticks
	prioDispatch = 1 << 30
	// prioProbe orders observability probe ticks after the dispatch pass
	// at their timestamp, so probes sample settled post-dispatch state.
	// The pass rides the engine's deferred slot (sim.Engine.Defer), but
	// that slot is ordered against the heap by the same (time,
	// priority, seq) rule, so the probe still fires after it. Probe
	// events are read-only and exist only with an observer attached;
	// the engine's insertion-seq tiebreak is monotonic, so the extra
	// events never reorder simulation events at other priorities.
	prioProbe = prioDispatch + 1
)

// activeReq is one request attempt's live state, the one handle the
// pool holds it by from submit to its exit: ingress, queues, batches
// and transfers all carry the pointer. The static policy only uses the
// decode-phase fields; colocated policies also track chunked prefill
// progress.
type activeReq struct {
	req       trace.Request
	remaining int
	decodeAt  float64 // decode admission time (first admission; survives requeues)
	firstAt   float64 // first-token emission time
	admitted  bool
	emitted   bool
	// cancelled marks an attempt whose client timed out while it was
	// woven through a queue, batch or ingress transfer; the next choke
	// point that touches it reclaims it. track is 1 + the index of the
	// attempt's live client track, 0 when untracked.
	cancelled bool
	track     int32

	// promptLeft is the prompt-token count not yet prefilled; colocated
	// schedulers decrement it as chunks (or full passes) complete, and
	// record the TTFT sample exactly once when it reaches zero. Chunk
	// progress is applied only at step completion, so a failure
	// mid-chunk loses the in-flight chunk but never double-counts or
	// skips tokens across requeues.
	promptLeft int
	ttftDone   bool

	// kvSeq is the request's sequence handle in its decode engine's
	// paged KV allocator; -1 when it holds no blocks (KV off, queued,
	// preempted, or its allocator was reset by an instance failure).
	kvSeq kv.SeqID
}

// instanceState is the failure-facing side of an engine: every serving
// instance — a phase-split prefill/decode engine or a colocated one —
// is a unit of gpus GPUs that can be down, waiting for a spare, or
// serving, and that accumulates its own busy seconds.
type instanceState struct {
	gpus    int
	up      bool
	downAt  float64
	downSec float64 // accumulated instance downtime, seconds
	failRNG *mathx.RNG
	rate    float64 // instance failure rate per simulated second
	prio    int     // unique per-instance offset added to a priority band
	doneEv  sim.EventID

	// pBusy and dBusy accumulate the instance's prefill and decode busy
	// seconds; a failure un-counts the aborted work's unfinished tail.
	pBusy float64
	dBusy float64

	// Autoscale state (all false/zero with Config.Autoscale off): a
	// parked instance draws no dispatch; a warming one is mid cold
	// start; a draining one finishes in-flight work then parks itself.
	// parkedAt/parkedSec integrate parked time for MeanLiveInstances.
	parked    bool
	warming   bool
	draining  bool
	parkedAt  float64
	parkedSec float64

	// slow is the instance's persistent step-time stretch factor drawn
	// from Config.Straggler; 0 means nominal (straggler modeling off).
	slow float64
}

// activeChunk is the allocation unit of the activeReq freelist: live
// request state is recycled through per-pool free lists, so at steady
// state the in-flight working set cycles through a fixed arena instead
// of allocating per request.
const activeChunk = 64

// ingressBytesPerToken is the wire size of one routed prompt token
// (an int32 token id): what a multi-pool cluster's router pushes over
// the fabric to hand an arrival to its pool. Tiny next to KV bytes,
// but it charges the path latency every request must pay.
const ingressBytesPerToken = 4

// Kinds of fabric transfer a pool can have in flight.
const (
	xferKV      int8 = iota // KV-cache handoff: prefill → decode instance
	xferIngress             // routed arrival: router → pool instance
	xferSwap                // preempted KV returning to decode: swap round-trip or recompute handoff (no TTFT stamp)
)

// xferRec is one in-flight fabric transfer's serving-side state,
// recycled through a per-pool index arena (the fabric's own flow state
// lives in netsim). src/dst are pool-local instance ids for KV
// handoffs (-1 for ingress, which is not tied to an instance); a is the
// attempt the transfer carries.
type xferRec struct {
	kind     int8
	src, dst int32
	a        *activeReq
	tid      netsim.TransferID
	start    float64
	bytes    float64
}

// poolSim is one serving pool's live state: what every scheduling
// policy shares — the instance table, the batch core, the request
// ledger, the spare shelf and the metric accumulators — and the policy
// itself behind the scheduler interface.
type poolSim struct {
	name  string
	idx   int // position in clusterSim.pools, for handler args
	cfg   Config
	sched scheduler

	// insts lists every instance's failure-facing state in instance-id
	// order, as the scheduler builds its engines (see addInstance); core
	// is the batch core the scheduler runs its decode-capable engines on.
	insts []*instanceState
	core  *batchCore

	// afrPerGPU and flopsPerGPU weight this pool's instances in
	// cluster-total reliability aggregates: failure odds scale with
	// per-GPU AFR, capacity with per-GPU compute. Within a pool both
	// are uniform, so per-pool metrics never see them.
	afrPerGPU   float64
	flopsPerGPU float64

	// Spare shelf and the FIFO of down instances waiting for one.
	spareFree int
	waiting   []int

	// dispatchWanted marks the pool for the next dispatch pass (see
	// clusterSim.requestDispatch).
	dispatchWanted bool

	// freeReqs recycles activeReq state: completed (or dropped)
	// requests return here and are reused for later arrivals.
	freeReqs []*activeReq

	// Fabric-facing state, used only when the cluster runs a fabric:
	// epBase is the pool's first endpoint index (the cluster's router
	// is endpoint 0), nodeOf maps instances to scale-up nodes, and
	// kvPerToken is the model's full KV-cache bytes per prompt token
	// at the pool's precision. In-flight transfers recycle through the
	// xfers index arena; liveXfers lists the KV handoffs and swaps in
	// flight, scanned when an instance dies or a client deadline fires.
	epBase     int
	nodeOf     []int32
	kvPerToken float64
	ingressRR  int
	xfers      []xferRec
	freeXferIx []int32
	liveXfers  []int32

	// KV-memory accumulators (all zero with Config.KV disabled).
	// kvBlockTokens caches the pool's block granularity so fabric
	// transfer sizing can round payloads up to whole blocks; kvInUse /
	// kvBlockSec / kvLastT implement the time-weighted occupancy
	// integral across the pool's allocators. kvOwedAt is the earliest
	// block claim a decode run owes the integral (+Inf when none; see
	// flushClaims). It may run early, never late.
	kvBlockTokens int
	kvInUse       int
	kvBlockSec    float64
	kvLastT       float64
	kvOwedAt      float64
	kvHits        int
	kvLookups     int

	// Closed-loop client state (all empty with Config.Client timeouts
	// off). trackArena/freeTracks recycle clientTrack slots; a live
	// attempt names its slot in activeReq.track. eng/prioBase mirror the
	// cluster's engine and the pool's priority offset so pool-level
	// settle paths can cancel deadline events.
	eng        *sim.Engine
	prioBase   int
	clientOn   bool
	classesOn  bool
	trackArena []clientTrack
	freeTracks []int32
	clientRNG  *mathx.RNG
	classes    []classAcc

	// Autoscale bounds: the scheduler's scalable instance-id range and
	// the always-on floor.
	scaleOn  bool
	scaleLo  int
	scaleHi  int
	scaleMin int

	// rec is the cluster's observer, mirrored per pool; nil means
	// observability off. Every pool event reaches it through note or
	// noteInstance, which hold the nil check.
	rec *obs.Recorder

	m          Metrics
	goodTokens int
	// usefulTokens counts goodTokens whose request completed within its
	// class's client deadline (all of them when no deadline is set).
	usefulTokens int
	ttfts        mathx.Samples
	tbts         mathx.Samples
	e2es         mathx.Samples
	xferT        mathx.Samples
	xferB        mathx.Samples
	netSec       float64
	ttftOK       int
	tbtOK        int

	// Verdict budget (see runPool), set only for the planner's sizing
	// runs: settleOnDrop is the drop rule, and ttftMissLeft counts the
	// TTFT misses the SLO still allows (math.MaxInt when the TTFT rule
	// is off, so it never runs out). settledAt is the simulated time
	// the pool stopped the run, once settled is set.
	settleOnDrop bool
	ttftMissLeft int
	settled      bool
	settledAt    float64
}

// addInstance appends st, an engine of gpus GPUs, to the pool's
// instance table under the next instance id.
func (p *poolSim) addInstance(st *instanceState, gpus int) {
	st.gpus = gpus
	p.insts = append(p.insts, st)
}

// busy returns the pool's accumulated (prefill, decode) busy seconds,
// summed in instance-id order so metric assembly stays
// byte-deterministic.
func (p *poolSim) busy() (prefill, decode float64) {
	for _, st := range p.insts {
		prefill += st.pBusy
		decode += st.dBusy
	}
	return prefill, decode
}

// newXfer returns a fresh transfer-record index from the pool's arena.
// Indices, not pointers, cross the event boundary (they ride the
// ScheduleCall arg word), so arena growth never invalidates anything.
//
//litegpu:hotpath
func (p *poolSim) newXfer() int32 {
	if n := len(p.freeXferIx); n > 0 {
		idx := p.freeXferIx[n-1]
		p.freeXferIx = p.freeXferIx[:n-1]
		return idx
	}
	p.xfers = append(p.xfers, xferRec{})
	return int32(len(p.xfers) - 1)
}

// freeXfer recycles a transfer record, clearing it so the arena does
// not retain the activeReq.
//
//litegpu:hotpath
func (p *poolSim) freeXfer(idx int32) {
	p.xfers[idx] = xferRec{}
	p.freeXferIx = append(p.freeXferIx, idx)
}

// dropLive removes idx from the pool's live transfer list (order
// preserving; a miss is a no-op, which is how ingress records — never
// listed — share the delivery path).
//
//litegpu:hotpath
func (p *poolSim) dropLive(idx int32) {
	l := p.liveXfers
	w := 0
	for _, v := range l {
		if v != idx {
			l[w] = v
			w++
		}
	}
	p.liveXfers = l[:w]
}

// newActive returns a zeroed activeReq for r from the pool's free list,
// topping the list up with a fresh arena chunk when it runs dry.
//
//litegpu:hotpath
func (p *poolSim) newActive(r trace.Request) *activeReq {
	if len(p.freeReqs) == 0 {
		chunk := make([]activeReq, activeChunk) //litegpu:alloc-ok arena refill: one chunk per activeChunk requests, amortized-zero per the pins
		for i := range chunk {
			p.freeReqs = append(p.freeReqs, &chunk[i])
		}
	}
	a := p.freeReqs[len(p.freeReqs)-1]
	p.freeReqs = p.freeReqs[:len(p.freeReqs)-1]
	*a = activeReq{req: r, remaining: r.OutputTokens, kvSeq: -1}
	return a
}

// freeActive returns a no-longer-referenced activeReq to the free list.
// Callers guarantee no queue, batch, or engine still points at it.
//
//litegpu:hotpath
func (p *poolSim) freeActive(a *activeReq) {
	p.freeReqs = append(p.freeReqs, a)
}

// kvTokens is the token count a sequence's KV must cover right now:
// the prompt plus every token decoded so far.
//
//litegpu:hotpath
func kvTokens(a *activeReq) int {
	return a.req.PromptTokens + (a.req.OutputTokens - a.remaining)
}

// kvAccount advances the pool's time-weighted block-occupancy integral
// to now and applies a blocks-in-use delta. The block claims decode
// runs owe from before now are counted first, so every delta reaches
// the integral in the order single steps would have applied it. Owed
// claims at now itself wait: a single step claims in the dispatch pass,
// after every other event at its instant.
//
//litegpu:hotpath
func (p *poolSim) kvAccount(now float64, delta int) {
	if p.kvOwedAt < now {
		p.flushClaims(now)
	}
	p.kvAdd(now, delta)
}

// kvAdd is kvAccount without the flush.
//
//litegpu:hotpath
func (p *poolSim) kvAdd(now float64, delta int) {
	p.kvBlockSec += float64(p.kvInUse) * (now - p.kvLastT)
	p.kvLastT = now
	p.kvInUse += delta
	if p.kvInUse > p.m.KVPeakBlocks {
		p.m.KVPeakBlocks = p.kvInUse
	}
}

// kvAdmit claims KV blocks for a's current footprint from al, consulting
// the prefix cache when a declares a shared prefix. It reports whether
// the sequence fits; on failure nothing is claimed and the caller leaves
// a at the head of its queue. Hit/lookup statistics are recorded only
// for admissions that succeed, so a blocked head-of-line request retried
// every dispatch does not inflate the ratio.
//
//litegpu:hotpath
func (p *poolSim) kvAdmit(al *kv.Allocator, a *activeReq, now float64) bool {
	if a.kvSeq >= 0 {
		return true
	}
	key, ptoks := kvPrefix(a)
	before := al.InUse()
	id, hits, lookups, ok := al.Alloc(kvTokens(a), key, ptoks)
	if !ok {
		return false
	}
	p.kvHits += hits
	p.kvLookups += lookups
	a.kvSeq = id
	if d := al.InUse() - before; d != 0 {
		p.kvAccount(now, d)
	}
	p.note(obs.KVAlloc, now, -1, a.req.ID, float64(p.kvInUse))
	return true
}

// kvFits reports whether kvAdmit would admit a into al once claimed
// more blocks have been taken from al's free blocks. It changes no
// state.
//
//litegpu:hotpath
func kvFits(al *kv.Allocator, a *activeReq, claimed int) bool {
	if a.kvSeq >= 0 {
		return true
	}
	key, ptoks := kvPrefix(a)
	return al.Fits(kvTokens(a), key, ptoks, claimed)
}

// kvPrefix is the prefix-cache key and length a's admission declares:
// zero for a request without a shared prefix.
//
//litegpu:hotpath
func kvPrefix(a *activeReq) (key uint64, tokens int) {
	if a.req.PrefixTokens > 0 && a.req.PrefixID != 0 {
		return uint64(a.req.PrefixID), a.req.PrefixTokens
	}
	return 0, 0
}

// flushClaims counts every block claim the pool's decode runs owe from
// before now: the blocks their members' growth took at interior
// boundaries that single steps would have claimed in a dispatch pass.
// Claims go to the occupancy integral and the peak in time order, all
// the claims at one instant as one delta: the integral gains
// inUse·0 = +0 from each after the first either way, and the peak of a
// sum of positive steps is the peak after its last. Each run times its
// boundaries with the chained additions runStep makes.
//
//litegpu:hotpath
func (p *poolSim) flushClaims(now float64) {
	es := p.core.engines
	for {
		t := math.Inf(1)
		for j := range es {
			if e := &es[j]; e.claimNext > 0 && e.claimAt < t {
				t = e.claimAt
			}
		}
		if !(t < now) {
			p.kvOwedAt = t
			return
		}
		n := 0
		for j := range es {
			if e := &es[j]; e.claimNext > 0 && mathx.ExactEq(e.claimAt, t) {
				n += e.claimsAt(e.claimNext)
				e.seekClaim(e.claimNext+1, t+e.stepDec)
			}
		}
		p.kvAdd(t, n)
	}
}

// kvGrow extends a's sequence by one token, claiming a fresh block at
// block boundaries. It reports whether the token fits.
//
//litegpu:hotpath
func (p *poolSim) kvGrow(al *kv.Allocator, a *activeReq, now float64) bool {
	before := al.InUse()
	if !al.Grow(a.kvSeq) {
		return false
	}
	if d := al.InUse() - before; d != 0 {
		p.kvAccount(now, d)
		p.note(obs.KVGrow, now, -1, a.req.ID, float64(p.kvInUse))
	}
	return true
}

// kvRelease returns a's blocks to al (shared prefix blocks merely drop
// a reference). A handle-less request is a no-op, so callers free
// unconditionally on completion, preemption, and failure paths.
//
//litegpu:hotpath
func (p *poolSim) kvRelease(al *kv.Allocator, a *activeReq, now float64) {
	if a.kvSeq < 0 {
		return
	}
	before := al.InUse()
	al.Free(a.kvSeq)
	a.kvSeq = -1
	if d := al.InUse() - before; d != 0 {
		p.kvAccount(now, d)
	}
	p.note(obs.KVRelease, now, -1, a.req.ID, float64(p.kvInUse))
}

// note records request-scoped event kind for request id at instance
// inst of this pool (-1 for its frontend or queue), with the kind's
// value. It and noteInstance are the only places that ask whether an
// observer is attached: with none, an event costs one nil check.
//
//litegpu:hotpath
func (p *poolSim) note(kind obs.Kind, now float64, inst int32, id int, val float64) {
	if p.rec != nil {
		p.rec.Request(kind, now, int32(p.idx), inst, int64(id), val)
	}
}

// noteInstance records instance-scoped event kind at instance inst of
// this pool (-1 for the pool as a whole), with the kind's value.
//
//litegpu:hotpath
func (p *poolSim) noteInstance(kind obs.Kind, now float64, inst int32, val float64) {
	if p.rec != nil {
		p.rec.Cluster(kind, now, int32(p.idx), inst, val)
	}
}

// kvXferBytes sizes a KV payload of the given token count on the wire.
// With paged KV enabled whole blocks cross the fabric, so the count
// rounds up to the block granularity; with KV off it is the exact
// per-token footprint (the historical PR-5 sizing).
//
//litegpu:hotpath
func (p *poolSim) kvXferBytes(tokens int) float64 {
	if p.kvBlockTokens > 0 {
		blocks := (tokens + p.kvBlockTokens - 1) / p.kvBlockTokens
		tokens = blocks * p.kvBlockTokens
	}
	return p.kvPerToken * float64(tokens)
}

// recordTTFT appends one time-to-first-token sample and its SLO checks
// (pool-wide, and per class against the class's own SLO when class
// accounting is on).
//
//litegpu:hotpath
func (p *poolSim) recordTTFT(ttft float64, class int) {
	p.ttfts.Append(ttft)
	if units.Seconds(ttft) <= pickSLO(p.cfg.Opts.TTFTLimit, 1.0) {
		p.ttftOK++
	} else {
		p.ttftMissLeft--
		if p.ttftMissLeft < 0 {
			p.settle()
		}
	}
	if p.classesOn && units.Seconds(ttft) <= p.classSLO(class) {
		p.classAt(class).ttftOK++
	}
}

// drop counts a request dropped because it can never be served (see
// Metrics.Dropped). Under a verdict budget the first drop settles the
// run: the planner accepts no plan that drops.
//
//litegpu:hotpath
func (p *poolSim) drop() {
	p.m.Dropped++
	if p.settleOnDrop {
		p.settle()
	}
}

// dropOversized is the exit of attempt a that can never be served: a
// prompt, or a recompute victim's grown context, that no batch-of-one
// prefill pass fits, or a sole sequence whose KV cannot grow. Its drop
// event (Val = prompt tokens) is recorded on instance inst (-1 for the
// queue), then a returns its blocks to al and is recycled.
//
//litegpu:hotpath
func (p *poolSim) dropOversized(a *activeReq, al *kv.Allocator, inst int32, now float64) {
	p.note(obs.Drop, now, inst, a.req.ID, float64(a.req.PromptTokens))
	p.kvRelease(al, a, now)
	p.drop()
	p.clientSettle(a)
	p.freeActive(a)
}

// failReq settles attempt a, in flight on (or in a transfer touching)
// instance inst when it died. Under drop it leaves for good and is
// recycled; otherwise it is counted requeued and the caller puts it
// back where it came from.
//
//litegpu:hotpath
func (p *poolSim) failReq(a *activeReq, inst int32, drop bool, now float64) {
	kind := obs.Requeue
	if drop {
		kind = obs.Drop
	}
	p.note(kind, now, inst, a.req.ID, 0)
	if !drop {
		p.m.Requeued++
		return
	}
	p.m.DroppedOnFailure++
	p.clientSettle(a)
	p.freeActive(a)
}

// settle stops the run once its verdict budget says it can no longer
// pass, and records when that happened.
//
//litegpu:hotpath
func (p *poolSim) settle() {
	if !p.settled {
		p.settled = true
		p.settledAt = p.eng.Now()
	}
	p.eng.Stop()
}

// emitToken advances one active generation by a token at `now`,
// recording completion metrics when the request finishes. It reports
// whether the request is done (and should leave the batch).
//
//litegpu:hotpath
func (p *poolSim) emitToken(a *activeReq, now float64) bool {
	a.remaining--
	p.m.TokensGenerated++
	if !a.emitted {
		a.emitted = true
		a.firstAt = now
		p.note(obs.FirstToken, now, -1, a.req.ID, now-float64(a.req.Arrival))
	}
	if a.remaining > 0 {
		return false
	}
	p.m.Completed++
	p.goodTokens += a.req.OutputTokens
	if d := p.behavior(a.req.Class).Timeout; d <= 0 || units.Seconds(now-float64(a.req.Arrival)) <= d {
		p.usefulTokens += a.req.OutputTokens
	}
	if p.classesOn {
		acc := p.classAt(a.req.Class)
		acc.Completed++
		acc.goodTokens += a.req.OutputTokens
	}
	p.clientSettle(a)
	// Time-between-tokens is defined over the gaps between
	// consecutive tokens: n tokens have n-1 intervals spanning first
	// token → last token. A single-token output has no inter-token
	// gap, so its one step duration stands in for the interval.
	tbt := now - a.decodeAt
	if a.req.OutputTokens > 1 {
		tbt = (now - a.firstAt) / float64(a.req.OutputTokens-1)
	}
	p.tbts.Append(tbt)
	if units.Seconds(tbt) <= pickSLO(p.cfg.Opts.TBTLimit, 0.050) {
		p.tbtOK++
	}
	p.e2es.Append(now - float64(a.req.Arrival))
	p.note(obs.Complete, now, -1, a.req.ID, now-float64(a.req.Arrival))
	return true
}

// RequestSource yields a request stream in nondecreasing arrival order,
// one request at a time; a request that breaks the order, or arrives
// at NaN, ends the run with an error. trace.Stream implements it for
// synthetic workloads generated on demand; materialized
// []trace.Request slices are adapted internally. The simulator holds
// only the in-flight working set, so a million-request horizon needs
// O(in-flight) memory, not O(trace).
type RequestSource interface {
	Next() (trace.Request, bool)
}

// sliceSource adapts a sorted materialized trace to RequestSource.
type sliceSource struct {
	reqs []trace.Request
	i    int
}

func (s *sliceSource) Next() (trace.Request, bool) {
	if s.i >= len(s.reqs) {
		return trace.Request{}, false
	}
	r := s.reqs[s.i]
	s.i++
	return r, true
}

type clusterSim struct {
	eng   *sim.Engine
	cc    ClusterConfig
	pools []*poolSim
	h     float64

	rrNext          int
	dispatchPending bool

	// retrySeq hands out fresh negative IDs to resubmissions: unique
	// across the cluster, so they never collide with trace IDs or with
	// another pool's retries.
	retrySeq int

	// Arrival chain state: the one pending arrival pulled from src but
	// not yet fired. Handlers are bound once here so the hot path
	// schedules without allocating closures; per-event context rides in
	// the ScheduleCall arg word (pool index << 32 | instance id).
	src     RequestSource
	nextReq trace.Request
	// err is the first request the source yielded out of order; the
	// run stops on it and returns it.
	err error

	arriveH   sim.Handler
	dispatchH sim.Handler
	failH     sim.Handler
	repairH   sim.Handler
	recoverH  sim.Handler
	xferH     sim.Handler
	deadlineH sim.Handler
	retryH    sim.Handler
	scaleH    sim.Handler
	warmH     sim.Handler
	probeH    sim.Handler

	// rec is the attached observer (nil = observability off).
	rec *obs.Recorder

	failMTTR     float64
	failRecovery float64

	// net/fab are the resolved cluster fabric; fab is nil when the
	// network is off, and every fabric-charging site gates on that.
	net NetworkConfig
	fab *netsim.Fabric
}

// packArg encodes a (pool, instance) pair into a ScheduleCall arg word.
func packArg(pool, id int) uint64 { return uint64(pool)<<32 | uint64(uint32(id)) }

func unpackArg(arg uint64) (pool, id int) { return int(arg >> 32), int(uint32(arg)) }

func newClusterSim(cc ClusterConfig, horizon float64) (*clusterSim, error) {
	s := &clusterSim{
		eng: sim.New(cc.Failures.Seed),
		cc:  cc,
		h:   horizon,
	}
	s.arriveH = s.arrive
	s.dispatchH = s.dispatch
	s.failH = s.onFail
	s.repairH = s.onRepair
	s.recoverH = s.onRecover
	s.xferH = s.onXfer
	s.deadlineH = s.onDeadline
	s.retryH = s.onRetry
	s.scaleH = s.onScale
	s.warmH = s.onWarm
	s.probeH = s.onProbe
	s.rec = cc.Observer
	fp := cc.Failures.params()
	scale := cc.Failures.timeScale()
	s.failMTTR = float64(fp.MTTR)
	s.failRecovery = float64(fp.RecoveryTime)

	globalInstance := 0
	for pi, pool := range cc.Pools {
		cfg := pool.Config
		name := pool.Name
		if name == "" {
			name = cfg.GPU.Name
		}
		spares := pool.Spares
		if spares <= 0 {
			spares = cc.Failures.Spares
		}
		p := &poolSim{
			name:        name,
			idx:         pi,
			cfg:         cfg,
			spareFree:   spares,
			afrPerGPU:   fp.AFR(cfg.GPU),
			flopsPerGPU: float64(cfg.GPU.FLOPS),

			ttftMissLeft: math.MaxInt,
			kvOwedAt:     math.Inf(1),
		}
		if cfg.KV.Enabled() {
			p.kvBlockTokens = cfg.KV.BlockTokensOrDefault()
		}
		p.eng = s.eng
		p.prioBase = poolIndexBase(pi)
		p.rec = s.rec
		if s.rec != nil {
			s.rec.SetPoolName(pi, name)
		}
		if cfg.Client.enabled() {
			p.clientOn = true
			p.clientRNG = mathx.NewRNG(mathx.DeriveSeed(cfg.Client.Seed, uint64(pi)))
		}
		p.classesOn = len(cfg.Client.Classes) > 0 || cfg.Admission.Policy != AdmitAll
		var err error
		if cfg.Scheduler.Colocated() {
			p.sched, err = newColocSched(s, p)
		} else {
			p.sched, err = newStaticSched(s, p)
		}
		if err != nil {
			return nil, err
		}
		perGPURate := fp.AFR(cfg.GPU) / float64(failure.Year) * scale
		for id, st := range p.insts {
			st.up = true
			st.prio = p.prioBase + id
			if cfg.Straggler.Enabled() {
				// One persistent draw per global instance index.
				st.slow = cfg.Straggler.Jitter.Draw(
					mathx.NewRNG(mathx.DeriveSeed(cfg.Straggler.Seed, uint64(globalInstance))))
			}
			s.initFailure(st, perGPURate*float64(st.gpus), globalInstance)
			globalInstance++
		}
		if cfg.Autoscale.Enabled {
			lo, hi := cfg.scalable()
			p.scaleOn = true
			p.scaleLo, p.scaleHi = lo, hi
			p.scaleMin = cfg.Autoscale.minInstances()
			if p.scaleMin > hi-lo {
				p.scaleMin = hi - lo
			}
			// Instances above the floor start parked; the control loop
			// unparks them under load.
			for _, st := range p.insts[lo+p.scaleMin : hi] {
				st.parked = true
				st.parkedAt = 0
			}
		}
		s.pools = append(s.pools, p)
	}
	if err := s.buildFabric(); err != nil {
		return nil, err
	}
	return s, nil
}

// buildFabric constructs the cluster's netsim fabric when a network
// config is enabled: one endpoint per instance plus endpoint 0 for the
// router, instances packed into scale-up nodes in global order, and
// path latency taken from the configured topology built at the
// cluster's full GPU count (the physical fabric scale) times the
// stress multiplier.
func (s *clusterSim) buildFabric() error {
	s.net = s.cc.resolvedNetwork()
	if !s.net.Enabled() {
		return nil
	}
	ports := []float64{0} // router endpoint, sized below
	nodeGPUs := s.net.nodeGPUs()
	nodeID, nodeUsed := 0, 0
	totalGPUs := 0
	var routerBW float64
	for _, p := range s.pools {
		p.epBase = len(ports)
		p.nodeOf = make([]int32, len(p.insts))
		for id, st := range p.insts {
			g := st.gpus
			if nodeUsed > 0 && nodeUsed+g > nodeGPUs {
				nodeID, nodeUsed = nodeID+1, 0
			}
			p.nodeOf[id] = int32(nodeID)
			nodeUsed += g
			if nodeUsed >= nodeGPUs {
				nodeID, nodeUsed = nodeID+1, 0
			}
			bw := s.net.instancePortBW(p.cfg.GPU, g)
			ports = append(ports, bw)
			routerBW += bw
		}
		p.kvPerToken = float64(p.cfg.Model.KVBytesPerToken(p.cfg.Opts.EffectivePrecision()))
		totalGPUs += p.cfg.TotalGPUs()
	}
	// The router injects token ids, not KV caches; give it the
	// aggregate attachment so it is never the modeled bottleneck.
	ports[0] = routerBW
	topo := s.net.Topology(totalGPUs)
	params := netsim.Params{
		Ports:       ports,
		PathLatency: float64(topo.PathLatency()) * s.net.latencyScale(),
		Circuit:     s.net.circuit(),
	}
	if params.Circuit {
		// Reconfiguration is a switching-device property, deliberately
		// NOT scaled by LatencyScale — the stress knob models path and
		// software-stack latency, which is exactly what circuit
		// switching's low-latency story is judged against.
		params.ReconfigTime = float64(topo.Switch.ReconfigTime)
	}
	fab, err := netsim.New(s.eng, params)
	if err != nil {
		return err
	}
	s.fab = fab
	return nil
}

// onXfer fires one fabric delivery: record the transfer sample, then
// hand the attempt to its pool — a KV handoff joins the decode queue
// (this is the moment the request's first token can ship, so TTFT is
// stamped here), a routed arrival joins the pool's admission queue.
//
//litegpu:hotpath
func (s *clusterSim) onXfer(now float64, arg uint64) {
	pi, idx := unpackArg(arg)
	p := s.pools[pi]
	rec := &p.xfers[idx]
	a := rec.a
	dur := now - rec.start
	p.xferT.Append(dur)
	p.xferB.Append(rec.bytes)
	p.netSec += dur
	p.m.NetTransfers++
	p.note(obs.XferDeliver, now, rec.dst, a.req.ID, dur)
	switch {
	case rec.kind == xferSwap:
		// A preempted sequence's KV is back: no TTFT stamp (its first
		// token shipped before preemption), straight to the decode path.
		p.core.swapReturn(a)
	case a.cancelled:
		// The client gave up while the attempt's ingress was on the
		// wire: ingress is reclaimed here, at delivery. A KV handoff
		// never arrives cancelled: cancelClientXfer cancels in-flight
		// handoffs at the deadline, and finishPass checks the mark
		// before it starts one.
		p.freeActive(a)
	case rec.kind == xferKV:
		p.recordTTFT(now-float64(a.req.Arrival), a.req.Class)
		p.core.q.PushBack(a)
	default:
		p.note(obs.Enqueue, now, -1, a.req.ID, 0)
		p.sched.enqueue(a)
	}
	p.dropLive(int32(idx))
	p.freeXfer(int32(idx))
	s.requestDispatch(p, now)
}

// startIngress charges a routed arrival's trip from the router to its
// pool: prompt token ids over the fabric to the pool's next instance
// endpoint (round-robin — the target only shapes contention; delivery
// lands in the pool's shared queue).
//
//litegpu:hotpath
func (s *clusterSim) startIngress(p *poolSim, a *activeReq, now float64) {
	inst := p.ingressRR % len(p.insts)
	p.ingressRR++
	bytes := float64(a.req.PromptTokens) * ingressBytesPerToken
	s.startXfer(p, xferRec{
		kind: xferIngress, src: -1, dst: -1,
		a: a, start: now, bytes: bytes,
	}, 0, p.epBase+inst, inst)
	p.note(obs.XferStart, now, -1, a.req.ID, bytes)
}

// startXfer starts rec on the fabric from endpoint from to endpoint to,
// in the transfer band of p's instance at, under a fresh arena slot. KV
// handoffs and swaps are listed live, so an instance death or a client
// deadline can find them; ingress records reclaim at delivery and stay
// unlisted.
//
//litegpu:hotpath
func (s *clusterSim) startXfer(p *poolSim, rec xferRec, from, to, at int) {
	idx := p.newXfer()
	rec.tid = s.fab.Start(from, to, rec.bytes,
		prioTransfer+p.insts[at].prio, s.xferH, packArg(p.idx, int(idx)))
	p.xfers[idx] = rec
	if rec.kind != xferIngress {
		p.liveXfers = append(p.liveXfers, idx)
	}
}

// poolIndexBase spaces engine priorities so that pool 0's engines
// order before pool 1's within each band. Validation caps instances per
// pool at maxPoolInstances, so offsets never collide across pools or
// spill into the next band.
func poolIndexBase(pool int) int { return pool * maxPoolInstances }

func (s *clusterSim) initFailure(st *instanceState, rate float64, globalIdx int) {
	if !s.cc.Failures.Enabled || rate <= 0 {
		return
	}
	st.failRNG = mathx.NewRNG(mathx.DeriveSeed(s.cc.Failures.Seed, uint64(globalIdx)))
	st.rate = rate
}

// sortedByArrival reports whether the trace is already in nondecreasing
// arrival order — true for every stream trace.Generate produces, which
// lets run share the caller's slice instead of copying and re-sorting
// it per simulation.
func sortedByArrival(reqs []trace.Request) bool {
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival < reqs[i-1].Arrival {
			return false
		}
	}
	return true
}

// run executes the simulation over a materialized request stream and
// assembles the metrics. The trace is shared, not copied: an already
// sorted slice (the common case — generators emit arrivals in time
// order) is used as-is across all pools and, in the planner, across
// every candidate simulation.
func (s *clusterSim) run(reqs []trace.Request) (ClusterMetrics, error) {
	sorted := reqs
	if !sortedByArrival(reqs) {
		// Identical sort to the pre-sim loop (including tie order).
		sorted = append([]trace.Request(nil), reqs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Arrival < sorted[j].Arrival })
	}
	return s.runFrom(&sliceSource{reqs: sorted})
}

// runFrom executes the simulation pulling arrivals from src on demand
// and assembles the metrics. Only the in-flight working set is held in
// memory. A source that yields an arrival out of order (see
// scheduleArrival) ends the run with an error.
func (s *clusterSim) runFrom(src RequestSource) (ClusterMetrics, error) {
	s.start(src)
	if s.err == nil {
		s.eng.Run(s.h)
	}
	if s.err != nil {
		return ClusterMetrics{}, s.err
	}
	// A Run ends at its horizon unless a pool settled it, in which case
	// it stopped right after the settling event.
	at, prio := s.h, math.MaxInt
	for _, p := range s.pools {
		if p.settled {
			at, prio = s.eng.Now(), s.eng.NowPrio()
		}
	}
	for _, p := range s.pools {
		p.core.endRuns(at, prio)
	}
	return s.assemble(), nil
}

// start primes the calendar: the first arrival pulled from src, every
// instance's first failure, the autoscale ticks and the probe ticks.
func (s *clusterSim) start(src RequestSource) {
	s.src = src
	if r, ok := src.Next(); ok {
		s.scheduleArrival(r)
	}

	// Failure processes.
	if s.cc.Failures.Enabled {
		for _, p := range s.pools {
			for id := range p.insts {
				s.scheduleFailure(p, id, 0)
			}
		}
	}

	// Autoscale control loops: one periodic tick per scaling pool.
	for _, p := range s.pools {
		if p.scaleOn {
			s.eng.ScheduleCall(p.cfg.Autoscale.interval(),
				prioClient+p.prioBase+1, s.scaleH, packArg(p.idx, 0))
		}
	}

	// Observability probe ticks: one cluster-wide periodic sampler,
	// read-only, firing after the dispatch pass at its timestamp.
	if s.rec != nil {
		if iv := s.rec.ProbeInterval(); iv > 0 && iv <= s.h {
			s.eng.ScheduleCall(iv, prioProbe, s.probeH, 0)
		}
	}
}

// onProbe samples every pool's instantaneous state plus the cumulative
// counters into the observer, then re-arms itself. It is read-only:
// no RNG draws, no simulation state mutated.
func (s *clusterSim) onProbe(now float64, _ uint64) {
	inFlight := 0
	if s.fab != nil {
		inFlight = s.fab.InFlight()
	}
	fired := s.eng.EventsFired()
	for _, p := range s.pools {
		live, parked := 0, 0
		for _, st := range p.insts {
			switch {
			case st.parked:
				parked++
			case st.up:
				live++
			}
		}
		pBusy, dBusy := p.busy()
		s.rec.Probe(obs.ProbeSample{
			T: now, Pool: int32(p.idx),
			Queue: p.sched.outstanding(), Live: live, Parked: parked,
			KVBlocks: p.kvInUse, NetInFlight: inFlight,
			PrefillBusy: pBusy, DecodeBusy: dBusy,
			Arrived: p.m.Arrived, Completed: p.m.Completed,
			Shed: p.m.Shed, Retries: p.m.ClientRetries,
			Abandoned: p.m.Abandoned, Timeouts: p.m.ClientTimeouts,
			Tokens: p.m.TokensGenerated, Events: fired,
		})
	}
	if next := now + s.rec.ProbeInterval(); next <= s.h {
		s.eng.ScheduleCall(next, prioProbe, s.probeH, 0)
	}
}

// scheduleArrival books the next pulled request's arrival event. A
// source that breaks the RequestSource ordering contract is user input,
// not a simulator bug: the run records the error and stops.
//
//litegpu:hotpath
func (s *clusterSim) scheduleArrival(r trace.Request) {
	at := float64(r.Arrival)
	if at < s.eng.Now() || math.IsNaN(at) {
		s.err = fmt.Errorf( //litegpu:alloc-ok the run ends on this error
			"serve: RequestSource yielded request %d arriving at %v after the clock reached %v; sources must yield nondecreasing, non-NaN arrival times",
			r.ID, r.Arrival, s.eng.Now())
		s.eng.Stop()
		return
	}
	s.nextReq = r
	s.eng.ScheduleCall(at, prioArrival, s.arriveH, 0)
}

// arrive fires one arrival: route it, pull the next request from the
// source, and keep exactly one pending arrival event in the calendar so
// long traces never materialize there.
//
//litegpu:hotpath
func (s *clusterSim) arrive(now float64, _ uint64) {
	p := s.route()
	s.acceptArrival(p, s.nextReq, now)
	if r, ok := s.src.Next(); ok {
		s.scheduleArrival(r)
	}
	s.requestDispatch(p, now)
}

// route picks the pool for an arriving request. JoinShortestQueue
// takes the least outstanding work per live (up, unparked) instance,
// the lowest index on ties.
//
//litegpu:hotpath
func (s *clusterSim) route() *poolSim {
	if s.cc.Router != JoinShortestQueue {
		p := s.pools[s.rrNext%len(s.pools)]
		s.rrNext++
		return p
	}
	best := math.Inf(1)
	pick := s.pools[0]
	for _, cand := range s.pools {
		outstanding := cand.sched.outstanding()
		live := 0
		for _, st := range cand.insts {
			if st.up && !st.parked {
				live++
			}
		}
		if live == 0 {
			live = 1 // a fully-down pool still queues, at worst-case load
			outstanding += 1 << 20
		}
		load := float64(outstanding) / float64(live)
		if load < best {
			best = load
			pick = cand
		}
	}
	return pick
}

// acceptArrival runs a routed request through the pool's frontend:
// arrival accounting, the admission gate, and the client loop, then
// submits an admitted request as a fresh attempt.
//
//litegpu:hotpath
func (s *clusterSim) acceptArrival(p *poolSim, r trace.Request, now float64) {
	p.m.Arrived++
	if p.classesOn {
		p.classAt(r.Class).Arrived++
	}
	p.note(obs.Arrival, now, -1, r.ID, float64(r.PromptTokens))
	if p.shed(r, now) {
		// A shed closed-loop client behaves like a timed-out one: it
		// retries with backoff while it has budget, then gives up for
		// good. Open-loop classes (no timeout) just vanish, as before.
		if p.clientOn && p.behavior(r.Class).Timeout > 0 {
			idx := p.newTrack()
			p.trackArena[idx] = clientTrack{req: r}
			s.retryOrAbandon(p, int(idx), now)
		}
		return
	}
	a := p.newActive(r)
	if p.clientOn {
		s.openTrack(p, a, now)
	}
	s.submit(p, a, now)
}

// submit queues an admitted attempt. With a fabric and more than one
// pool, the router's handoff to the pool crosses the network: the
// prompt rides an ingress transfer and joins the pool's queue on
// delivery. A single pool is fed directly (its frontend is assumed
// adjacent).
//
//litegpu:hotpath
func (s *clusterSim) submit(p *poolSim, a *activeReq, now float64) {
	if s.fab != nil && len(s.pools) > 1 {
		s.startIngress(p, a, now)
		return
	}
	p.note(obs.Enqueue, now, -1, a.req.ID, 0)
	p.sched.enqueue(a)
}

// requestDispatch marks pool p for the dispatch pass at now, booking
// the pass if none is pending. The pass is the engine's one deferred
// call (sim.Engine.Defer): at most one is ever pending, which is
// exactly Defer's contract, and it fires in the same (time, priority,
// seq) order a heap entry would, without the heap push and pop. Nearly
// every other event requests a pass.
//
//litegpu:hotpath
func (s *clusterSim) requestDispatch(p *poolSim, now float64) {
	p.dispatchWanted = true
	if s.dispatchPending {
		return
	}
	s.dispatchPending = true
	s.eng.Defer(now, prioDispatch, s.dispatchH, 0)
}

// dispatch hands freed or newly queued work to idle engines — the same
// pass the pre-sim loop ran at the end of every event time — visiting
// pools in index order but running only the schedulers of pools that
// asked. Skipping the rest is unobservable: any state change that makes
// a pool's work dispatchable requests a dispatch for that pool at that
// same instant, so an unmarked pool has nothing actionable.
//
//litegpu:hotpath
func (s *clusterSim) dispatch(now float64, _ uint64) {
	// The engine freed the deferred slot before calling us, so a
	// scheduler that requests another pass below books a fresh one.
	s.dispatchPending = false
	for _, p := range s.pools {
		if p.dispatchWanted {
			p.dispatchWanted = false
			p.sched.dispatch(now)
		}
	}
}

// --- failure machinery -------------------------------------------------

func (s *clusterSim) scheduleFailure(p *poolSim, id int, now float64) {
	st := p.insts[id]
	if st.failRNG == nil {
		return
	}
	at := now + st.failRNG.Exponential(st.rate)
	if math.IsInf(at, 1) {
		return
	}
	s.eng.ScheduleCall(at, prioFailure+st.prio, s.failH, packArg(p.idx, id))
}

func (s *clusterSim) onFail(now float64, arg uint64) {
	pi, id := unpackArg(arg)
	s.failInstance(s.pools[pi], id, now)
}

func (s *clusterSim) onRepair(now float64, arg uint64) {
	pi, _ := unpackArg(arg)
	s.repairDone(s.pools[pi], now)
}

func (s *clusterSim) onRecover(now float64, arg uint64) {
	pi, id := unpackArg(arg)
	s.recoverInstance(s.pools[pi], id, now)
}

// failInstance downs an instance: one of its GPUs died and rigid
// deployment takes the whole instance with it (the paper's software
// blast radius). In-flight work requeues or drops per the policy, the
// failed unit enters repair, and a hot spare — if one is free — brings
// the instance back after the takeover delay.
//
//litegpu:hotpath
func (s *clusterSim) failInstance(p *poolSim, id int, now float64) {
	st := p.insts[id]
	if !st.up {
		return // stale event; down instances carry no failure clock
	}
	st.up = false
	st.downAt = now
	p.m.FailureEvents++
	p.noteInstance(obs.InstanceDown, now, int32(id), float64(st.gpus))
	if st.doneEv != 0 {
		s.eng.Cancel(st.doneEv)
		st.doneEv = 0
	}

	p.sched.fail(id, now, s.cc.Failures.Policy == DropOnFailure)

	// The dead unit goes to the repair shop and returns to the spare
	// shelf after MTTR.
	s.eng.ScheduleCall(now+s.failMTTR, prioFailure+st.prio, s.repairH, packArg(p.idx, id))
	// A free spare takes over after the recovery interruption; otherwise
	// the instance queues for the next repaired unit.
	if p.spareFree > 0 {
		p.spareFree--
		s.scheduleRecovery(p, id, now)
	} else {
		p.waiting = append(p.waiting, id)
	}
	// Requeued work must reach surviving idle engines now, not at the
	// next unrelated event.
	s.requestDispatch(p, now)
}

//litegpu:hotpath
func (s *clusterSim) repairDone(p *poolSim, now float64) {
	p.spareFree++
	if len(p.waiting) > 0 {
		id := p.waiting[0]
		p.waiting = p.waiting[1:]
		p.spareFree--
		s.scheduleRecovery(p, id, now)
	}
}

//litegpu:hotpath
func (s *clusterSim) scheduleRecovery(p *poolSim, id int, now float64) {
	st := p.insts[id]
	s.eng.ScheduleCall(now+s.failRecovery, prioFailure+st.prio, s.recoverH, packArg(p.idx, id))
}

//litegpu:hotpath
func (s *clusterSim) recoverInstance(p *poolSim, id int, now float64) {
	st := p.insts[id]
	st.up = true
	st.downSec += now - st.downAt
	p.noteInstance(obs.InstanceUp, now, int32(id), now-st.downAt)
	s.scheduleFailure(p, id, now)
	s.requestDispatch(p, now)
}

// --- metrics assembly --------------------------------------------------

// assemble reports each pool's metrics and the cluster total. Both come
// from finish, so the total is the merge of the pools; only the
// capacity-weighted fields (utilization, Availability, BlastRadius)
// have a pool formula and a cluster formula, both here. Accumulation
// runs in pool order; float summation order is part of the
// byte-identity contract.
func (s *clusterSim) assemble() ClusterMetrics {
	pools, h := s.pools, s.h
	// Every summary gathers its sample into this one array and selects
	// there; no union is longer than the pools' largest samples summed.
	n := 0
	for _, p := range pools {
		n += max(p.ttfts.Len(), p.tbts.Len(), p.e2es.Len(), p.xferT.Len(), p.xferB.Len())
	}
	scratch := make([]float64, 0, n)
	cm := ClusterMetrics{Total: finish(h, scratch, pools), Pools: make([]PoolMetrics, len(pools))}
	var (
		pBusyGPU, dBusyGPU float64
		pGPUs, dGPUs       int
		downFLOPSec        float64
		totalFLOPs         float64
		totalRate          float64
		blastLoss          float64
	)
	for i, p := range pools {
		pm := &cm.Pools[i]
		pm.Name = p.name
		if len(pools) == 1 {
			// One pool: the total IS the pool; copy it rather than
			// re-summarize the same samples.
			pm.Metrics = cm.Total
			pm.Metrics.Classes = slices.Clone(cm.Total.Classes)
		} else {
			pm.Metrics = finish(h, scratch, pools[i:i+1])
		}
		m := &pm.Metrics

		shape := p.cfg.phaseShape()
		poolPBusy, poolDBusy := p.busy()
		if h > 0 {
			m.PrefillUtilization = poolPBusy / (h * float64(shape.prefillInstances))
			m.DecodeUtilization = poolDBusy / (h * float64(shape.decodeInstances))
		}
		// Weight busy time by the GPUs behind it so the total stays
		// GPU-weighted across heterogeneous pools (within one pool the
		// two weightings coincide).
		pBusyGPU += poolPBusy * float64(shape.prefillGPUs)
		dBusyGPU += poolDBusy * float64(shape.decodeGPUs)
		pGPUs += shape.prefillInstances * shape.prefillGPUs
		dGPUs += shape.decodeInstances * shape.decodeGPUs

		// Availability: GPU-weighted uptime over the horizon, counting
		// instances still down at the end. BlastRadius: Σ P(instance i
		// fails next)·(capacity share lost); within a pool failure odds
		// and capacity are both proportional to GPU count.
		poolGPUs := p.cfg.TotalGPUs()
		var poolDown, poolBlast float64
		for _, st := range p.insts {
			down := st.downSec
			if !st.up {
				down += h - st.downAt
			}
			g := float64(st.gpus)
			poolDown += down * g
			poolBlast += g * g
		}
		m.Availability = 1
		if h > 0 && poolGPUs > 0 {
			m.Availability = 1 - poolDown/(h*float64(poolGPUs))
		}
		if poolGPUs > 0 {
			m.BlastRadius = poolBlast / float64(poolGPUs*poolGPUs)
		}
		// Cross-pool weights: a pool's failure odds scale with its per-GPU
		// AFR and its capacity with its per-GPU compute — one Lite GPU is
		// neither as failure-prone nor as capable as one H100.
		downFLOPSec += poolDown * p.flopsPerGPU
		totalFLOPs += float64(poolGPUs) * p.flopsPerGPU
		for _, st := range p.insts {
			g := float64(st.gpus)
			rateW := g * p.afrPerGPU
			totalRate += rateW
			blastLoss += rateW * g * p.flopsPerGPU // ÷ totalFLOPs below
		}
	}

	t := &cm.Total
	if h > 0 {
		t.PrefillUtilization = pBusyGPU / (h * float64(pGPUs))
		t.DecodeUtilization = dBusyGPU / (h * float64(dGPUs))
	}
	t.Availability = 1
	if h > 0 && totalFLOPs > 0 {
		t.Availability = 1 - downFLOPSec/(h*totalFLOPs)
	}
	// Expected capacity fraction lost per failure: which instance fails
	// is AFR-rate-weighted, what it removes is compute-weighted. For a
	// homogeneous cluster this reduces to Σg²/G², matching the per-pool
	// formula.
	if totalRate > 0 && totalFLOPs > 0 {
		t.BlastRadius = blastLoss / totalRate / totalFLOPs
	}
	return cm
}

// finish computes the metrics of pools taken as one pool, leaving the
// capacity-weighted fields to assemble. Counts and ratio numerators are
// summed in pool order and every ratio is recomputed from the sums;
// every summary covers the union of the pools' samples. KVMeanBlocks
// and MeanLiveInstances sum each pool's own time average, and the
// NetworkBoundFraction denominator sums each pool's E2E total.
func finish(h float64, scratch []float64, pools []*poolSim) Metrics {
	var (
		m                  Metrics
		ttftOK, tbtOK      int
		kvHits, kvLookups  int
		goodTok, usefulTok int
		netSec, e2eSec     float64
		classes            []classAcc
	)
	for _, p := range pools {
		m.addCounts(&p.m)
		ttftOK += p.ttftOK
		tbtOK += p.tbtOK
		kvHits += p.kvHits
		kvLookups += p.kvLookups
		goodTok += p.goodTokens
		usefulTok += p.usefulTokens
		netSec += p.netSec
		e2eSec += p.e2es.Sum()
		for ci := range p.classes {
			if ci == len(classes) {
				classes = append(classes, classAcc{})
			}
			classes[ci].add(&p.classes[ci])
		}
		if h > 0 {
			// Close the time-weighted integrals at the horizon without
			// mutating the accumulators.
			m.KVMeanBlocks += (p.kvBlockSec + float64(p.kvInUse)*(h-p.kvLastT)) / h
			if p.scaleOn {
				parked := 0.0
				for _, st := range p.insts[p.scaleLo:p.scaleHi] {
					parked += st.parkedSec
					if st.parked {
						parked += h - st.parkedAt
					}
				}
				m.MeanLiveInstances += float64(len(p.insts)) - parked/h
			}
		}
	}

	parts := make([]*mathx.Samples, len(pools))
	union := func(pick func(*poolSim) *mathx.Samples) mathx.Summary {
		for i, p := range pools {
			parts[i] = pick(p)
		}
		return mathx.SummarizeSamples(scratch, parts...)
	}
	m.TTFT = union(func(p *poolSim) *mathx.Samples { return &p.ttfts })
	m.TBT = union(func(p *poolSim) *mathx.Samples { return &p.tbts })
	m.E2E = union(func(p *poolSim) *mathx.Samples { return &p.e2es })
	m.TransferBytes = union(func(p *poolSim) *mathx.Samples { return &p.xferB })
	m.TransferTime = union(func(p *poolSim) *mathx.Samples { return &p.xferT })

	m.TTFTAttainmentCompleted = ratio(ttftOK, m.TTFT.N)
	m.TTFTAttainment = ratio(ttftOK, m.Arrived-m.Dropped)
	m.TBTAttainment = ratio(tbtOK, m.TBT.N)
	m.KVCacheHitRate = ratio(kvHits, kvLookups)
	if netSec > 0 && e2eSec > 0 {
		m.NetworkBoundFraction = netSec / e2eSec
	}
	if h > 0 {
		m.Goodput = float64(goodTok) / h
		m.UsefulGoodput = float64(usefulTok) / h
	}
	if len(classes) > 0 {
		m.Classes = make([]ClassMetrics, len(classes))
		for i := range classes {
			acc := &classes[i]
			c := &m.Classes[i]
			*c = acc.ClassMetrics
			c.Class = i
			c.TTFTAttainment = ratio(acc.ttftOK, acc.Arrived)
			if h > 0 {
				c.Goodput = float64(acc.goodTokens) / h
			}
		}
	}
	return m
}

// addCounts adds o's event counts to m.
func (m *Metrics) addCounts(o *Metrics) {
	m.Arrived += o.Arrived
	m.Completed += o.Completed
	m.Dropped += o.Dropped
	m.TokensGenerated += o.TokensGenerated
	m.FailureEvents += o.FailureEvents
	m.Requeued += o.Requeued
	m.DroppedOnFailure += o.DroppedOnFailure
	m.NetTransfers += o.NetTransfers
	m.KVPreemptions += o.KVPreemptions
	m.KVRecomputeTokens += o.KVRecomputeTokens
	m.KVPeakBlocks += o.KVPeakBlocks
	m.ClientTimeouts += o.ClientTimeouts
	m.ClientRetries += o.ClientRetries
	m.Abandoned += o.Abandoned
	m.Shed += o.Shed
	m.ScaleUps += o.ScaleUps
	m.ScaleDowns += o.ScaleDowns
}
