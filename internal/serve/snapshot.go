package serve

import (
	"fmt"

	"litegpu/internal/kv"
	"litegpu/internal/netsim"
	"litegpu/internal/sim"
	"litegpu/internal/trace"
	"litegpu/internal/units"
)

// Snapshot/fork: freeze a running cluster simulation at its first
// failure event and replay the suffix under a different hot-spare
// count. The one invariant that makes this sound is that the spare
// shelf (poolSim.spareFree / waiting) is only ever consulted inside
// failInstance — runs that differ only in their spare count evolve
// byte-identically up to the instant the first failure fires. So the
// planner's availability leg forks the warmed-up prefix instead of
// replaying every candidate from t=0; when no failure ever fires
// within the horizon, the spare count is unobservable and the suffix
// replay is skipped entirely.
//
// Restore is strictly in-place: the same clusterSim, schedulers, and
// engine objects are rewound, which is what keeps the Handler method
// values inside the restored calendar — and every *activeReq woven
// through queues, batches, and in-flight transfers — pointing at live
// state. Pointer identity is preserved (activeReqs and failRNG streams
// are never reallocated across a restore); only their values rewind.

// savedReq pairs a live activeReq pointer with its value at snapshot
// time; restore writes the value back through the same pointer.
type savedReq struct {
	a   *activeReq
	val activeReq
}

// instSnap freezes one instanceState. The value copy carries the
// failRNG pointer through unchanged (it is the live stream's only
// pointer, never reallocated); the stream's position is saved
// separately and rewound with SetState.
type instSnap struct {
	st  instanceState
	rng uint64
}

func snapInstance(st *instanceState) instSnap {
	s := instSnap{st: *st}
	if st.failRNG != nil {
		s.rng = st.failRNG.State()
	}
	return s
}

func (s *instSnap) restore(st *instanceState) {
	rng := st.failRNG
	*st = s.st
	st.failRNG = rng
	if rng != nil {
		rng.SetState(s.rng)
	}
}

// batchSnap freezes a batchCore. The step-cost tables are deliberately
// excluded: their prices are pure functions of their inputs, so a table
// filled further than at capture prices every later step identically.
type batchSnap struct {
	engines []engineSnap
	q       []*activeReq
}

type engineSnap struct {
	inst         instSnap
	step         stepState
	active       []*activeReq
	pending      []*activeReq
	pBusy, dBusy float64
	al           *kv.Snap
}

func (c *batchCore) snapshot(reqs []savedReq) (any, []savedReq) {
	sn := &batchSnap{engines: make([]engineSnap, len(c.engines)), q: c.q.save(nil)}
	for j := range c.engines {
		e := &c.engines[j]
		s := &sn.engines[j]
		*s = engineSnap{
			inst:    snapInstance(&e.instanceState),
			step:    e.stepState,
			active:  append([]*activeReq(nil), e.active...),
			pending: e.pending.save(nil),
			pBusy:   e.pBusy,
			dBusy:   e.dBusy,
		}
		if e.al != nil {
			s.al = e.al.Snapshot()
		}
		reqs = saveReqs(reqs, s.active)
		reqs = saveReqs(reqs, s.pending)
	}
	return sn, saveReqs(reqs, sn.q)
}

func (c *batchCore) restore(snap any) {
	sn := snap.(*batchSnap)
	for j := range c.engines {
		e := &c.engines[j]
		s := &sn.engines[j]
		s.inst.restore(&e.instanceState)
		e.stepState = s.step
		clearTail(e.active, 0)
		e.active = append(e.active[:0], s.active...)
		e.pending.load(s.pending)
		e.pBusy, e.dBusy = s.pBusy, s.dBusy
		if e.al != nil {
			e.al.Restore(s.al)
		}
	}
	c.q.load(sn.q)
}

// staticSnap freezes a staticSched: its batch core (the decode engines)
// plus the prefill side.
type staticSnap struct {
	core       any
	prefills   []prefillEngSnap
	prefillQ   []trace.Request
	reprefillQ []*activeReq
	decodeRR   int
}

type prefillEngSnap struct {
	inst   instSnap
	freeAt float64
	busy   float64
	batch  []trace.Request
	re     *activeReq
}

func (sc *staticSched) snapshot(reqs []savedReq) (any, []savedReq) {
	sn := &staticSnap{
		prefills:   make([]prefillEngSnap, len(sc.prefills)),
		prefillQ:   sc.prefillQ.save(nil),
		reprefillQ: sc.reprefillQ.save(nil),
		decodeRR:   sc.decodeRR,
	}
	sn.core, reqs = sc.batchCore.snapshot(reqs)
	for i := range sc.prefills {
		e := &sc.prefills[i]
		sn.prefills[i] = prefillEngSnap{
			inst:   snapInstance(&e.instanceState),
			freeAt: e.freeAt,
			busy:   e.busy,
			batch:  append([]trace.Request(nil), e.batch...),
			re:     e.re,
		}
		if e.re != nil {
			reqs = append(reqs, savedReq{a: e.re, val: *e.re})
		}
	}
	return sn, saveReqs(reqs, sn.reprefillQ)
}

func (sc *staticSched) restore(snap any) {
	sn := snap.(*staticSnap)
	sc.batchCore.restore(sn.core)
	for i := range sc.prefills {
		e := &sc.prefills[i]
		s := &sn.prefills[i]
		s.inst.restore(&e.instanceState)
		e.freeAt, e.busy = s.freeAt, s.busy
		e.batch = append(e.batch[:0], s.batch...)
		e.re = s.re
	}
	sc.prefillQ.load(sn.prefillQ)
	sc.reprefillQ.load(sn.reprefillQ)
	sc.decodeRR = sn.decodeRR
}

// saveReqs appends (pointer, value) pairs for every activeReq in list.
// Live requests are owned by exactly one queue, batch, or transfer at
// any instant, so walking the owners never records a pointer twice.
func saveReqs(dst []savedReq, list []*activeReq) []savedReq {
	for _, a := range list {
		dst = append(dst, savedReq{a: a, val: *a})
	}
	return dst
}

// save appends the deque's contents, front first, to dst.
func (d *deque[T]) save(dst []T) []T {
	return d.CopyPrefix(dst, d.n)
}

// load resets the deque to exactly the given contents, zeroing vacated
// slots so the buffer retains no stale pointers.
func (d *deque[T]) load(src []T) {
	var zero T
	for i := range d.buf {
		d.buf[i] = zero
	}
	if len(d.buf) < len(src) {
		size := 16
		for size < len(src) {
			size *= 2
		}
		d.buf = make([]T, size)
	}
	copy(d.buf, src)
	d.head = 0
	d.n = len(src)
}

// poolSnap freezes one poolSim's mutable state.
type poolSnap struct {
	sched any

	spareFree  int
	waiting    []int
	freeReqs   []*activeReq
	ingressRR  int
	xfers      []xferRec
	freeXferIx []int32
	liveXfers  []int32

	m            Metrics
	goodTokens   int
	usefulTokens int
	ttfts        []float64
	tbts         []float64
	e2es         []float64
	xferT        []float64
	xferB        []float64
	netSec       float64
	ttftOK       int
	tbtOK        int

	kvInUse     int
	kvPeak      int
	kvBlockSec  float64
	kvLastT     float64
	kvHits      int
	kvLookups   int
	kvPreempt   int
	kvRecompute int

	trackArena []clientTrack
	freeTracks []int32
	retrySeq   int
	clientRNG  uint64
	classes    []classAcc

	reqs []savedReq
}

// clusterSnap freezes the whole simulation at the moment the first
// failure event fired: the engine calendar (post-pop — the failure
// event itself is re-run by hand on restore), the fabric, the arrival
// chain, and every pool. It is immutable after capture.
type clusterSnap struct {
	eng *sim.Snapshot
	fab *netsim.Snapshot

	rrNext          int
	dispatchPending bool
	nextReq         trace.Request
	srcIdx          int

	pools []poolSnap

	failPool int
	failID   int
	failNow  float64
}

// takeSnapshot captures the simulation into s.snap. It runs at the top
// of failInstance, before any spare-shelf state is consulted.
func (s *clusterSim) takeSnapshot(p *poolSim, id int, now float64) {
	ss, ok := s.src.(*sliceSource)
	if !ok {
		panic("serve: snapshot armed on a non-materialized request source; forkable runs drive run(), not runFrom()")
	}
	sn := &clusterSnap{
		eng:             s.eng.Snapshot(),
		rrNext:          s.rrNext,
		dispatchPending: s.dispatchPending,
		nextReq:         s.nextReq,
		srcIdx:          ss.i,
		pools:           make([]poolSnap, len(s.pools)),
		failPool:        p.idx,
		failID:          id,
		failNow:         now,
	}
	if s.fab != nil {
		sn.fab = s.fab.Snapshot()
	}
	for i, pl := range s.pools {
		ps := &sn.pools[i]
		var reqs []savedReq
		ps.sched, reqs = pl.sched.snapshot(nil)
		// In-flight KV handoffs own their payload requests; ingress
		// records carry values, not pointers.
		for _, idx := range pl.liveXfers {
			if a := pl.xfers[idx].a; a != nil {
				reqs = append(reqs, savedReq{a: a, val: *a})
			}
		}
		ps.reqs = reqs
		ps.spareFree = pl.spareFree
		ps.waiting = append([]int(nil), pl.waiting...)
		ps.freeReqs = append([]*activeReq(nil), pl.freeReqs...)
		ps.ingressRR = pl.ingressRR
		ps.xfers = append([]xferRec(nil), pl.xfers...)
		ps.freeXferIx = append([]int32(nil), pl.freeXferIx...)
		ps.liveXfers = append([]int32(nil), pl.liveXfers...)
		ps.m = pl.m
		ps.goodTokens = pl.goodTokens
		ps.usefulTokens = pl.usefulTokens
		ps.ttfts = append([]float64(nil), pl.ttfts...)
		ps.tbts = append([]float64(nil), pl.tbts...)
		ps.e2es = append([]float64(nil), pl.e2es...)
		ps.xferT = append([]float64(nil), pl.xferT...)
		ps.xferB = append([]float64(nil), pl.xferB...)
		ps.netSec = pl.netSec
		ps.ttftOK = pl.ttftOK
		ps.tbtOK = pl.tbtOK
		ps.kvInUse = pl.kvInUse
		ps.kvPeak = pl.kvPeak
		ps.kvBlockSec = pl.kvBlockSec
		ps.kvLastT = pl.kvLastT
		ps.kvHits = pl.kvHits
		ps.kvLookups = pl.kvLookups
		ps.kvPreempt = pl.kvPreempt
		ps.kvRecompute = pl.kvRecompute
		ps.trackArena = append([]clientTrack(nil), pl.trackArena...)
		ps.freeTracks = append([]int32(nil), pl.freeTracks...)
		ps.retrySeq = pl.retrySeq
		if pl.clientRNG != nil {
			ps.clientRNG = pl.clientRNG.State()
		}
		ps.classes = append([]classAcc(nil), pl.classes...)
	}
	s.snap = sn
}

// restoreSnapshot rewinds the simulation to s.snap, in place. The
// snapshot is untouched and can be restored again.
func (s *clusterSim) restoreSnapshot() {
	sn := s.snap
	s.eng.Restore(sn.eng)
	if s.fab != nil {
		s.fab.Restore(sn.fab)
	}
	s.rrNext = sn.rrNext
	s.dispatchPending = sn.dispatchPending
	s.nextReq = sn.nextReq
	s.src.(*sliceSource).i = sn.srcIdx
	for i, pl := range s.pools {
		ps := &sn.pools[i]
		pl.sched.restore(ps.sched)
		for _, sr := range ps.reqs {
			*sr.a = sr.val
		}
		pl.spareFree = ps.spareFree
		pl.waiting = append(pl.waiting[:0], ps.waiting...)
		pl.freeReqs = append(pl.freeReqs[:0], ps.freeReqs...)
		pl.ingressRR = ps.ingressRR
		pl.xfers = append(pl.xfers[:0], ps.xfers...)
		pl.freeXferIx = append(pl.freeXferIx[:0], ps.freeXferIx...)
		pl.liveXfers = append(pl.liveXfers[:0], ps.liveXfers...)
		pl.m = ps.m
		pl.goodTokens = ps.goodTokens
		pl.usefulTokens = ps.usefulTokens
		pl.ttfts = append(pl.ttfts[:0], ps.ttfts...)
		pl.tbts = append(pl.tbts[:0], ps.tbts...)
		pl.e2es = append(pl.e2es[:0], ps.e2es...)
		pl.xferT = append(pl.xferT[:0], ps.xferT...)
		pl.xferB = append(pl.xferB[:0], ps.xferB...)
		pl.netSec = ps.netSec
		pl.ttftOK = ps.ttftOK
		pl.tbtOK = ps.tbtOK
		pl.kvInUse = ps.kvInUse
		pl.kvPeak = ps.kvPeak
		pl.kvBlockSec = ps.kvBlockSec
		pl.kvLastT = ps.kvLastT
		pl.kvHits = ps.kvHits
		pl.kvLookups = ps.kvLookups
		pl.kvPreempt = ps.kvPreempt
		pl.kvRecompute = ps.kvRecompute
		pl.trackArena = append(pl.trackArena[:0], ps.trackArena...)
		pl.freeTracks = append(pl.freeTracks[:0], ps.freeTracks...)
		pl.retrySeq = ps.retrySeq
		if pl.clientRNG != nil {
			pl.clientRNG.SetState(ps.clientRNG)
		}
		pl.classes = append(pl.classes[:0], ps.classes...)
		if pl.clientOn {
			// The id→slot maps are rebuilt from the restored arena
			// rather than saved: a live attempt is an open slot with an
			// armed deadline, a cancellation tombstone is an open slot
			// flagged cancelled with its deadline already consumed.
			pl.tracks = make(map[int]int32, len(pl.trackArena))
			pl.cancelled = make(map[int]int32)
			for ti := range pl.trackArena {
				tr := &pl.trackArena[ti]
				if !tr.open {
					continue
				}
				if tr.cancelled && tr.deadline == 0 {
					pl.cancelled[tr.id] = int32(ti)
				} else if tr.deadline != 0 {
					pl.tracks[tr.id] = int32(ti)
				}
			}
		}
	}
}

// failureFork is a finished, forkable single-pool failure run: the
// capture run's metrics plus — when a failure fired — the snapshot to
// replay the post-failure suffix from under a different spare count.
type failureFork struct {
	sim *clusterSim
	m   Metrics
}

// runForkable is RunWithFailures with the fork hook armed: it returns
// the zero-spare run's metrics plus a fork that can replay the run's
// post-first-failure suffix at any spare count.
func runForkable(cfg Config, f FailureConfig, reqs []trace.Request, horizon units.Seconds) (Metrics, *failureFork, error) {
	cc := ClusterConfig{
		Pools:    []Pool{{Name: cfg.GPU.Name, Config: cfg}},
		Failures: f,
	}
	if err := cc.Validate(); err != nil {
		return Metrics{}, nil, err
	}
	s, err := newClusterSim(cc, float64(horizon))
	if err != nil {
		return Metrics{}, nil, err
	}
	s.snapOnFail = true
	cm := s.run(reqs)
	m := cm.Pools[0].Metrics
	return m, &failureFork{sim: s, m: m}, nil
}

// runWithSpares replays the fork's post-first-failure suffix with the
// given hot-spare count, byte-identical to a full run at that count.
// When no failure fired within the horizon the spare shelf was never
// consulted, so the capture metrics are returned without simulating
// anything.
func (fk *failureFork) runWithSpares(spares int) Metrics {
	s := fk.sim
	if s.snap == nil {
		return fk.m
	}
	if spares < 0 {
		panic(fmt.Sprintf("serve: fork with negative spare count %d", spares))
	}
	s.restoreSnapshot()
	// A full run with this spare count reaches the first failure with
	// every spare still on the shelf — the shelf is first consulted by
	// the very handler re-run below.
	for _, p := range s.pools {
		p.spares = spares
		p.spareFree = spares
	}
	sn := s.snap
	s.failInstance(s.pools[sn.failPool], sn.failID, sn.failNow)
	s.eng.Run(s.h)
	return s.assemble().Pools[0].Metrics
}
