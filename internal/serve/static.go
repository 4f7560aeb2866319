package serve

import (
	"fmt"
	"math"

	"litegpu/internal/inference"
	"litegpu/internal/obs"
)

// staticSched is the StaticDisaggregated policy: the paper's
// Splitwise-style phase split, with dedicated prefill engines batching
// incoming prompts and dedicated decode engines running continuous
// batching over active generations. Both kinds are batch-core engines:
// the first np only prefill, in passes staged from prefillQ and
// reprefillQ, and the rest decode from the core's queue, which is the
// decode queue. It is the policy the Scheduler interface was extracted
// from, and reproduces the pre-extraction engine byte-for-byte (pinned
// by the golden corpus in testdata/static_goldens.txt).
//
// All per-iteration storage is reused: queues are ring buffers, each
// engine's batch and pending queue survive across steps, and completed
// request state recycles through the pool's free list — a warm
// scheduler runs without allocating.
type staticSched struct {
	batchCore

	prefillQ    deque[*activeReq]
	prefillCost stepCost
	decodeRR    int // KV-handoff destination rotation

	// reprefillQ holds preempted sequences whose KV must be rebuilt by a
	// prefill pass (Recompute policy); it stays empty with KV off.
	reprefillQ deque[*activeReq]
}

func newStaticSched(cs *clusterSim, pool *poolSim) (*staticSched, error) {
	cfg := pool.cfg
	opts := cfg.Opts
	if inference.MaxFeasibleBatch(cfg.GPU, cfg.Model, inference.Decode, cfg.DecodeGPUs, opts) <= 0 {
		return nil, fmt.Errorf("serve: %s does not fit on %d×%s for decode",
			cfg.Model.Name, cfg.DecodeGPUs, cfg.GPU.Name)
	}
	if inference.MaxFeasibleBatch(cfg.GPU, cfg.Model, inference.Prefill, cfg.PrefillGPUs, opts) < 1 {
		return nil, fmt.Errorf("serve: %s does not fit on %d×%s for prefill",
			cfg.Model.Name, cfg.PrefillGPUs, cfg.GPU.Name)
	}
	sc := &staticSched{prefillCost: newStepCost(cfg, cfg.PrefillGPUs)}
	if err := sc.init(cs, pool, cfg.PrefillInstances, cfg.PrefillGPUs, cfg.DecodeInstances, cfg.DecodeGPUs); err != nil {
		return nil, err
	}
	return sc, nil
}

//litegpu:hotpath
func (sc *staticSched) enqueue(a *activeReq) {
	sc.prefillQ.PushBack(a)
}

func (sc *staticSched) outstanding() int {
	return sc.batchCore.outstanding() + sc.prefillQ.Len() + sc.reprefillQ.Len()
}

// dispatch runs the prefill half of the pass before the decode half, so
// a recompute victim that a decode engine's growth preempts reaches
// reprefillQ after this pass's prefill half has run. Single steps would
// start its rebuild at the next pass, at the latest when the next decode
// step ends; so while the rebuild queue holds work after the pass, every
// decode run is cut at the end of its in-flight step.
//
//litegpu:hotpath
func (sc *staticSched) dispatch(now float64) {
	sc.stage(now)
	sc.batchCore.dispatch(now)
	if sc.runs && sc.reprefillQ.Len() > 0 {
		sc.cutRuns(math.MaxInt, nil)
	}
}

// stage starts a pass on every idle live prefill engine while work
// waits. Rebuild passes come first: a preempted sequence blocks a
// decode slot's worth of progress until its KV is rebuilt, so rebuilds
// outrank fresh prompts. Each runs as a batch of one (the KV must be
// recontiguous before decode resumes); fresh prompts batch up to
// MaxPrefillBatch. A pass takes the members it fits off the shared
// queue into the engine's pending queue and leaves the rest queued.
// The pool was validated to fit the model at the nominal prompt length,
// but an oversized prompt or a grown rebuild can still exceed capacity
// alone: it is dropped rather than left to starve at the queue's head.
//
//litegpu:hotpath
func (sc *staticSched) stage(now float64) {
	p := sc.pool
	for j := 0; j < sc.np; j++ {
		e := &sc.engines[j]
		for e.ready() {
			rebuild := sc.reprefillQ.Len() > 0
			q, n := &sc.prefillQ, p.cfg.MaxPrefillBatch
			if rebuild {
				q, n = &sc.reprefillQ, 1
			}
			if q.Len() == 0 {
				break
			}
			if a := q.At(0); a.cancelled {
				// Purge a cancelled head before staging a batch: its
				// client already gave up.
				q.PopFront()
				p.freeActive(a)
				continue
			}
			dt, n := fitPass(&sc.prefillCost, q, min(n, q.Len()))
			if n == 0 {
				p.dropOversized(q.PopFront(), nil, int32(j), now)
				continue
			}
			// Val: a rebuild's KV tokens, a fresh pass's batch size.
			val := float64(n)
			if rebuild {
				val = float64(kvTokens(q.At(0)))
			}
			for i := 0; i < n; i++ {
				a := q.PopFront()
				e.pending.PushBack(a)
				p.note(obs.PrefillStart, now, int32(j), a.req.ID, val)
			}
			e.rebuild = rebuild
			if e.slow > 0 {
				dt *= e.slow
			}
			sc.begin(j, now, dt, 0, n, 0)
		}
	}
}

// prefilled moves one member of prefill engine j's finished pass toward
// decode. Without a fabric, or when the chosen decode instance shares
// j's scale-up node, the handoff is instantaneous: a fresh prompt's
// TTFT stamps here and it joins the back of the decode queue, while a
// rebuilt sequence, which served its first token before preemption,
// rejoins at the head with no stamp. Across nodes the KV cache becomes a
// fabric transfer (for a rebuild an xferSwap, whose delivery lands in
// swapReturn), and the attempt becomes decodable, and a fresh prompt's
// TTFT stamps, only when the last byte lands.
//
//litegpu:hotpath
func (sc *staticSched) prefilled(j int, a *activeReq, now float64) {
	p := sc.pool
	if a.cancelled {
		// The client timed out mid-pass: the pass's compute is sunk, but
		// no KV ships and no TTFT stamps.
		p.freeActive(a)
		return
	}
	p.note(obs.PrefillEnd, now, int32(j), a.req.ID, 0)
	rebuild := sc.engines[j].rebuild
	kind := xferKV
	if rebuild {
		kind = xferSwap
	}
	switch {
	case sc.handoff(j, a, kind, now):
	case rebuild:
		sc.q.PushFront(a)
	default:
		p.recordTTFT(now-float64(a.req.Arrival), a.req.Class)
		sc.q.PushBack(a)
	}
}

// handoff starts a's KV cache across the fabric from prefill engine j to
// the next decode engine, as a transfer of the given kind. It reports
// false, starting nothing, when there is no fabric or the destination
// shares j's scale-up node: the cache is then decodable at once.
//
//litegpu:hotpath
func (sc *staticSched) handoff(j int, a *activeReq, kind int8, now float64) bool {
	p := sc.pool
	if sc.cs.fab == nil {
		return false
	}
	dst := sc.pickDecodeDst()
	if p.nodeOf[j] == p.nodeOf[dst] {
		return false
	}
	bytes := p.kvXferBytes(kvTokens(a))
	sc.cs.startXfer(p, xferRec{
		kind: kind, src: int32(j), dst: int32(dst),
		a: a, start: now, bytes: bytes,
	}, p.epBase+j, p.epBase+dst, dst)
	p.note(obs.XferStart, now, int32(j), a.req.ID, bytes)
	return true
}

// pickDecodeDst returns the instance id of the next KV handoff's
// destination, rotating across decode instances and preferring live
// ones (a handoff aimed at a down instance would immediately retarget);
// with every decode instance down the plain rotation applies — the
// transfer proceeds, and its delivery lands in the shared decode queue
// for whichever instance recovers.
//
//litegpu:hotpath
func (sc *staticSched) pickDecodeDst() int {
	dec := sc.engines[sc.np:]
	n := len(dec)
	// Prefer instances actually taking traffic; fall back to any live
	// one (a parked target still lands in the shared queue), then to the
	// plain rotation. With autoscale off the first loop is the
	// historical scan.
	for k := 0; k < n; k++ {
		j := (sc.decodeRR + k) % n
		e := &dec[j]
		if e.up && !e.parked && !e.draining {
			sc.decodeRR = j + 1
			return sc.np + j
		}
	}
	for k := 0; k < n; k++ {
		j := (sc.decodeRR + k) % n
		if dec[j].up {
			sc.decodeRR = j + 1
			return sc.np + j
		}
	}
	j := sc.decodeRR % n
	sc.decodeRR++
	return sc.np + j
}

// rebuild queues a recompute victim for a batch-of-one prefill pass.
//
//litegpu:hotpath
func (sc *staticSched) rebuild(a *activeReq) {
	sc.reprefillQ.PushBack(a)
}

// fail reclaims a dead instance's in-flight work: the unfinished
// step's busy tail is un-counted and the prompts (or generations) go
// back to the head of the queue they came from — a rebuild's KV is
// lost, so it rebuilds again — or are abandoned under DropOnFailure.
//
//litegpu:hotpath
func (sc *staticSched) fail(j int, now float64, drop bool) {
	sc.runTo(j, now)
	e := &sc.engines[j]
	q := &sc.q
	switch {
	case j < sc.np:
		q = &sc.prefillQ
		if e.rebuild {
			q = &sc.reprefillQ
		}
		if e.stepEnd > 0 {
			e.pBusy -= e.stepEnd - now
		}
	case e.stepEnd > 0:
		e.dBusy -= e.stepEnd - now
	}
	sc.batchCore.fail(j, now, drop, q)
}

// reclaimHandoff settles a KV handoff whose prefill source or decode
// destination died. A recompute handoff's rebuilt KV is lost, so the
// sequence rebuilds again. A prompt whose source died lost its KV and
// re-runs prefill from the queue head. A handoff whose destination died
// retargets to a live instance and retransmits from byte zero (the
// duration sample keeps its original start, so the retry is visible as
// transfer tail latency).
//
//litegpu:hotpath
func (sc *staticSched) reclaimHandoff(rec *xferRec, idx int32, id int, now float64) bool {
	p := sc.pool
	if rec.kind == xferSwap {
		sc.reprefillQ.PushFront(rec.a)
		return false
	}
	if int(rec.src) == id {
		sc.prefillQ.PushFront(rec.a)
		return false
	}
	dst := sc.pickDecodeDst()
	if p.nodeOf[rec.src] == p.nodeOf[dst] {
		// The retarget landed inside the source's scale-up node: the same
		// bypass prefilled applies — deliver immediately over the node
		// interconnect instead of retransmitting on the fabric.
		p.recordTTFT(now-float64(rec.a.req.Arrival), rec.a.req.Class)
		sc.q.PushBack(rec.a)
		return false
	}
	rec.dst = int32(dst)
	rec.tid = sc.cs.fab.Start(p.epBase+int(rec.src), p.epBase+dst, rec.bytes,
		prioTransfer+sc.engines[dst].prio, sc.cs.xferH, packArg(p.idx, int(idx)))
	return true
}
