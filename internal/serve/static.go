package serve

import (
	"fmt"

	"litegpu/internal/inference"
	"litegpu/internal/obs"
	"litegpu/internal/sim"
	"litegpu/internal/trace"
)

// staticSched is the StaticDisaggregated policy: the paper's
// Splitwise-style phase split, with dedicated prefill engines batching
// incoming prompts and dedicated decode engines — the batch-engine core,
// whose queue is the decode queue — running continuous batching over
// active generations. It is the policy the Scheduler interface was
// extracted from, and reproduces the pre-extraction engine byte-for-byte
// (pinned by the golden corpus in testdata/static_goldens.txt).
//
// All per-iteration storage is reused: queues are ring buffers, each
// engine's batch buffer survives across passes, and completed request
// state recycles through the pool's free list — a warm scheduler runs
// without allocating.
type staticSched struct {
	batchCore // the decode engines

	prefills    []prefillEngine
	prefillQ    deque[trace.Request]
	prefillCost stepCost
	decodeRR    int // KV-handoff destination rotation

	// reprefillQ holds preempted sequences whose KV must be rebuilt by a
	// prefill pass (Recompute policy); it stays empty with KV off.
	reprefillQ deque[*activeReq]

	prefillDoneH sim.Handler
}

type prefillEngine struct {
	instanceState
	freeAt float64
	busy   float64
	batch  []trace.Request // reused across passes; empty when idle
	re     *activeReq      // in-flight recompute pass (KV rebuild), nil otherwise
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
	sc := &staticSched{
		prefills:    make([]prefillEngine, cfg.PrefillInstances),
		prefillCost: newStepCost(cfg, cfg.PrefillGPUs),
	}
	sc.prefillDoneH = sc.onPrefillDone
	if err := sc.init(cs, pool, sc, cfg.DecodeInstances, cfg.DecodeGPUs, cfg.PrefillInstances); err != nil {
		return nil, err
	}
	return sc, nil
}

func (sc *staticSched) numInstances() int { return len(sc.prefills) + len(sc.engines) }

func (sc *staticSched) state(id int) *instanceState {
	if id < len(sc.prefills) {
		return &sc.prefills[id].instanceState
	}
	return &sc.engines[id-len(sc.prefills)].instanceState
}

func (sc *staticSched) gpus(id int) int {
	if id < len(sc.prefills) {
		return sc.pool.cfg.PrefillGPUs
	}
	return sc.pool.cfg.DecodeGPUs
}

func (sc *staticSched) shape() phaseShape {
	cfg := &sc.pool.cfg
	return phaseShape{
		prefillInstances: cfg.PrefillInstances, prefillGPUs: cfg.PrefillGPUs,
		decodeInstances: cfg.DecodeInstances, decodeGPUs: cfg.DecodeGPUs,
	}
}

func (sc *staticSched) totalGPUs() int {
	cfg := &sc.pool.cfg
	return cfg.PrefillInstances*cfg.PrefillGPUs + cfg.DecodeInstances*cfg.DecodeGPUs
}

//litegpu:hotpath
func (sc *staticSched) enqueue(r trace.Request) {
	sc.prefillQ.PushBack(r)
}

func (sc *staticSched) outstanding() int {
	outstanding := sc.batchCore.outstanding() + sc.prefillQ.Len() + sc.reprefillQ.Len()
	for i := range sc.prefills {
		outstanding += len(sc.prefills[i].batch)
		if sc.prefills[i].re != nil {
			outstanding++
		}
	}
	return outstanding
}

// scalable exposes the decode pool to the autoscaler; prefill capacity
// is fixed — the static split sizes it for ingest, and parking it would
// starve TTFT rather than save meaningful decode capacity.
func (sc *staticSched) scalable() (lo, hi int) {
	return len(sc.prefills), len(sc.prefills) + len(sc.engines)
}

func (sc *staticSched) idle(id int) bool {
	if id < len(sc.prefills) {
		e := &sc.prefills[id]
		return len(e.batch) == 0 && e.re == nil
	}
	return sc.batchCore.idle(id - len(sc.prefills))
}

func (sc *staticSched) busy() (prefill, decode float64) {
	prefill, decode = sc.batchCore.busy()
	for i := range sc.prefills {
		prefill += sc.prefills[i].busy
	}
	return prefill, decode
}

//litegpu:hotpath
func (sc *staticSched) dispatch(now float64) {
	sc.dispatchPrefill(now)
	sc.batchCore.dispatch(now)
}

//litegpu:hotpath
func (sc *staticSched) dispatchPrefill(now float64) {
	p := sc.pool
	for i := range sc.prefills {
		e := &sc.prefills[i]
		if !e.up {
			continue
		}
		// Recompute passes first: a preempted sequence blocks a decode
		// slot's worth of progress until its KV is rebuilt, so rebuilds
		// outrank fresh prompts. Each runs as a batch of one (the KV must
		// be recontiguous before decode resumes).
		for e.freeAt <= now && sc.reprefillQ.Len() > 0 {
			a := sc.reprefillQ.PopFront()
			if p.clientOn && p.isCancelled(a.req.ID) {
				// The client timed out while the sequence waited for its
				// KV rebuild: reclaim it instead of re-running prefill.
				p.settleCancelled(a.req.ID, a)
				continue
			}
			dt, ok := sc.prefillCost.prefill(1, kvTokens(a))
			if !ok {
				// The grown sequence no longer fits even a batch-of-one
				// pass: it can never resume.
				p.drop()
				p.clientSettle(a.req.ID)
				p.freeActive(a)
				continue
			}
			if e.slow > 0 {
				dt *= e.slow
			}
			e.re = a
			e.freeAt = now + dt
			e.busy += dt
			if p.rec != nil {
				p.rec.Request(obs.PrefillStart, now, int32(p.idx), int32(i), int64(a.req.ID), float64(kvTokens(a)))
			}
			e.doneEv = sc.cs.eng.ScheduleCall(e.freeAt, prioPrefill+e.prio, sc.prefillDoneH, uint64(i))
		}
		for e.freeAt <= now && sc.prefillQ.Len() > 0 {
			if p.clientOn {
				// Purge cancelled prompts before staging a batch: their
				// clients already gave up.
				for sc.prefillQ.Len() > 0 {
					r := sc.prefillQ.At(0)
					if !p.isCancelled(r.ID) {
						break
					}
					sc.prefillQ.PopFront()
					p.settleCancelled(r.ID, nil)
				}
				if sc.prefillQ.Len() == 0 {
					break
				}
			}
			// Stage the candidate batch in the engine's reusable buffer,
			// then shrink it until its KV footprint fits. The pool was
			// validated to fit the model at the nominal prompt length,
			// but an individual oversized prompt can still exceed
			// capacity alone (n reaches 0): drop it rather than let it
			// starve at the head of the queue forever.
			n := min(p.cfg.MaxPrefillBatch, sc.prefillQ.Len())
			e.batch = sc.prefillQ.CopyPrefix(e.batch[:0], n)
			tokens := 0
			for _, r := range e.batch {
				tokens += r.PromptTokens
			}
			dt, ok := 0.0, false
			for ; n >= 1; n-- {
				if dt, ok = sc.prefillCost.prefill(n, tokens); ok {
					break
				}
				tokens -= e.batch[n-1].PromptTokens
			}
			if !ok {
				r := sc.prefillQ.PopFront()
				p.drop()
				p.clientSettle(r.ID)
				if p.rec != nil {
					p.rec.Request(obs.Drop, now, int32(p.idx), int32(i), int64(r.ID), float64(r.PromptTokens))
				}
				e.batch = e.batch[:0]
				continue
			}
			sc.prefillQ.DiscardFront(n)
			e.batch = e.batch[:n]
			if e.slow > 0 {
				dt *= e.slow
			}
			e.freeAt = now + dt
			e.busy += dt
			if p.rec != nil {
				for _, r := range e.batch {
					p.rec.Request(obs.PrefillStart, now, int32(p.idx), int32(i), int64(r.ID), float64(n))
				}
			}
			e.doneEv = sc.cs.eng.ScheduleCall(e.freeAt, prioPrefill+e.prio, sc.prefillDoneH, uint64(i))
		}
	}
}

//litegpu:hotpath
func (sc *staticSched) onPrefillDone(now float64, arg uint64) {
	sc.completePrefill(int(arg), now)
}

//litegpu:hotpath
func (sc *staticSched) completePrefill(i int, now float64) {
	e := &sc.prefills[i]
	e.doneEv = 0
	if a := e.re; a != nil {
		e.re = nil
		sc.finishReprefill(i, a, now)
	}
	for _, r := range e.batch {
		sc.finishPrefillReq(i, r, now)
	}
	e.batch = e.batch[:0]
	sc.cs.requestDispatch(sc.pool, now)
}

// finishPrefillReq moves one prefilled request toward decode. Without
// a fabric (or when the chosen decode instance shares the prefill
// engine's scale-up node) the handoff is instantaneous, exactly the
// pre-netsim semantics: TTFT stamps here and the request joins the
// decode queue. Across nodes, the KV cache — the model's full
// KV-bytes-per-token times the prompt length — becomes a fabric
// transfer, and the request only becomes decodable (and TTFT only
// stamps) when the last byte lands.
//
//litegpu:hotpath
func (sc *staticSched) finishPrefillReq(i int, r trace.Request, now float64) {
	p := sc.pool
	if p.clientOn && p.isCancelled(r.ID) {
		// The client timed out while the prompt was mid-prefill: the
		// pass's compute is sunk, but no KV ships and no TTFT stamps.
		p.settleCancelled(r.ID, nil)
		return
	}
	if p.rec != nil {
		p.rec.Request(obs.PrefillEnd, now, int32(p.idx), int32(i), int64(r.ID), 0)
	}
	a := p.newActive(r)
	if !sc.handoff(i, a, xferKV, now) {
		p.recordTTFT(now-float64(r.Arrival), r.Class)
		sc.q.PushBack(a)
	}
}

// finishReprefill hands a recomputed KV cache back to decode: the same
// node-bypass logic as finishPrefillReq, but the sequence already served
// its first token, so no TTFT stamps, it rejoins at the head of the
// decode queue, and the cross-node leg rides an xferSwap whose delivery
// lands in swapReturn.
//
//litegpu:hotpath
func (sc *staticSched) finishReprefill(i int, a *activeReq, now float64) {
	p := sc.pool
	if p.clientOn && p.isCancelled(a.req.ID) {
		p.settleCancelled(a.req.ID, a)
		return
	}
	if p.rec != nil {
		p.rec.Request(obs.PrefillEnd, now, int32(p.idx), int32(i), int64(a.req.ID), 0)
	}
	if !sc.handoff(i, a, xferSwap, now) {
		sc.q.PushFront(a)
	}
}

// handoff starts a's KV cache across the fabric from prefill engine i to
// the next decode engine, as a transfer of the given kind. It reports
// false, starting nothing, when there is no fabric or the destination
// shares i's scale-up node: the cache is then decodable at once.
//
//litegpu:hotpath
func (sc *staticSched) handoff(i int, a *activeReq, kind int8, now float64) bool {
	p := sc.pool
	if sc.cs.fab == nil {
		return false
	}
	dst := sc.pickDecodeDst()
	dstID := len(sc.prefills) + dst
	if p.nodeOf[i] == p.nodeOf[dstID] {
		return false
	}
	idx := p.newXfer()
	rec := &p.xfers[idx]
	*rec = xferRec{
		kind: kind, src: int32(i), dst: int32(dstID),
		a: a, start: now,
		bytes: p.kvXferBytes(kvTokens(a)),
	}
	rec.tid = sc.cs.fab.Start(p.epBase+i, p.epBase+dstID, rec.bytes,
		prioTransfer+sc.engines[dst].prio, sc.cs.xferH, packArg(p.idx, int(idx)))
	p.liveXfers = append(p.liveXfers, idx)
	if p.rec != nil {
		p.rec.Request(obs.XferStart, now, int32(p.idx), int32(i), int64(a.req.ID), rec.bytes)
	}
	return true
}

// pickDecodeDst rotates KV handoffs across decode instances,
// preferring live ones (a handoff aimed at a down instance would
// immediately retarget); with every decode instance down the plain
// rotation applies — the transfer proceeds, and its delivery lands in
// the shared decode queue for whichever instance recovers.
//
//litegpu:hotpath
func (sc *staticSched) pickDecodeDst() int {
	n := len(sc.engines)
	// Prefer instances actually taking traffic; fall back to any live
	// one (a parked target still lands in the shared queue), then to the
	// plain rotation. With autoscale off the first loop is the
	// historical scan.
	for k := 0; k < n; k++ {
		j := (sc.decodeRR + k) % n
		e := &sc.engines[j]
		if e.up && !e.parked && !e.draining {
			sc.decodeRR = j + 1
			return j
		}
	}
	for k := 0; k < n; k++ {
		j := (sc.decodeRR + k) % n
		if sc.engines[j].up {
			sc.decodeRR = j + 1
			return j
		}
	}
	j := sc.decodeRR % n
	sc.decodeRR++
	return j
}

// deliverKV lands a fabric-delivered KV cache: the request joins the
// decode queue (TTFT was stamped by the delivery handler).
//
//litegpu:hotpath
func (sc *staticSched) deliverKV(a *activeReq, now float64) {
	sc.q.PushBack(a)
}

// rebuild queues a recompute victim for a batch-of-one prefill pass.
//
//litegpu:hotpath
func (sc *staticSched) rebuild(a *activeReq) {
	sc.reprefillQ.PushBack(a)
}

// fail reclaims a dead instance's in-flight work: the unfinished pass's
// busy tail is un-counted and the prompts (or generations) go back to
// the head of their queue — or are abandoned under DropOnFailure.
//
//litegpu:hotpath
func (sc *staticSched) fail(id int, now float64, drop bool) {
	p := sc.pool
	if id >= len(sc.prefills) {
		j := id - len(sc.prefills)
		sc.runTo(j, now)
		if e := &sc.engines[j]; e.stepEnd > 0 {
			e.dBusy -= e.stepEnd - now
		}
		sc.batchCore.fail(j, now, drop)
		return
	}
	e := &sc.prefills[id]
	if a := e.re; a != nil {
		// An in-flight recompute pass died with the engine: the rebuilt
		// KV is lost, so the sequence re-enters the rebuild queue (or is
		// abandoned).
		e.re = nil
		e.busy -= e.freeAt - now
		if p.rec != nil {
			p.rec.Request(failEvent(drop), now, int32(p.idx), int32(id), int64(a.req.ID), 0)
		}
		if drop {
			p.m.DroppedOnFailure++
			p.clientSettle(a.req.ID)
			p.freeActive(a)
		} else {
			p.m.Requeued++
			sc.reprefillQ.PushFront(a)
		}
	}
	if len(e.batch) > 0 {
		// The pass died before completing: un-count its unfinished busy
		// tail and put the prompts back at the head of the queue (or
		// abandon them).
		e.busy -= e.freeAt - now
		if p.rec != nil {
			for _, r := range e.batch {
				p.rec.Request(failEvent(drop), now, int32(p.idx), int32(id), int64(r.ID), 0)
			}
		}
		if drop {
			p.m.DroppedOnFailure += len(e.batch)
			for _, r := range e.batch {
				p.clientSettle(r.ID)
			}
		} else {
			p.m.Requeued += len(e.batch)
			for i := len(e.batch) - 1; i >= 0; i-- {
				sc.prefillQ.PushFront(e.batch[i])
			}
		}
		e.batch = e.batch[:0]
	}
	e.freeAt = now
	sc.failXfers(id, now, drop)
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
		sc.prefillQ.PushFront(rec.a.req)
		p.freeActive(rec.a)
		return false
	}
	dst := sc.pickDecodeDst()
	dstID := len(sc.prefills) + dst
	if p.nodeOf[rec.src] == p.nodeOf[dstID] {
		// The retarget landed inside the source's scale-up node: the same
		// bypass finishPrefillReq applies — deliver immediately over the
		// node interconnect instead of retransmitting on the fabric.
		p.recordTTFT(now-float64(rec.a.req.Arrival), rec.a.req.Class)
		sc.q.PushBack(rec.a)
		return false
	}
	rec.dst = int32(dstID)
	rec.tid = sc.cs.fab.Start(p.epBase+int(rec.src), p.epBase+dstID, rec.bytes,
		prioTransfer+sc.engines[dst].prio, sc.cs.xferH, packArg(p.idx, int(idx)))
	return true
}

//litegpu:hotpath
func (sc *staticSched) recovered(id int, now float64) {
	if id < len(sc.prefills) {
		sc.prefills[id].freeAt = now
	}
}
