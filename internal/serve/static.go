package serve

import (
	"fmt"
	"math"

	"litegpu/internal/inference"
	"litegpu/internal/obs"
	"litegpu/internal/sim"
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
	prefillQ    deque[*activeReq]
	prefillCost stepCost
	decodeRR    int // KV-handoff destination rotation

	// reprefillQ holds preempted sequences whose KV must be rebuilt by a
	// prefill pass (Recompute policy); it stays empty with KV off.
	reprefillQ deque[*activeReq]

	prefillDoneH sim.Handler
}

type prefillEngine struct {
	instanceState
	freeAt  float64
	batch   []*activeReq // the in-flight pass, reused across passes; empty when idle
	rebuild bool         // the pass is a batch-of-one KV rebuild from reprefillQ
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
	for i := range sc.prefills {
		pool.addInstance(&sc.prefills[i].instanceState, cfg.PrefillGPUs)
	}
	if err := sc.init(cs, pool, cfg.DecodeInstances, cfg.DecodeGPUs); err != nil {
		return nil, err
	}
	return sc, nil
}

//litegpu:hotpath
func (sc *staticSched) enqueue(a *activeReq) {
	sc.prefillQ.PushBack(a)
}

func (sc *staticSched) outstanding() int {
	outstanding := sc.batchCore.outstanding() + sc.prefillQ.Len() + sc.reprefillQ.Len()
	for i := range sc.prefills {
		outstanding += len(sc.prefills[i].batch)
	}
	return outstanding
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
	sc.dispatchPrefill(now)
	sc.batchCore.dispatch(now)
	if sc.runs && sc.reprefillQ.Len() > 0 {
		sc.cutRuns(math.MaxInt, nil)
	}
}

// dispatchPrefill starts a pass on every idle live prefill engine while
// work waits. Rebuild passes come first: a preempted sequence blocks a
// decode slot's worth of progress until its KV is rebuilt, so rebuilds
// outrank fresh prompts. Each runs as a batch of one (the KV must be
// recontiguous before decode resumes); fresh prompts batch up to
// MaxPrefillBatch.
//
//litegpu:hotpath
func (sc *staticSched) dispatchPrefill(now float64) {
	p := sc.pool
	for i := range sc.prefills {
		e := &sc.prefills[i]
		if !e.up {
			continue
		}
		for e.freeAt <= now {
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
			// Stage the candidate batch in the engine's reusable buffer,
			// then shrink it until its KV footprint fits. Every member is
			// priced at kvTokens: a rebuild's prompt plus what it decoded
			// before preemption, and for a prefillQ entry — a new
			// submission, a failed pass's batch, or a handoff whose source
			// died — nothing has decoded yet, so its prompt. The pool was
			// validated to fit the model at the nominal prompt length, but
			// an oversized prompt or a grown rebuild can still exceed
			// capacity alone (n reaches 0): drop it rather than let it
			// starve at the head of the queue forever.
			n = min(n, q.Len())
			e.batch = q.CopyPrefix(e.batch[:0], n)
			tokens := 0
			for _, a := range e.batch {
				tokens += kvTokens(a)
			}
			dt, ok := 0.0, false
			for ; n >= 1; n-- {
				if dt, ok = sc.prefillCost.prefill(n, tokens); ok {
					break
				}
				tokens -= kvTokens(e.batch[n-1])
			}
			clearTail(e.batch, n)
			e.batch = e.batch[:n]
			if !ok {
				p.dropOversized(q.PopFront(), nil, int32(i), now)
				continue
			}
			q.DiscardFront(n)
			e.rebuild = rebuild
			if e.slow > 0 {
				dt *= e.slow
			}
			e.freeAt = now + dt
			e.pBusy += dt
			// Val: a rebuild's KV tokens, a fresh pass's batch size.
			val := float64(n)
			if rebuild {
				val = float64(tokens)
			}
			for _, a := range e.batch {
				p.note(obs.PrefillStart, now, int32(i), a.req.ID, val)
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
	for _, a := range e.batch {
		sc.finishPass(i, a, e.rebuild, now)
	}
	clearTail(e.batch, 0)
	e.batch = e.batch[:0]
	sc.cs.requestDispatch(sc.pool, now)
}

// finishPass moves one member of a finished pass toward decode. Without
// a fabric, or when the chosen decode instance shares the prefill
// engine's scale-up node, the handoff is instantaneous: a fresh prompt's
// TTFT stamps here and it joins the back of the decode queue, while a
// rebuilt sequence, which served its first token before preemption,
// rejoins at the head with no stamp. Across nodes the KV cache becomes a
// fabric transfer (for a rebuild an xferSwap, whose delivery lands in
// swapReturn), and the attempt becomes decodable, and a fresh prompt's
// TTFT stamps, only when the last byte lands.
//
//litegpu:hotpath
func (sc *staticSched) finishPass(i int, a *activeReq, rebuild bool, now float64) {
	p := sc.pool
	if a.cancelled {
		// The client timed out mid-pass: the pass's compute is sunk, but
		// no KV ships and no TTFT stamps.
		p.freeActive(a)
		return
	}
	p.note(obs.PrefillEnd, now, int32(i), a.req.ID, 0)
	kind := xferKV
	if rebuild {
		kind = xferSwap
	}
	switch {
	case sc.handoff(i, a, kind, now):
	case rebuild:
		sc.q.PushFront(a)
	default:
		p.recordTTFT(now-float64(a.req.Arrival), a.req.Class)
		sc.q.PushBack(a)
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
	dst := len(sc.prefills) + sc.pickDecodeDst()
	if p.nodeOf[i] == p.nodeOf[dst] {
		return false
	}
	bytes := p.kvXferBytes(kvTokens(a))
	sc.cs.startXfer(p, xferRec{
		kind: kind, src: int32(i), dst: int32(dst),
		a: a, start: now, bytes: bytes,
	}, p.epBase+i, p.epBase+dst, dst)
	p.note(obs.XferStart, now, int32(i), a.req.ID, bytes)
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
	if len(e.batch) > 0 {
		// The pass died before completing: un-count its unfinished busy
		// tail and put its members back at the head of the queue they
		// came from (a rebuild's KV is lost, so it rebuilds again), or
		// abandon them.
		e.pBusy -= e.freeAt - now
		for _, a := range e.batch {
			p.failReq(a, int32(id), drop, now)
		}
		if !drop {
			q := &sc.prefillQ
			if e.rebuild {
				q = &sc.reprefillQ
			}
			for i := len(e.batch) - 1; i >= 0; i-- {
				q.PushFront(e.batch[i])
			}
		}
		clearTail(e.batch, 0)
		e.batch = e.batch[:0]
	}
	// Free the engine now, so the dispatch pass that recovery requests
	// restarts it at once (dispatchPrefill skips it while it is down).
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
		sc.prefillQ.PushFront(rec.a)
		return false
	}
	dst := sc.pickDecodeDst()
	dstID := len(sc.prefills) + dst
	if p.nodeOf[rec.src] == p.nodeOf[dstID] {
		// The retarget landed inside the source's scale-up node: the same
		// bypass finishPass applies — deliver immediately over the
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
