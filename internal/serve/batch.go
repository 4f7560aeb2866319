package serve

import (
	"math"

	"litegpu/internal/kv"
	"litegpu/internal/mathx"
	"litegpu/internal/obs"
	"litegpu/internal/sim"
)

// batchEngine is one decode-capable instance: a TP group iterating over
// a batch of decoding sequences, with an optional queue of admitted
// prompts still to prefill. The static policy's decode engines never
// admit a prompt, so their pending queue stays empty and every step is
// a decode step; a colocated engine runs both phases.
type batchEngine struct {
	instanceState
	// The in-flight step; zero when idle.
	stepState

	// active holds generations being decoded; pending holds admitted
	// requests whose prompts are not fully prefilled yet. Both reuse
	// their storage across iterations.
	active  []*activeReq
	pending deque[*activeReq]

	pBusy float64
	dBusy float64

	// al is the instance's paged KV allocator; nil with Config.KV off.
	// Admitted-but-pending requests hold a full prompt reservation — a
	// colocated instance prefills into the same HBM its decode cache
	// lives in. The static prefill engines hold none: the simulation
	// models decode-side HBM, where the cache lives for a sequence's
	// whole generation (prefill working memory is covered by
	// MaxFeasibleBatch validation).
	al *kv.Allocator
}

// stepState is an engine's in-flight step: its end time, its
// prefill/decode second split (for busy accounting and failure
// un-counting), how many pending entries its prefill part completes,
// and — for chunked steps — how many head-of-line prompt tokens it
// processes. runLeft counts the steps of a decode run still to follow
// the in-flight one (see startStep), and runOwed the tokens its applied
// boundaries emitted that its members' remaining counts do not show
// yet (see payRun).
type stepState struct {
	stepEnd     float64 // 0 when idle
	stepPfx     float64
	stepDec     float64
	stepPrefill int
	stepChunk   int
	runLeft     int
	runOwed     int
}

// batchOwner is the scheduler a batchCore serves: it decides where work
// leaving the core for another part of the scheduler goes.
type batchOwner interface {
	// rebuild queues a preempted sequence whose KV was discarded
	// (Recompute policy) for a prefill pass over its whole context.
	rebuild(a *activeReq)
	// reclaimHandoff settles an in-flight KV handoff into the core that
	// lost an endpoint when instance id died. It reports whether the
	// record stays live (retargeted and retransmitting); otherwise the
	// core frees it.
	reclaimHandoff(rec *xferRec, idx int32, id int, now float64) bool
}

// batchCore is the batch engine every scheduler runs its decode-capable
// instances on. It owns the engines' active sets, their paged KV
// allocators, growth with LIFO preemption, swap and recompute routing,
// token emission, HBM teardown on failure, and reclamation of in-flight
// transfers touching a dead instance. Per-policy differences are data it
// is built with (chunk size, instance-id base) plus the owner's methods.
type batchCore struct {
	cs    *clusterSim
	pool  *poolSim
	owner batchOwner

	engines []batchEngine
	q       deque[*activeReq] // requests waiting for a batch slot
	cap     int               // max active+pending per engine
	base    int               // instance id of engines[0]
	// chunk is the ChunkedPrefill chunk size, fusing one chunk of the
	// head pending prompt into every step; 0 runs whole-prompt prefill
	// passes that stall the engine's decodes.
	chunk int
	cost  stepCost
	// runs allows decode runs longer than one step: only when nothing
	// but the engine's own clock can change its next step — no KV
	// allocator (growth is per token), no client deadlines, no
	// autoscaler, and no observer (probe rows carry the event count
	// and the busy seconds).
	runs bool

	stepDoneH sim.Handler
}

// init builds n engines of gpus GPUs each, with instance ids from base.
// The batch cap is MaxDecodeBatch, further capped at the largest decode
// batch the step-cost table can price — with paged KV on too, where free
// blocks gate admission below that cap.
func (c *batchCore) init(cs *clusterSim, pool *poolSim, owner batchOwner, n, gpus, base int) error {
	cfg := pool.cfg
	c.cs, c.pool, c.owner, c.base = cs, pool, owner, base
	c.engines = make([]batchEngine, n)
	c.cost = newStepCost(cfg, gpus)
	c.cap = c.cost.decodeCap(cfg.MaxDecodeBatch)
	c.stepDoneH = c.onStepDone
	c.runs = !cfg.KV.Enabled() && !cfg.Client.enabled() && !cfg.Autoscale.Enabled && cs.rec == nil
	if cfg.KV.Enabled() {
		blocks, err := kvBlocksPerInstance(cfg, gpus)
		if err != nil {
			return err
		}
		bt := cfg.KV.BlockTokensOrDefault()
		for j := range c.engines {
			c.engines[j].al = kv.NewAllocator(blocks, bt, cfg.KV.PrefixCache)
		}
	}
	return nil
}

func (c *batchCore) outstanding() int {
	n := c.q.Len()
	for j := range c.engines {
		n += len(c.engines[j].active) + c.engines[j].pending.Len()
	}
	return n
}

func (c *batchCore) idle(j int) bool {
	e := &c.engines[j]
	return mathx.ExactEq(e.stepEnd, 0) && len(e.active) == 0 && e.pending.Len() == 0
}

func (c *batchCore) busy() (prefill, decode float64) {
	for j := range c.engines {
		prefill += c.engines[j].pBusy
		decode += c.engines[j].dBusy
	}
	return prefill, decode
}

// dispatch starts a step on every idle engine, in index order. An
// engine in a decode run is first brought up to now (runTo), which
// leaves it idle when a step of the run ends exactly now, so the pass
// restarts it in index order as it would any engine. When the queue
// still holds work after the pass, every run whose engine has a free
// slot is cut at the end of its in-flight step: its next step would
// admit that work. Every push into the queue requests a pass at that
// instant, so this is the only place a run needs cutting.
//
//litegpu:hotpath
func (c *batchCore) dispatch(now float64) {
	for j := range c.engines {
		e := &c.engines[j]
		if e.runLeft > 0 {
			c.runTo(j, now)
		}
		if e.up && !e.parked && mathx.ExactEq(e.stepEnd, 0) {
			c.startStep(j, now)
		}
	}
	if !c.runs || c.q.Len() == 0 {
		return
	}
	for j := range c.engines {
		e := &c.engines[j]
		if e.runLeft > 0 && len(e.active)+e.pending.Len() < c.cap {
			c.cs.eng.Cancel(e.doneEv)
			e.runLeft = 0
			e.doneEv = c.cs.eng.ScheduleCall(e.stepEnd, prioDecode+e.prio, c.stepDoneH, uint64(j))
		}
	}
}

// runTo applies engine j's run boundaries that lie before now. A step
// of the run that ends exactly now also completes: its own event would
// have fired before any dispatch pass or failure at now. The engine is
// then idle, and its run event is cancelled.
//
//litegpu:hotpath
func (c *batchCore) runTo(j int, now float64) {
	e := &c.engines[j]
	for e.runLeft > 0 && e.stepEnd < now {
		c.runStep(e)
	}
	if e.runLeft > 0 && mathx.ExactEq(e.stepEnd, now) {
		c.runTokens(e)
		c.payRun(e)
		c.cs.eng.Cancel(e.doneEv)
		e.doneEv = 0
		e.stepState = stepState{}
	}
}

// endRuns applies, once the calendar has stopped at the event (at,
// prio), every run boundary that fired before it: prio is math.MaxInt
// for a Run that reached its horizon. A boundary at the stopping
// instant itself emitted its tokens if its own (decode band) event
// preceded the stopping one, and started its next step if the
// dispatch pass at that instant ran too: the only event at
// prioDispatch is that pass, and only observer probes follow it.
func (c *batchCore) endRuns(at float64, prio int) {
	for j := range c.engines {
		e := &c.engines[j]
		for e.runLeft > 0 && e.stepEnd < at {
			c.runStep(e)
		}
		if e.runLeft > 0 && mathx.ExactEq(e.stepEnd, at) {
			switch {
			case prio >= prioDispatch:
				c.runStep(e)
			case prioDecode+e.prio < prio:
				c.runTokens(e)
			}
		}
	}
}

// runStep applies one interior boundary of a decode run, as the step's
// completion and the next step's start would have: every member emits
// a token, and the next step is counted busy and timed by the same
// float addition startStep makes.
//
//litegpu:hotpath
func (c *batchCore) runStep(e *batchEngine) {
	c.runTokens(e)
	e.dBusy += e.stepDec
	e.stepEnd += e.stepDec
	e.runLeft--
}

// runTokens emits one token for every member of a run's batch. No
// member completes or emits its first token at an interior boundary,
// so this is all emitToken would do; the members' remaining counts
// catch up once, in payRun.
//
//litegpu:hotpath
func (c *batchCore) runTokens(e *batchEngine) {
	e.runOwed++
	c.pool.m.TokensGenerated += len(e.active)
}

// payRun takes the tokens a run's applied boundaries emitted off its
// members' remaining counts. Nothing reads them while the run goes on,
// so this happens once, when the run ends: at its completion, at a
// boundary that leaves the engine idle, and at a failure. Nothing
// reads them after the calendar stops either.
//
//litegpu:hotpath
func (c *batchCore) payRun(e *batchEngine) {
	if e.runOwed == 0 {
		return
	}
	for _, a := range e.active {
		a.remaining -= e.runOwed
	}
	e.runOwed = 0
}

// runSteps returns how many steps a decode-only step over active can
// run as one: the fewest tokens any member has left, so the run's last
// step is the first that completes a request. A member that has not
// emitted its first token yet keeps the step to one.
//
//litegpu:hotpath
func runSteps(active []*activeReq) int {
	k := math.MaxInt
	for _, a := range active {
		if !a.emitted {
			return 1
		}
		k = min(k, a.remaining)
	}
	return k
}

// swapReturn puts a preempted sequence back at the head of the queue
// once its KV is recoverable again (swap round-trip delivered, or
// recompute pass handed off). Head, not tail: it already consumed
// prefill capacity once and every queued request behind it is younger.
//
//litegpu:hotpath
func (c *batchCore) swapReturn(a *activeReq, now float64) {
	c.q.PushFront(a)
}

// passTokens is the prompt length a's next prefill pass on e covers:
// with paged KV a recompute victim rebuilds its whole context, prompt
// plus generated tokens.
//
//litegpu:hotpath
func (e *batchEngine) passTokens(a *activeReq) int {
	if e.al != nil {
		return a.promptLeft
	}
	return a.req.PromptTokens
}

// admit refills the engine's batch slots from the queue — the
// continuous-batching move: every iteration boundary, capacity freed by
// finished requests is handed to waiting ones. With paged KV the head
// must also fit in free blocks; admission is head-of-line (no skipping),
// so a blocked head waits for completions or preemptions to free
// memory. Prompts whose pass can never fit even alone are dropped.
//
//litegpu:hotpath
func (c *batchCore) admit(e *batchEngine, now float64) {
	p := c.pool
	for len(e.active)+e.pending.Len() < c.cap && c.q.Len() > 0 {
		a := c.q.At(0)
		if p.clientOn && p.isCancelled(a.req.ID) {
			// The client gave up while the request queued: reclaim it
			// before it occupies a batch slot.
			c.q.PopFront()
			p.settleCancelled(a.req.ID, a)
			continue
		}
		if a.promptLeft > 0 {
			if _, ok := c.cost.prefill(1, e.passTokens(a)); !ok {
				c.q.PopFront()
				if p.rec != nil {
					p.rec.Request(obs.Drop, now, int32(p.idx), -1, int64(a.req.ID), float64(a.req.PromptTokens))
				}
				p.drop()
				p.clientSettle(a.req.ID)
				p.freeActive(a)
				continue
			}
		}
		if e.al != nil && !p.kvAdmit(e.al, a, now) {
			break // head-of-line waits for blocks to free
		}
		c.q.PopFront()
		if a.promptLeft > 0 {
			e.pending.PushBack(a)
			continue
		}
		if !a.admitted {
			a.admitted = true
			a.decodeAt = now
		}
		e.active = append(e.active, a)
	}
}

// startStep begins one iteration on an idle engine. Whole-prompt
// prefill passes are prioritized over decode steps (vLLM-style); a
// chunked engine fuses one prompt chunk with the decode step so both
// phases progress together. A draining engine admits nothing — it
// finishes its in-flight work and parks.
//
// A decode-only step becomes a run of runSteps steps when c.runs
// allows it: the calendar gets one completion event, at the end of the
// run's last step, and the steps before it are applied lazily (runTo,
// endRuns, completeStep) exactly as their own events would have been.
// Nothing can change an engine's next step while it runs except its
// queue gaining work, which dispatch answers by cutting the run.
//
//litegpu:hotpath
func (c *batchCore) startStep(j int, now float64) {
	e := &c.engines[j]
	p := c.pool
	if p.clientOn {
		// Purge cancelled pending heads first: they hold full prompt KV
		// reservations that admission is waiting on.
		for e.pending.Len() > 0 {
			a := e.pending.At(0)
			if !p.isCancelled(a.req.ID) {
				break
			}
			e.pending.PopFront()
			p.kvRelease(e.al, a, now)
			p.settleCancelled(a.req.ID, a)
		}
	}
	if !e.draining {
		c.admit(e, now)
	}
	if e.al != nil && len(e.active) > 0 && (c.chunk > 0 || e.pending.Len() == 0) {
		// This step will decode: claim every survivor's token growth
		// before timing it (growth can shrink the batch by preemption).
		c.grow(j, now)
	}
	var pDt, dDt float64
	nPrefill, chunkTokens := 0, 0
	switch {
	case c.chunk > 0:
		if e.pending.Len() > 0 {
			chunkTokens = min(c.chunk, e.pending.At(0).promptLeft)
			// Admission priced the head's whole pass, and a chunk is
			// never longer, so it fits.
			pDt, _ = c.cost.prefill(1, chunkTokens)
			nPrefill = 1
		}
		if len(e.active) > 0 {
			dDt = c.cost.decode(len(e.active))
		}
	case e.pending.Len() > 0:
		pDt, nPrefill = c.prefillPass(e)
	case len(e.active) > 0:
		dDt = c.cost.decode(len(e.active))
	}
	if e.slow > 0 {
		// A straggling instance stretches both phases; scaling each
		// share keeps the busy-split consistent for failure un-counting.
		pDt *= e.slow
		dDt *= e.slow
	}
	dt := pDt + dDt
	if dt <= 0 {
		if e.draining && len(e.active) == 0 && e.pending.Len() == 0 {
			p.parkInstance(&e.instanceState, now)
		}
		e.stepEnd = 0
		return
	}
	e.stepState = stepState{stepEnd: now + dt, stepPfx: pDt, stepDec: dDt, stepPrefill: nPrefill, stepChunk: chunkTokens}
	e.pBusy += pDt
	e.dBusy += dDt
	if p.rec != nil && nPrefill > 0 {
		id := int32(c.base + j)
		if c.chunk > 0 {
			p.rec.Request(obs.PrefillStart, now, int32(p.idx), id, int64(e.pending.At(0).req.ID), float64(chunkTokens))
		} else {
			for i := 0; i < nPrefill; i++ {
				p.rec.Request(obs.PrefillStart, now, int32(p.idx), id, int64(e.pending.At(i).req.ID), float64(nPrefill))
			}
		}
	}
	// Steps that emit tokens complete in the decode priority band; pure
	// prefill passes complete in the prefill band, matching the static
	// policy's same-timestamp phase order.
	prio := prioDecode + e.prio
	if mathx.ExactEq(dDt, 0) {
		prio = prioPrefill + e.prio
	}
	end := e.stepEnd
	if c.runs && nPrefill == 0 {
		e.runLeft = runSteps(e.active) - 1
		for k := 0; k < e.runLeft; k++ {
			end += dt
		}
	}
	e.doneEv = c.cs.eng.ScheduleCall(end, prio, c.stepDoneH, uint64(j))
}

// prefillPass prices a whole-prompt pass over the head of the pending
// queue: up to MaxPrefillBatch prompts, shrunk until their combined
// footprint fits. Admission dropped prompts that cannot fit alone, so a
// pass of at least one always fits.
//
//litegpu:hotpath
func (c *batchCore) prefillPass(e *batchEngine) (float64, int) {
	n := min(c.pool.cfg.MaxPrefillBatch, e.pending.Len())
	tokens := 0
	for i := 0; i < n; i++ {
		tokens += e.passTokens(e.pending.At(i))
	}
	for ; n >= 1; n-- {
		if dt, ok := c.cost.prefill(n, tokens); ok {
			return dt, n
		}
		tokens -= e.passTokens(e.pending.At(n - 1))
	}
	return 0, 0
}

// grow claims the block growth for the token each active sequence emits
// this step. When the allocator runs dry, eviction prefers the cheapest
// memory first: pending reservations (nothing decoded yet — they just
// release and requeue, uncounted), then the newest active sequences
// (least sunk decode work). A sole occupant that still cannot grow is
// dropped — with the whole allocator to itself there is nothing left to
// evict.
//
//litegpu:hotpath
func (c *batchCore) grow(j int, now float64) {
	e := &c.engines[j]
	p := c.pool
	for i := 0; i < len(e.active); {
		a := e.active[i]
		if p.kvGrow(e.al, a, now) {
			i++
			continue
		}
		if e.pending.Len() > 0 {
			v := e.pending.PopFront()
			p.kvRelease(e.al, v, now)
			c.q.PushFront(v)
			continue
		}
		last := len(e.active) - 1
		if last > i {
			victim := e.active[last]
			e.active[last] = nil
			e.active = e.active[:last]
			c.preempt(j, victim, now)
			continue // retry a's growth with the freed blocks
		}
		if i > 0 {
			// a itself is the newest remaining sequence: evict it.
			e.active[last] = nil
			e.active = e.active[:last]
			c.preempt(j, a, now)
			return
		}
		// Sole occupant that cannot grow: it can never finish.
		if p.rec != nil {
			p.rec.Request(obs.Drop, now, int32(p.idx), int32(c.base+j), int64(a.req.ID), float64(a.req.PromptTokens))
		}
		p.kvRelease(e.al, a, now)
		p.drop()
		p.clientSettle(a.req.ID)
		p.freeActive(a)
		e.active[0] = nil
		e.active = e.active[:0]
		return
	}
}

// preempt evicts victim from engine j mid-generation: its blocks are
// released and its KV either rides the fabric to remote memory and back
// (Swap) or is discarded and rebuilt by a prefill pass over its whole
// context (Recompute), wherever the owner runs such passes.
//
//litegpu:hotpath
func (c *batchCore) preempt(j int, victim *activeReq, now float64) {
	p := c.pool
	p.m.KVPreemptions++
	tokens := kvTokens(victim)
	if p.rec != nil {
		p.rec.Request(obs.KVPreempt, now, int32(p.idx), int32(c.base+j), int64(victim.req.ID), float64(tokens))
	}
	p.kvRelease(c.engines[j].al, victim, now)
	if p.cfg.KV.Policy == kv.Swap {
		c.startSwap(j, victim, now, tokens)
		return
	}
	p.m.KVRecomputeTokens += tokens
	c.owner.rebuild(victim)
}

// startSwap prices a preemption swap as one fabric transfer of twice
// the sequence's block payload — the swap-out to router-attached remote
// memory plus the eventual swap-in — delivered as an xferSwap so the
// sequence rejoins decode with no TTFT stamp.
//
//litegpu:hotpath
func (c *batchCore) startSwap(j int, a *activeReq, now float64, tokens int) {
	p := c.pool
	if c.cs.fab == nil {
		// No fabric configured: the historical infinite interconnect —
		// the round-trip is free and the sequence requeues immediately.
		c.swapReturn(a, now)
		return
	}
	id := c.base + j
	idx := p.newXfer()
	rec := &p.xfers[idx]
	*rec = xferRec{
		kind: xferSwap, src: int32(id), dst: int32(id),
		a: a, start: now,
		bytes: 2 * p.kvXferBytes(tokens),
	}
	rec.tid = c.cs.fab.Start(p.epBase+id, 0, rec.bytes,
		prioTransfer+c.engines[j].prio, c.cs.xferH, packArg(p.idx, int(idx)))
	p.liveXfers = append(p.liveXfers, idx)
	if p.rec != nil {
		p.rec.Request(obs.KVSwapOut, now, int32(p.idx), int32(id), int64(a.req.ID), rec.bytes)
	}
}

//litegpu:hotpath
func (c *batchCore) onStepDone(now float64, arg uint64) {
	c.completeStep(int(arg), now)
}

// completeStep ends engine j's step, or its run's last step, whose
// earlier boundaries are applied first.
//
//litegpu:hotpath
func (c *batchCore) completeStep(j int, now float64) {
	e := &c.engines[j]
	p := c.pool
	for e.runLeft > 0 {
		c.runStep(e)
	}
	c.payRun(e)
	e.doneEv = 0
	if e.stepDec > 0 {
		// Filter survivors in place; completed requests recycle. A batch
		// member whose client timed out since the step began leaves
		// without emitting — its step share is sunk cost, like a real
		// cancelled stream's.
		w := 0
		for _, a := range e.active {
			if p.clientOn && p.isCancelled(a.req.ID) {
				p.kvRelease(e.al, a, now)
				p.settleCancelled(a.req.ID, a)
				continue
			}
			if !p.emitToken(a, now) {
				e.active[w] = a
				w++
				continue
			}
			p.kvRelease(e.al, a, now)
			p.freeActive(a)
		}
		clearTail(e.active, w)
		e.active = e.active[:w]
	}
	if e.stepPrefill > 0 && c.chunk > 0 {
		head := e.pending.At(0)
		head.promptLeft -= e.stepChunk
		if head.promptLeft <= 0 {
			head.promptLeft = 0
			e.pending.PopFront()
			c.finishPrefill(j, head, now)
		} else if p.rec != nil {
			p.rec.Request(obs.Chunk, now, int32(p.idx), int32(c.base+j), int64(head.req.ID), float64(head.promptLeft))
		}
	} else {
		for k := 0; k < e.stepPrefill; k++ {
			a := e.pending.PopFront()
			a.promptLeft = 0
			c.finishPrefill(j, a, now)
		}
	}
	e.stepState = stepState{}
	c.cs.requestDispatch(p, now)
}

// finishPrefill moves a fully prefilled request into engine j's decode
// batch, recording its TTFT sample exactly once no matter how many
// requeues preceded it — unless its client timed out mid-prefill.
//
//litegpu:hotpath
func (c *batchCore) finishPrefill(j int, a *activeReq, now float64) {
	e := &c.engines[j]
	p := c.pool
	if p.clientOn && p.isCancelled(a.req.ID) {
		p.kvRelease(e.al, a, now)
		p.settleCancelled(a.req.ID, a)
		return
	}
	if p.rec != nil {
		p.rec.Request(obs.PrefillEnd, now, int32(p.idx), int32(c.base+j), int64(a.req.ID), 0)
	}
	if !a.ttftDone {
		a.ttftDone = true
		p.recordTTFT(now-float64(a.req.Arrival), a.req.Class)
	}
	if !a.admitted {
		a.admitted = true
		a.decodeAt = now
	}
	e.active = append(e.active, a)
}

// fail tears down engine j after its instance died, once the owner has
// un-counted the aborted step's busy tail: the HBM died with it, so every
// resident sequence, every pending reservation, and the shared prefix
// cache are gone, and the engine's work goes back to the head of the
// queue — or is abandoned under DropOnFailure. Requeued requests
// re-admit from scratch on a live engine. Chunk progress is only ever
// applied at step completion, so an in-flight chunk is simply lost:
// requeued prompts resume from their last completed chunk with no token
// duplicated or skipped.
//
//litegpu:hotpath
func (c *batchCore) fail(j int, now float64, drop bool) {
	e := &c.engines[j]
	p := c.pool
	c.payRun(e)
	e.stepState = stepState{}
	if e.al != nil {
		for _, a := range e.active {
			a.kvSeq = -1
		}
		for i := 0; i < e.pending.Len(); i++ {
			e.pending.At(i).kvSeq = -1
		}
		if used := e.al.InUse(); used != 0 {
			p.kvAccount(now, -used)
		}
		e.al.Reset()
	}
	if n := e.pending.Len() + len(e.active); n > 0 {
		if p.rec != nil {
			k, id := failEvent(drop), int32(c.base+j)
			for i := 0; i < e.pending.Len(); i++ {
				p.rec.Request(k, now, int32(p.idx), id, int64(e.pending.At(i).req.ID), 0)
			}
			for _, a := range e.active {
				p.rec.Request(k, now, int32(p.idx), id, int64(a.req.ID), 0)
			}
		}
		if drop {
			p.m.DroppedOnFailure += n
			for e.pending.Len() > 0 {
				a := e.pending.PopFront()
				p.clientSettle(a.req.ID)
				p.freeActive(a)
			}
			for _, a := range e.active {
				p.clientSettle(a.req.ID)
				p.freeActive(a)
			}
		} else {
			p.m.Requeued += n
			// Requeue ahead of the waiting queue, preserving [pending...,
			// active..., old queue...] order: push active first, then
			// pending, each back-to-front.
			for i := len(e.active) - 1; i >= 0; i-- {
				c.q.PushFront(e.active[i])
			}
			for i := e.pending.Len() - 1; i >= 0; i-- {
				c.q.PushFront(e.pending.At(i))
			}
			e.pending.DiscardFront(e.pending.Len())
		}
		clearTail(e.active, 0)
		e.active = e.active[:0]
	}
	c.failXfers(c.base+j, now, drop)
}

// failXfers reclaims in-flight transfers touching dead instance id. A
// swap round-trip's swapped-out copy lives in remote memory and
// survives: the sequence just needs a live engine to swap back into.
// Handoffs into the core are the owner's to settle. Under
// DropOnFailure every payload is abandoned.
//
//litegpu:hotpath
func (c *batchCore) failXfers(id int, now float64, drop bool) {
	p := c.pool
	if c.cs.fab == nil {
		return
	}
	live := p.liveXfers
	w := 0
	for _, idx := range live {
		rec := &p.xfers[idx]
		if int(rec.src) != id && int(rec.dst) != id {
			live[w] = idx
			w++
			continue
		}
		c.cs.fab.Cancel(rec.tid)
		switch {
		case drop:
			p.m.DroppedOnFailure++
			p.clientSettle(rec.a.req.ID)
			p.freeActive(rec.a)
		case rec.src == rec.dst:
			p.m.Requeued++
			c.q.PushFront(rec.a)
		default:
			p.m.Requeued++
			if c.owner.reclaimHandoff(rec, idx, id, now) {
				live[w] = idx
				w++
				continue
			}
		}
		p.freeXfer(idx)
	}
	p.liveXfers = live[:w]
}

// failEvent is the observer event for in-flight work an instance
// failure requeues, or abandons under drop.
//
//litegpu:hotpath
func failEvent(drop bool) obs.Kind {
	if drop {
		return obs.Drop
	}
	return obs.Requeue
}

// clearTail nils pointers beyond w so truncated slices do not retain
// recycled or requeued requests.
//
//litegpu:hotpath
func clearTail(s []*activeReq, w int) {
	for i := w; i < len(s); i++ {
		s[i] = nil
	}
}
