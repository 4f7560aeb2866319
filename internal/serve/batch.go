package serve

import (
	"math"

	"litegpu/internal/kv"
	"litegpu/internal/mathx"
	"litegpu/internal/obs"
	"litegpu/internal/sim"
)

// batchEngine is one instance of a pool: a TP group iterating over a
// batch of decoding sequences, with a queue of prompts still to
// prefill. A colocated engine runs both phases. The static policy's
// decode engines never admit a prompt, so their pending queue stays
// empty and every step is a decode step; its prefill engines never
// decode, and hold their in-flight whole-prompt pass in pending.
type batchEngine struct {
	instanceState
	// The in-flight step; zero when idle.
	stepState

	// active holds generations being decoded; pending holds admitted
	// requests whose prompts are not fully prefilled yet. Both reuse
	// their storage across iterations.
	active  []*activeReq
	pending deque[*activeReq]

	// al is the instance's paged KV allocator; nil with Config.KV off.
	// Admitted-but-pending requests hold a full prompt reservation — a
	// colocated instance prefills into the same HBM its decode cache
	// lives in. The static prefill engines have none: the simulation
	// models decode-side HBM, where the cache lives for a sequence's
	// whole generation (prefill working memory is covered by
	// MaxFeasibleBatch validation).
	al *kv.Allocator
	// claimsBy[r] counts the members of the engine's decode run whose
	// block slack after the run's first step is below r, for r in
	// [0, BlockTokens]: a member of slack s claims a block at the run's
	// boundaries s+1, s+1+BlockTokens, …, so claimsBy prices any prefix
	// of the run in blocks (see claims). Sized once, with the allocator.
	claimsBy []int
	// rebuild marks a static prefill engine's pass as a batch-of-one KV
	// rebuild from the rebuild queue.
	rebuild bool
}

// stepState is an engine's in-flight step: its end time, its
// prefill/decode second split (for busy accounting and failure
// un-counting), how many pending entries its prefill part completes,
// and — for chunked steps — how many head-of-line prompt tokens it
// processes. runLeft counts the steps of a decode run still to follow
// the in-flight one (see startStep), runOwed the tokens its applied
// boundaries emitted that its members' remaining counts do not show
// yet, and runGrow the steps those boundaries started, whose KV growth
// its members' sequences do not show yet (see payRun). claimNext is the
// first boundary of the run, counted from 1, whose block claims the
// pool's occupancy integral has not counted yet, and claimAt its time;
// claimNext is 0 when the run owes no claim (see flushClaims).
type stepState struct {
	stepEnd     float64 // 0 when idle
	stepPfx     float64
	stepDec     float64
	stepPrefill int
	stepChunk   int
	runLeft     int
	runOwed     int
	runGrow     int
	claimNext   int
	claimAt     float64
}

// batchCore is the batch engine every scheduler runs its instances on.
// Its engines are the pool's instance table: instance id j is engine j.
// The first np are the static policy's prefill engines, whose passes
// the scheduler stages (see staticSched.stage); the core books, ends and
// tears down their steps but never admits to or steps them itself. It
// owns the other engines' active sets, their paged KV allocators,
// growth with LIFO preemption, swap and recompute routing, token
// emission, HBM teardown on failure, and reclamation of in-flight
// transfers touching a dead instance. Per-policy differences are data
// it is built with (the chunk size, np) plus the pool scheduler's
// prefilled, rebuild and reclaimHandoff, where work leaving the core
// goes.
type batchCore struct {
	cs   *clusterSim
	pool *poolSim

	engines []batchEngine
	np      int               // prefill-only engines at the front of engines
	q       deque[*activeReq] // requests waiting for a batch slot
	cap     int               // max active+pending per engine
	// chunk is the ChunkedPrefill chunk size, fusing one chunk of the
	// head pending prompt into every step; 0 runs whole-prompt prefill
	// passes that stall the engine's decodes.
	chunk int
	cost  stepCost
	// runs allows decode runs longer than one step: only when nothing
	// but the engine's own clock and its members' KV blocks can change
	// its next step — no client deadlines, no autoscaler, and no
	// observer (probe rows carry the event count and the busy seconds).
	// With a KV allocator a run ends before the first step whose block
	// claims the engine's free blocks cannot cover (see runSteps).
	runs bool
	// starts counts the decode runs startStep began (one-step runs
	// included) and cuts the runs cutRuns cut short: the work corpus
	// pins both per scenario.
	starts, cuts int

	stepDoneH sim.Handler
}

// init builds the pool's instance table: np prefill-only engines of
// pgpus GPUs each, then n engines of gpus GPUs each. The batch cap is
// MaxDecodeBatch, further capped at the largest decode batch the
// step-cost table can price — with paged KV on too, where free blocks
// gate admission below that cap. Only the last n engines get a KV
// allocator.
func (c *batchCore) init(cs *clusterSim, pool *poolSim, np, pgpus, n, gpus int) error {
	cfg := pool.cfg
	c.cs, c.pool, c.np = cs, pool, np
	c.engines = make([]batchEngine, np+n)
	for j := range c.engines {
		c.engines[j].gpus = gpus
		if j < np {
			c.engines[j].gpus = pgpus
		}
	}
	pool.core = c
	c.cost = newStepCost(cfg, gpus)
	c.cap = c.cost.decodeCap(cfg.MaxDecodeBatch)
	c.stepDoneH = c.onStepDone
	c.runs = !cfg.Client.enabled() && !cfg.Autoscale.Enabled && cs.rec == nil
	if cfg.KV.Enabled() {
		blocks, err := kvBlocksPerInstance(cfg, gpus)
		if err != nil {
			return err
		}
		bt := cfg.KV.BlockTokensOrDefault()
		for j := np; j < len(c.engines); j++ {
			c.engines[j].al = kv.NewAllocator(blocks, bt, cfg.KV.PrefixCache)
			c.engines[j].claimsBy = make([]int, bt+1)
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

// idle reports whether engine j holds no in-flight work: the
// autoscaler parks such an engine at once instead of draining it.
func (c *batchCore) idle(j int) bool {
	e := &c.engines[j]
	return mathx.ExactEq(e.stepEnd, 0) && len(e.active) == 0 && e.pending.Len() == 0
}

// dispatch starts a step on every idle engine past the prefill-only
// ones, in index order. An engine in a decode run is first brought up
// to now (runTo), which leaves it idle when a step of the run ends
// exactly now, so the pass restarts it in index order as it would any
// engine. When the queue
// still holds work after the pass, every run whose engine has a free
// slot and would take the queue's head at the end of its in-flight step
// is cut there (see admits), and every run is cut if an idle engine
// would take it (see idleTakes). Every push into the queue requests a
// pass at that instant or is made by this pass, so the batch core cuts
// runs only here; the static scheduler also cuts them after the pass
// for its rebuild queue (see staticSched.dispatch).
//
//litegpu:hotpath
func (c *batchCore) dispatch(now float64) {
	for j := c.np; j < len(c.engines); j++ {
		e := &c.engines[j]
		if e.runLeft > 0 {
			c.runTo(j, now)
		}
		if e.ready() {
			c.startStep(j, now)
		}
	}
	if c.runs && c.q.Len() > 0 {
		switch head := c.q.At(0); {
		case c.engines[c.np].al == nil:
			c.cutRuns(c.cap, nil)
		case c.idleTakes(head):
			c.cutRuns(math.MaxInt, nil)
		default:
			c.cutRuns(c.cap, head)
		}
	}
}

// idleTakes reports whether an idle engine would take head at the next
// dispatch pass. Only a growth preemption later in the pass can have
// put head there after the engine's turn; without paged KV nothing
// preempts, and every engine with a free slot would take head. Single
// steps hold that pass at the first step end of any engine, so every
// run is then cut.
//
//litegpu:hotpath
func (c *batchCore) idleTakes(head *activeReq) bool {
	for j := c.np; j < len(c.engines); j++ {
		e := &c.engines[j]
		if e.ready() && !e.draining && c.hasSlot(e) && c.admits(e, head) {
			return true
		}
	}
	return false
}

// cutRuns cuts every decode run whose engine holds fewer than limit
// requests at the end of its in-flight step and, unless head is nil,
// would take head there: the step's completion event moves there, and
// the engine's next step starts through the dispatch pass that event
// requests, as a single step's would. The run's claims past that step
// lie at or after its end, and no flush reaches them before its
// completion drops them.
//
//litegpu:hotpath
func (c *batchCore) cutRuns(limit int, head *activeReq) {
	for j := range c.engines {
		e := &c.engines[j]
		if e.runLeft > 0 && len(e.active)+e.pending.Len() < limit && (head == nil || c.admits(e, head)) {
			c.cs.eng.Cancel(e.doneEv)
			c.cuts++
			e.runLeft = 0
			e.doneEv = c.cs.eng.ScheduleCall(e.stepEnd, prioDecode+e.prio, c.stepDoneH, uint64(j))
		}
	}
}

// admits reports whether engine e, with paged KV and in a decode run,
// would take a off the queue's head at the end of its in-flight step:
// admit it, or drop it as a prompt no pass fits. Its blocks count as
// they will stand then, after the claims of the run's steps so far.
// Until the run ends only those claims change the engine's allocator,
// and they only take blocks, so an engine that would not take a then
// would not take it at any later boundary of the run either.
//
//litegpu:hotpath
func (c *batchCore) admits(e *batchEngine, a *activeReq) bool {
	return c.oversized(a) || kvFits(e.al, a, e.claims(e.runGrow))
}

// ready reports whether the dispatch pass starts a step on e: it is up,
// not parked, and between steps. A draining engine starts steps but
// admits nothing.
//
//litegpu:hotpath
func (e *batchEngine) ready() bool {
	return e.up && !e.parked && mathx.ExactEq(e.stepEnd, 0)
}

// hasSlot reports whether e's batch has room for one more request.
//
//litegpu:hotpath
func (c *batchCore) hasSlot(e *batchEngine) bool {
	return len(e.active)+e.pending.Len() < c.cap
}

// oversized reports whether a's next prefill pass can never fit, even
// alone: admission drops such a prompt instead of queueing it. A pass
// is priced at the whole context it rebuilds (see fitPass); a chunked
// prompt's chunks are never longer.
//
//litegpu:hotpath
func (c *batchCore) oversized(a *activeReq) bool {
	if a.promptLeft <= 0 {
		return false
	}
	_, ok := c.cost.prefill(1, kvTokens(a))
	return !ok
}

// fitPass prices a whole-prompt prefill pass over the first n members
// of q, each at kvTokens — its prompt plus, for a KV rebuild, what it
// decoded before preemption — and shrinks n until the pass fits. It
// returns n == 0 when not even the head fits alone.
//
//litegpu:hotpath
func fitPass(cost *stepCost, q *deque[*activeReq], n int) (float64, int) {
	tokens := 0
	for i := 0; i < n; i++ {
		tokens += kvTokens(q.At(i))
	}
	for ; n >= 1; n-- {
		if dt, ok := cost.prefill(n, tokens); ok {
			return dt, n
		}
		tokens -= kvTokens(q.At(n - 1))
	}
	return 0, 0
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
		c.payRun(e, now)
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
// prioDispatch is that pass, and only observer probes follow it. The
// block claims of the steps those boundaries started are counted, so
// the pool's occupancy integral is complete for finish to close.
func (c *batchCore) endRuns(at float64, prio int) {
	through := at
	if prio >= prioDispatch {
		through = math.Nextafter(at, math.Inf(1))
	}
	if p := c.pool; p.kvOwedAt < through {
		p.flushClaims(through)
	}
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
// a token, and the next step is counted busy, timed by the same float
// addition startStep makes, and owes its members one token of KV
// growth, whose block claims the engine's free blocks cover (see
// runSteps).
//
//litegpu:hotpath
func (c *batchCore) runStep(e *batchEngine) {
	c.runTokens(e)
	e.dBusy += e.stepDec
	e.stepEnd += e.stepDec
	e.runLeft--
	e.runGrow++
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
// members' remaining counts, and extends their KV sequences by the
// growth of the steps those boundaries started, claiming the blocks
// that growth needs. Nothing reads either while the run goes on, so
// this happens once, when the run ends at now: at its completion, at a
// boundary that leaves the engine idle, and at a failure, whose
// allocator reset discards the growth again. Those boundaries all lie
// before now, so flushing the pool's claims first counts every block
// the extension takes, and no further kvAccount follows. Nothing reads
// them after the calendar stops either.
//
//litegpu:hotpath
func (c *batchCore) payRun(e *batchEngine, now float64) {
	if e.runOwed == 0 {
		return
	}
	for _, a := range e.active {
		a.remaining -= e.runOwed
	}
	e.runOwed = 0
	if e.al != nil && e.runGrow > 0 {
		if p := c.pool; p.kvOwedAt < now {
			p.flushClaims(now)
		}
		for _, a := range e.active {
			e.al.Extend(a.kvSeq, e.runGrow)
		}
	}
	e.runGrow = 0
}

// runSteps returns how many steps a decode-only step on e can run as
// one: the fewest tokens any member has left, so the run's last step is
// the first that completes a request. A member that has not emitted its
// first token yet keeps the step to one. With a KV allocator, whose
// grow has already claimed the first step's tokens, the steps after the
// first claim blocks as claimsBy counts them, and K is at most one more
// than the last boundary whose claims, with all before it, the free
// blocks cover: the run ends just before the first step whose claims
// memory cannot cover, and that step starts through the dispatch pass
// and grow, which may evict or preempt, as a single step would. Idle
// cached blocks do not count, since evicting one changes the LRU. K is
// never below one more than the smallest slack, which claims nothing.
// Nothing else touches the allocator of an engine in a run (admission
// happens only on idle engines), so every claim the run makes finds a
// free block, in the order single steps would take them.
//
//litegpu:hotpath
func (e *batchEngine) runSteps() int {
	k := math.MaxInt
	for _, a := range e.active {
		if !a.emitted {
			return 1
		}
		k = min(k, a.remaining)
	}
	if e.al == nil || k == 1 {
		return k
	}
	by := e.claimsBy
	clear(by)
	for _, a := range e.active {
		by[e.al.Slack(a.kvSeq)+1]++
	}
	bt := len(by) - 1
	for r := 1; r <= bt; r++ {
		by[r] += by[r-1]
	}
	// Every BlockTokens boundaries each member claims one block, so the
	// free blocks cover q whole cycles and, of the next, the boundaries
	// before the first r with by[r] > rem (by[bt], the members, exceeds
	// rem).
	m, free := len(e.active), e.al.FreeBlocks()
	q, rem := free/m, free%m
	r := bt - 1
	for by[r] > rem {
		r--
	}
	return min(k, q*bt+r+1)
}

// claims returns how many blocks the members of e's decode run claim at
// its boundaries 1 through b.
//
//litegpu:hotpath
func (e *batchEngine) claims(b int) int {
	bt := len(e.claimsBy) - 1
	return b/bt*len(e.active) + e.claimsBy[b%bt]
}

// claimsAt returns how many blocks the members of e's decode run claim
// at its boundary b.
//
//litegpu:hotpath
func (e *batchEngine) claimsAt(b int) int {
	r := (b - 1) % (len(e.claimsBy) - 1)
	return e.claimsBy[r+1] - e.claimsBy[r]
}

// seekClaim moves e's claim cursor to the first of its run's
// boundaries b, b+1, … at which members claim blocks, t being boundary
// b's time; past the run's last boundary it clears the cursor.
//
//litegpu:hotpath
func (e *batchEngine) seekClaim(b int, t float64) {
	by := e.claimsBy
	bt := len(by) - 1
	r := (b - 1) % bt
	for last := e.runGrow + e.runLeft; b <= last; b++ {
		if by[r+1] > by[r] {
			e.claimNext, e.claimAt = b, t
			return
		}
		t += e.stepDec
		if r++; r == bt {
			r = 0
		}
	}
	e.claimNext = 0
}

// swapReturn puts a preempted sequence back at the head of the queue
// once its KV is recoverable again (swap round-trip delivered, or
// recompute pass handed off). Head, not tail: it already consumed
// prefill capacity once and every queued request behind it is younger.
//
//litegpu:hotpath
func (c *batchCore) swapReturn(a *activeReq) {
	c.q.PushFront(a)
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
	for c.hasSlot(e) && c.q.Len() > 0 {
		a := c.q.At(0)
		if a.cancelled {
			// The client gave up while the request queued: reclaim it
			// before it occupies a batch slot.
			c.q.PopFront()
			p.freeActive(a)
			continue
		}
		if c.oversized(a) {
			c.q.PopFront()
			p.dropOversized(a, nil, -1, now)
			continue
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
//litegpu:hotpath
func (c *batchCore) startStep(j int, now float64) {
	e := &c.engines[j]
	p := c.pool
	// Purge cancelled pending heads first: they hold full prompt KV
	// reservations that admission is waiting on.
	for e.pending.Len() > 0 && e.pending.At(0).cancelled {
		a := e.pending.PopFront()
		p.kvRelease(e.al, a, now)
		p.freeActive(a)
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
		pDt, nPrefill = fitPass(&c.cost, &e.pending, min(p.cfg.MaxPrefillBatch, e.pending.Len()))
	case len(e.active) > 0:
		dDt = c.cost.decode(len(e.active))
	}
	if e.slow > 0 {
		// A straggling instance stretches both phases; scaling each
		// share keeps the busy-split consistent for failure un-counting.
		pDt *= e.slow
		dDt *= e.slow
	}
	if pDt+dDt <= 0 {
		if e.draining && len(e.active) == 0 && e.pending.Len() == 0 {
			p.parkInstance(&e.instanceState, now)
		}
		e.stepEnd = 0
		return
	}
	// Val: a chunk's tokens, a whole-prompt pass's batch size.
	val := float64(nPrefill)
	if c.chunk > 0 {
		val = float64(chunkTokens)
	}
	for i := 0; i < nPrefill; i++ {
		p.note(obs.PrefillStart, now, int32(j), e.pending.At(i).req.ID, val)
	}
	c.begin(j, now, pDt, dDt, nPrefill, chunkTokens)
}

// begin books engine j's step from now, of pDt prefill and dDt decode
// seconds (any straggler stretch applied), whose prefill part completes
// nPrefill pending entries or processes chunk tokens of the head one:
// its state, its busy split, and its completion event. Steps that emit
// tokens complete in the decode priority band; pure prefill passes
// complete in the prefill band, so at one instant every pass ends
// before any decode step.
//
// A decode-only step becomes a run of runSteps steps when c.runs allows
// it: the calendar gets one completion event, at the end of the run's
// last step, and the steps before it are applied lazily (runTo,
// endRuns, completeStep) exactly as their own events would have been.
// Nothing can change an engine's next step while it runs except its
// queue gaining work it could take, which dispatch answers by cutting
// the run, and its members' growth claiming blocks memory cannot cover,
// which bounds the run's length (runSteps). The claims a run's later
// steps make reach the pool's occupancy integral through flushClaims.
//
//litegpu:hotpath
func (c *batchCore) begin(j int, now, pDt, dDt float64, nPrefill, chunk int) {
	e := &c.engines[j]
	p := c.pool
	dt := pDt + dDt
	e.stepState = stepState{stepEnd: now + dt, stepPfx: pDt, stepDec: dDt, stepPrefill: nPrefill, stepChunk: chunk}
	e.pBusy += pDt
	e.dBusy += dDt
	prio := prioDecode + e.prio
	if mathx.ExactEq(dDt, 0) {
		prio = prioPrefill + e.prio
	}
	end := e.stepEnd
	if c.runs && nPrefill == 0 {
		c.starts++
		e.runLeft = e.runSteps() - 1
		for k := 0; k < e.runLeft; k++ {
			end += dt
		}
		if e.al != nil && e.runLeft > 0 {
			if e.seekClaim(1, e.stepEnd); e.claimNext > 0 {
				p.kvOwedAt = min(p.kvOwedAt, e.claimAt)
			}
		}
	}
	e.doneEv = c.cs.eng.ScheduleCall(end, prio, c.stepDoneH, uint64(j))
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
		p.dropOversized(a, e.al, int32(j), now)
		e.active[0] = nil
		e.active = e.active[:0]
		return
	}
}

// preempt evicts victim from engine j mid-generation: its blocks are
// released and its KV either rides the fabric to remote memory and back
// (Swap) or is discarded and rebuilt by a prefill pass over its whole
// context (Recompute), wherever the pool's scheduler runs such passes.
//
//litegpu:hotpath
func (c *batchCore) preempt(j int, victim *activeReq, now float64) {
	p := c.pool
	p.m.KVPreemptions++
	tokens := kvTokens(victim)
	p.note(obs.KVPreempt, now, int32(j), victim.req.ID, float64(tokens))
	p.kvRelease(c.engines[j].al, victim, now)
	if p.cfg.KV.Policy == kv.Swap {
		c.startSwap(j, victim, now, tokens)
		return
	}
	p.m.KVRecomputeTokens += tokens
	c.pool.sched.rebuild(victim)
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
		c.swapReturn(a)
		return
	}
	bytes := 2 * p.kvXferBytes(tokens)
	c.cs.startXfer(p, xferRec{
		kind: xferSwap, src: int32(j), dst: int32(j),
		a: a, start: now, bytes: bytes,
	}, p.epBase+j, 0, j)
	p.note(obs.KVSwapOut, now, int32(j), a.req.ID, bytes)
}

//litegpu:hotpath
func (c *batchCore) onStepDone(now float64, arg uint64) {
	c.completeStep(int(arg), now)
}

// completeStep ends engine j's step, or its run's last step, whose
// earlier boundaries are applied first. Every prompt the step finishes
// prefilling goes to the scheduler (see scheduler.prefilled).
//
//litegpu:hotpath
func (c *batchCore) completeStep(j int, now float64) {
	e := &c.engines[j]
	p := c.pool
	for e.runLeft > 0 {
		c.runStep(e)
	}
	c.payRun(e, now)
	e.doneEv = 0
	if e.stepDec > 0 {
		// Filter survivors in place; completed requests recycle. A batch
		// member whose client timed out since the step began leaves
		// without emitting — its step share is sunk cost, like a real
		// cancelled stream's.
		w := 0
		for _, a := range e.active {
			if a.cancelled {
				p.kvRelease(e.al, a, now)
				p.freeActive(a)
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
			p.sched.prefilled(j, head, now)
		} else {
			p.note(obs.Chunk, now, int32(j), head.req.ID, float64(head.promptLeft))
		}
	} else {
		for k := 0; k < e.stepPrefill; k++ {
			a := e.pending.PopFront()
			a.promptLeft = 0
			p.sched.prefilled(j, a, now)
		}
	}
	e.stepState = stepState{}
	c.cs.requestDispatch(p, now)
}

// fail tears down engine j after its instance died, once the scheduler
// has un-counted the aborted step's busy tail: the HBM died with it, so
// every resident sequence, every pending reservation, and the shared
// prefix cache are gone, and the engine's work goes back to the head of
// q, the queue it came from — or is abandoned under DropOnFailure. Requeued requests
// re-admit from scratch on a live engine. Chunk progress is only ever
// applied at step completion, so an in-flight chunk is simply lost:
// requeued prompts resume from their last completed chunk with no token
// duplicated or skipped.
//
//litegpu:hotpath
func (c *batchCore) fail(j int, now float64, drop bool, q *deque[*activeReq]) {
	e := &c.engines[j]
	p := c.pool
	c.payRun(e, now)
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
	id := int32(j)
	for i := 0; i < e.pending.Len(); i++ {
		a := e.pending.At(i)
		p.failReq(a, id, drop, now)
	}
	for _, a := range e.active {
		p.failReq(a, id, drop, now)
	}
	if !drop {
		// Requeue ahead of the waiting queue, preserving [pending...,
		// active..., old queue...] order: push active first, then
		// pending, each back-to-front.
		for i := len(e.active) - 1; i >= 0; i-- {
			q.PushFront(e.active[i])
		}
		for i := e.pending.Len() - 1; i >= 0; i-- {
			q.PushFront(e.pending.At(i))
		}
	}
	e.pending.DiscardFront(e.pending.Len())
	clearTail(e.active, 0)
	e.active = e.active[:0]
	c.failXfers(j, now, drop)
}

// failXfers reclaims in-flight transfers touching dead instance id. A
// swap round-trip's swapped-out copy lives in remote memory and
// survives: the sequence just needs a live engine to swap back into.
// Handoffs into the core are the scheduler's to settle. Under
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
		p.failReq(rec.a, int32(id), drop, now)
		if !drop && rec.src == rec.dst {
			c.q.PushFront(rec.a)
		} else if !drop && c.pool.sched.reclaimHandoff(rec, idx, id, now) {
			live[w] = idx
			w++
			continue
		}
		p.freeXfer(idx)
	}
	p.liveXfers = live[:w]
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
