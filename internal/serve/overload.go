package serve

import (
	"fmt"
	"math"

	"litegpu/internal/obs"
	"litegpu/internal/sim"
	"litegpu/internal/straggler"
	"litegpu/internal/trace"
	"litegpu/internal/units"
)

// Closed-loop overload robustness (PR 9): real serving systems are not
// open loops. Clients give up, retry with backoff, and abandon;
// frontends shed load by tenant priority; fleets autoscale. This file
// holds the configuration surface and the event handlers for those
// control loops. Every config's zero value turns its feature off and
// leaves the simulation byte-identical to the open-loop engine (pinned
// by the golden corpora).

// ClientBehavior describes how one tenant class's clients behave while
// waiting for a response. The zero value is the open-loop client:
// infinite patience, no retries.
type ClientBehavior struct {
	// Timeout is how long a client waits for its full response before
	// cancelling the attempt. Zero disables the closed loop for the
	// class: requests are never timed out, retried, or abandoned.
	Timeout units.Seconds
	// Retries is how many times a timed-out client resubmits before
	// abandoning (each retry is a fresh request: full re-prefill).
	Retries int
	// BackoffBase seeds capped exponential backoff between retries:
	// attempt k waits min(BackoffCap, BackoffBase·2^k). Default 1s.
	BackoffBase units.Seconds
	// BackoffCap bounds the backoff. Default 30s.
	BackoffCap units.Seconds
	// Jitter in [0, 1) spreads retries: the backoff is multiplied by
	// 1 + Jitter·U with U uniform in [0, 1) from the pool's seeded
	// client stream — the standard thundering-herd mitigation.
	Jitter float64
	// TTFTSLO is the class's own time-to-first-token target for
	// per-class attainment; zero falls back to the pool-wide SLO
	// (Options.TTFTLimit, default 1s).
	TTFTSLO units.Seconds
}

func (b ClientBehavior) backoffBase() float64 {
	if b.BackoffBase > 0 {
		return float64(b.BackoffBase)
	}
	return 1
}

func (b ClientBehavior) backoffCap() float64 {
	if b.BackoffCap > 0 {
		return float64(b.BackoffCap)
	}
	return 30
}

func (b ClientBehavior) validate(who string) error {
	switch {
	case b.Timeout < 0 || math.IsNaN(float64(b.Timeout)) || math.IsInf(float64(b.Timeout), 0):
		return fmt.Errorf("serve: %s client timeout %v must be finite and ≥ 0", who, b.Timeout)
	case b.Retries < 0:
		return fmt.Errorf("serve: %s negative retry count %d", who, b.Retries)
	case b.BackoffBase < 0 || b.BackoffCap < 0:
		return fmt.Errorf("serve: %s negative backoff", who)
	case b.Jitter < 0 || b.Jitter >= 1 || math.IsNaN(b.Jitter):
		return fmt.Errorf("serve: %s jitter %v outside [0, 1)", who, b.Jitter)
	case b.TTFTSLO < 0:
		return fmt.Errorf("serve: %s negative TTFT SLO %v", who, b.TTFTSLO)
	}
	return nil
}

// ClientConfig closes the serving loop: per-request deadlines, retries
// with capped exponential backoff plus seeded jitter, and abandonment.
// The zero value is the historical open loop.
type ClientConfig struct {
	// Default applies to every request whose class has no entry in
	// Classes (including all of a single-tenant trace).
	Default ClientBehavior
	// Classes, when non-empty, maps trace.Request.Class to behavior by
	// index (a zero-value entry means that class is open-loop). It also
	// switches on per-class Metrics.Classes accounting.
	Classes []ClientBehavior
	// Seed drives the retry-jitter stream; each pool derives its own
	// substream via mathx.DeriveSeed(Seed, global pool index).
	Seed uint64
	// ObserveOnly measures client deadlines without enforcing them:
	// requests are never timed out, retried, or abandoned, but
	// Metrics.UsefulGoodput still counts only completions a client with
	// these timeouts would have waited for. This is the open-loop
	// baseline a closed-loop run is compared against — same patience,
	// no feedback.
	ObserveOnly bool
}

// enabled reports whether any class can time out — the condition under
// which pools allocate client-tracking state.
func (c ClientConfig) enabled() bool {
	if c.ObserveOnly {
		return false
	}
	if c.Default.Timeout > 0 {
		return true
	}
	for _, b := range c.Classes {
		if b.Timeout > 0 {
			return true
		}
	}
	return false
}

// canRetry reports whether any class's clients resubmit (a timeout
// with a retry budget). A request that got its first token, timed out
// and retried can record a second TTFT sample.
func (c ClientConfig) canRetry() bool {
	if !c.enabled() {
		return false
	}
	retries := func(b ClientBehavior) bool { return b.Timeout > 0 && b.Retries > 0 }
	if retries(c.Default) {
		return true
	}
	for _, b := range c.Classes {
		if retries(b) {
			return true
		}
	}
	return false
}

// Validate reports the first configuration problem, or nil.
func (c ClientConfig) Validate() error {
	if err := c.Default.validate("default"); err != nil {
		return err
	}
	for i, b := range c.Classes {
		if err := b.validate(fmt.Sprintf("class %d", i)); err != nil {
			return err
		}
	}
	return nil
}

// AdmissionPolicy selects how a pool sheds load under overload.
type AdmissionPolicy int

const (
	// AdmitAll is the zero value: every arrival is queued, however deep
	// the backlog — the historical open-admission behavior.
	AdmitAll AdmissionPolicy = iota
	// AdmitPriority sheds arrivals below MinPriority whenever the
	// pool's outstanding work is at or above QueueLimit: a static
	// two-tier gate (free tier sheds, paid tier always admits).
	AdmitPriority
	// AdmitAdaptive scales each priority level's queue-depth threshold
	// with its rank: priority p admits while outstanding work is below
	// QueueLimit·(1+p)/Levels, so pressure sheds the lowest tiers first
	// and the highest tier keeps the full limit.
	AdmitAdaptive
)

// String returns the policy's CLI name.
func (a AdmissionPolicy) String() string {
	switch a {
	case AdmitPriority:
		return "priority"
	case AdmitAdaptive:
		return "adaptive"
	default:
		return "none"
	}
}

// ParseAdmissionPolicy maps a CLI name (none | priority | adaptive) to
// its policy.
func ParseAdmissionPolicy(name string) (AdmissionPolicy, error) {
	switch name {
	case "none", "all":
		return AdmitAll, nil
	case "priority", "static":
		return AdmitPriority, nil
	case "adaptive", "queue-depth":
		return AdmitAdaptive, nil
	}
	return 0, fmt.Errorf("serve: unknown admission policy %q (want none, priority, or adaptive)", name)
}

// AdmissionPolicies returns the admission policies in definition order —
// the axis the sweep facade crosses.
func AdmissionPolicies() []AdmissionPolicy {
	return []AdmissionPolicy{AdmitAll, AdmitPriority, AdmitAdaptive}
}

// AdmissionConfig is a pool's load-shedding gate, applied to every
// arrival (and every retry) before it is queued. Shed requests count in
// Metrics.Shed (and per-class), never in Completed. The zero value
// admits everything.
type AdmissionConfig struct {
	// Policy selects the gate.
	Policy AdmissionPolicy
	// QueueLimit is the outstanding-work threshold (queued plus
	// in-flight requests) the gates key on. Required when Policy is not
	// AdmitAll.
	QueueLimit int
	// MinPriority is AdmitPriority's cutoff: arrivals with
	// trace.Request.Priority below it shed once the limit is hit.
	MinPriority int
	// Levels is AdmitAdaptive's priority-band count (priorities at or
	// above Levels-1 share the top band). Default 4.
	Levels int
}

func (a AdmissionConfig) levels() int {
	if a.Levels > 0 {
		return a.Levels
	}
	return 4
}

// Validate reports the first configuration problem, or nil.
func (a AdmissionConfig) Validate() error {
	switch {
	case a.Policy < AdmitAll || a.Policy > AdmitAdaptive:
		return fmt.Errorf("serve: unknown admission policy %d", a.Policy)
	case a.Policy != AdmitAll && a.QueueLimit <= 0:
		return fmt.Errorf("serve: admission policy %s needs a positive QueueLimit", a.Policy)
	case a.MinPriority < 0 || a.Levels < 0:
		return fmt.Errorf("serve: negative admission threshold")
	}
	return nil
}

// AutoscaleConfig is a pool's elastic control loop. Scaling works
// within the provisioned fleet: instances beyond MinInstances start
// parked (drawing no traffic), the control loop unparks them under load
// — after a cold-start warm-up — and drains them back when load falls.
// For the static policy only decode engines scale (prefill capacity
// stays fixed); colocated policies scale every instance. Utilization
// denominators stay provisioned-fleet based; Metrics.MeanLiveInstances
// reports the time-averaged unparked count. The zero value keeps the
// whole fleet always on.
type AutoscaleConfig struct {
	// Enabled turns the control loop on.
	Enabled bool
	// Interval is the control-loop period. Default 5s.
	Interval units.Seconds
	// HighWater scales up when outstanding work per live instance
	// exceeds it. Default 8.
	HighWater float64
	// LowWater scales down when outstanding work per live instance
	// falls below it (and more than MinInstances are live). Default 1.
	LowWater float64
	// MinInstances is the floor of always-on instances. Default 1.
	MinInstances int
	// Step bounds instances scaled per control tick. Default 1.
	Step int
	// WarmUp is the cold-start delay before an unparked instance takes
	// traffic (weights load, cache warm-up). An instance that dies
	// mid-warm-up stays parked. Default 30s.
	WarmUp units.Seconds
}

func (a AutoscaleConfig) interval() float64 {
	if a.Interval > 0 {
		return float64(a.Interval)
	}
	return 5
}

func (a AutoscaleConfig) highWater() float64 {
	if a.HighWater > 0 {
		return a.HighWater
	}
	return 8
}

func (a AutoscaleConfig) lowWater() float64 {
	if a.LowWater > 0 {
		return a.LowWater
	}
	return 1
}

func (a AutoscaleConfig) minInstances() int {
	if a.MinInstances > 0 {
		return a.MinInstances
	}
	return 1
}

func (a AutoscaleConfig) step() int {
	if a.Step > 0 {
		return a.Step
	}
	return 1
}

func (a AutoscaleConfig) warmUp() float64 {
	if a.WarmUp > 0 {
		return float64(a.WarmUp)
	}
	return 30
}

// Validate reports the first configuration problem, or nil.
func (a AutoscaleConfig) Validate() error {
	switch {
	case a.Interval < 0 || a.HighWater < 0 || a.LowWater < 0 ||
		a.MinInstances < 0 || a.Step < 0 || a.WarmUp < 0:
		return fmt.Errorf("serve: negative autoscale parameter")
	case a.Enabled && a.lowWater() >= a.highWater():
		return fmt.Errorf("serve: autoscale LowWater %v must be below HighWater %v",
			a.lowWater(), a.highWater())
	}
	return nil
}

// StragglerConfig plants persistently slow instances in a pool — the
// paper's straggling-GPU concern at serving granularity. Each instance
// draws one step-time factor from the jitter distribution at
// construction (seeded per cluster-wide instance index) and every pass
// it runs is stretched by it. The zero value (CV 0) leaves all
// instances nominal.
type StragglerConfig struct {
	// Jitter is the slowdown dispersion (see straggler.Jitter): each
	// instance's factor is one draw of 1+X, floored at 0.5.
	Jitter straggler.Jitter
	// Seed derives per-instance draws via mathx.DeriveSeed.
	Seed uint64
}

// Enabled reports whether any slowdown is configured.
func (s StragglerConfig) Enabled() bool { return s.Jitter.CV > 0 }

// Validate reports the first configuration problem, or nil.
func (s StragglerConfig) Validate() error {
	if s.Jitter.CV < 0 || math.IsNaN(s.Jitter.CV) || math.IsInf(s.Jitter.CV, 0) {
		return fmt.Errorf("serve: straggler CV %v must be finite and ≥ 0", s.Jitter.CV)
	}
	if s.Jitter.Tail < straggler.Gaussian || s.Jitter.Tail > straggler.LogNormal {
		return fmt.Errorf("serve: unknown straggler tail %d", s.Jitter.Tail)
	}
	return nil
}

// ClassMetrics is one tenant class's slice of a pool's outcome,
// reported when ClientConfig.Classes or admission control is in use.
type ClassMetrics struct {
	// Class is the trace.Request.Class index.
	Class int
	// Arrived counts first submissions (retries are not re-counted).
	Arrived int
	// Completed counts finished generations, including ones that
	// succeeded on a retry attempt.
	Completed int
	// Shed counts admission-control rejections (retries included).
	Shed int
	// TimedOut counts client deadline expiries (each attempt counts).
	TimedOut int
	// Retries counts retries booked after a timeout or a shed,
	// including retries whose backoff ends past the horizon and so
	// never resubmit.
	Retries int
	// Abandoned counts requests whose client gave up for good.
	Abandoned int
	// TTFTAttainment is first-token SLO hits (against the class's
	// TTFTSLO) over Arrived: shed and abandoned requests count as
	// misses, so the ratio reflects end-to-end tenant experience. A
	// request that times out after its first token and then succeeds on
	// a retry can contribute two hits, so saturated closed-loop runs
	// read this alongside TimedOut.
	TTFTAttainment float64
	// Goodput is completed output tokens per simulated second.
	Goodput float64
}

// classAcc is a pool's per-class accumulator (index = class). The
// embedded ClassMetrics holds the counts; finish sets its ratios from
// ttftOK and goodTokens.
type classAcc struct {
	ClassMetrics
	ttftOK     int
	goodTokens int
}

// add folds o's counts into a.
func (a *classAcc) add(o *classAcc) {
	a.Arrived += o.Arrived
	a.Completed += o.Completed
	a.Shed += o.Shed
	a.TimedOut += o.TimedOut
	a.Retries += o.Retries
	a.Abandoned += o.Abandoned
	a.ttftOK += o.ttftOK
	a.goodTokens += o.goodTokens
}

// clientTrack is one client's side of a tracked request: its live
// attempt a holds an armed deadline event. Between a timeout (or shed)
// and the retry it books, a is nil; the timed-out attempt carries its
// own cancellation mark until a scheduler choke point reclaims it.
type clientTrack struct {
	attempts int32
	deadline sim.EventID
	req      trace.Request // the live or next attempt's request, for resubmission
	a        *activeReq
}

// newTrack returns a fresh track index from the pool's arena.
//
//litegpu:hotpath
func (p *poolSim) newTrack() int32 {
	if n := len(p.freeTracks); n > 0 {
		idx := p.freeTracks[n-1]
		p.freeTracks = p.freeTracks[:n-1]
		return idx
	}
	p.trackArena = append(p.trackArena, clientTrack{})
	return int32(len(p.trackArena) - 1)
}

// freeTrack recycles a track slot.
//
//litegpu:hotpath
func (p *poolSim) freeTrack(idx int32) {
	p.trackArena[idx] = clientTrack{}
	p.freeTracks = append(p.freeTracks, idx)
}

// behavior returns the client behavior governing a class.
//
//litegpu:hotpath
func (p *poolSim) behavior(class int) ClientBehavior {
	if cls := p.cfg.Client.Classes; class >= 0 && class < len(cls) {
		return cls[class]
	}
	return p.cfg.Client.Default
}

// classAt returns the class's accumulator, growing the slice on first
// sight of a class index.
//
//litegpu:hotpath
func (p *poolSim) classAt(class int) *classAcc {
	if class < 0 {
		class = 0
	}
	for len(p.classes) <= class {
		p.classes = append(p.classes, classAcc{})
	}
	return &p.classes[class]
}

// classSLO returns the TTFT target for per-class attainment.
//
//litegpu:hotpath
func (p *poolSim) classSLO(class int) units.Seconds {
	if cls := p.cfg.Client.Classes; class >= 0 && class < len(cls) && cls[class].TTFTSLO > 0 {
		return cls[class].TTFTSLO
	}
	return pickSLO(p.cfg.Opts.TTFTLimit, 1.0)
}

// clientSettle closes the client's interest in attempt a at a terminal
// event — completion, oversized drop, or failure-policy drop: the live
// track's deadline is cancelled and the track freed. An untracked
// attempt (client loop off for its class, or already timed out) is a
// no-op.
//
//litegpu:hotpath
func (p *poolSim) clientSettle(a *activeReq) {
	if a.track == 0 {
		return
	}
	idx := a.track - 1
	a.track = 0
	tr := &p.trackArena[idx]
	if tr.deadline != 0 {
		p.eng.Cancel(tr.deadline)
		tr.deadline = 0
	}
	p.freeTrack(idx)
}

// shed applies the pool's admission gate to one submission, first or
// retried, and counts and records it when the gate sheds it.
//
//litegpu:hotpath
func (p *poolSim) shed(r trace.Request, now float64) bool {
	if p.cfg.Admission.Policy == AdmitAll || !p.shouldShed(r) {
		return false
	}
	p.m.Shed++
	if p.classesOn {
		p.classAt(r.Class).Shed++
	}
	p.note(obs.Shed, now, -1, r.ID, float64(r.Class))
	return true
}

// shouldShed reports whether the pool's admission gate rejects r.
//
//litegpu:hotpath
func (p *poolSim) shouldShed(r trace.Request) bool {
	a := p.cfg.Admission
	out := p.sched.outstanding()
	switch a.Policy {
	case AdmitPriority:
		return out >= a.QueueLimit && r.Priority < a.MinPriority
	case AdmitAdaptive:
		levels := a.levels()
		pr := r.Priority
		if pr >= levels {
			pr = levels - 1
		}
		if pr < 0 {
			pr = 0
		}
		return out >= a.QueueLimit*(1+pr)/levels
	}
	return false
}

// openTrack arms the client loop for attempt a, a first submission: a
// deadline event at arrival+timeout in the client priority band.
// Classes without a timeout stay untracked (open loop).
//
//litegpu:hotpath
func (s *clusterSim) openTrack(p *poolSim, a *activeReq, now float64) {
	b := p.behavior(a.req.Class)
	if b.Timeout <= 0 {
		return
	}
	idx := p.newTrack()
	tr := &p.trackArena[idx]
	*tr = clientTrack{req: a.req, a: a}
	at := float64(a.req.Arrival) + float64(b.Timeout)
	if at < now {
		at = now
	}
	tr.deadline = s.eng.ScheduleCall(at, prioClient+p.prioBase, s.deadlineH, packArg(p.idx, int(idx)))
	a.track = idx + 1
}

// onDeadline fires one client timeout: the attempt is cancelled (at
// once when it rides a KV or swap transfer; anywhere else it is marked,
// and the scheduler's next touch reclaims it), then the client either
// schedules a backoff retry or abandons.
//
//litegpu:hotpath
func (s *clusterSim) onDeadline(now float64, arg uint64) {
	pi, idx := unpackArg(arg)
	p := s.pools[pi]
	tr := &p.trackArena[idx]
	a := tr.a
	tr.deadline = 0
	tr.a = nil
	a.track = 0
	p.m.ClientTimeouts++
	if p.classesOn {
		p.classAt(tr.req.Class).TimedOut++
	}
	p.note(obs.Timeout, now, -1, tr.req.ID, float64(tr.attempts))
	if !s.cancelClientXfer(p, a) {
		// The attempt is woven through a queue, batch, or ingress
		// transfer: mark it for the choke points.
		a.cancelled = true
	}
	s.retryOrAbandon(p, idx, now)
	// Cancelled attempts at queue heads must be purged even on an
	// otherwise-idle pool, or they outlive the backlog.
	s.requestDispatch(p, now)
}

// cancelClientXfer eagerly cancels attempt a's in-flight KV or swap
// transfer, reclaiming a; ingress transfers are not listed live and
// reclaim at delivery. Reports whether a was reclaimed.
//
//litegpu:hotpath
func (s *clusterSim) cancelClientXfer(p *poolSim, a *activeReq) bool {
	if s.fab == nil {
		return false
	}
	live := p.liveXfers
	for k, idx := range live {
		rec := &p.xfers[idx]
		if rec.a != a {
			continue
		}
		s.fab.Cancel(rec.tid)
		p.freeActive(rec.a)
		p.freeXfer(idx)
		copy(live[k:], live[k+1:])
		p.liveXfers = live[:len(live)-1]
		return true
	}
	return false
}

// retryOrAbandon ends a tracked attempt that timed out or was shed:
// the client books a retry while its class's budget lasts, and
// otherwise gives up for good, freeing the track.
//
//litegpu:hotpath
func (s *clusterSim) retryOrAbandon(p *poolSim, idx int, now float64) {
	tr := &p.trackArena[idx]
	b := p.behavior(tr.req.Class)
	if int(tr.attempts) < b.Retries {
		s.scheduleRetry(p, idx, now, b)
		return
	}
	p.m.Abandoned++
	if p.classesOn {
		p.classAt(tr.req.Class).Abandoned++
	}
	p.note(obs.Abandon, now, -1, tr.req.ID, float64(tr.attempts))
	p.freeTrack(int32(idx))
}

// scheduleRetry books a resubmission after capped exponential backoff
// with seeded jitter. The track slot is kept for the pending retry.
//
//litegpu:hotpath
func (s *clusterSim) scheduleRetry(p *poolSim, idx int, now float64, b ClientBehavior) {
	tr := &p.trackArena[idx]
	p.m.ClientRetries++
	if p.classesOn {
		p.classAt(tr.req.Class).Retries++
	}
	backoff := b.backoffBase()
	limit := b.backoffCap()
	for a := int32(0); a < tr.attempts && backoff < limit; a++ {
		backoff *= 2
	}
	if backoff > limit {
		backoff = limit
	}
	if b.Jitter > 0 {
		backoff *= 1 + b.Jitter*p.clientRNG.Float64()
	}
	p.note(obs.Backoff, now, -1, tr.req.ID, backoff)
	s.eng.ScheduleCall(now+backoff, prioClient+p.prioBase, s.retryH, packArg(p.idx, idx))
}

// onRetry resubmits a timed-out (or shed) attempt as a fresh request:
// new cluster-unique negative ID, arrival now, full re-prefill. Retries
// face admission control like any arrival but never re-count in
// Arrived, and they re-enter the pool that owns the track (never
// re-routed).
//
//litegpu:hotpath
func (s *clusterSim) onRetry(now float64, arg uint64) {
	pi, idx := unpackArg(arg)
	p := s.pools[pi]
	tr := &p.trackArena[idx]
	r := tr.req
	oldID := r.ID
	s.retrySeq--
	r.ID = s.retrySeq
	r.Arrival = units.Seconds(now)
	tr.req = r
	tr.attempts++
	if p.rec != nil {
		// Retries extend the original submission's sampled timeline
		// rather than re-entering the reservoir.
		p.rec.Adopt(int64(oldID), int64(r.ID))
	}
	p.note(obs.Retry, now, -1, r.ID, float64(tr.attempts))
	if p.shed(r, now) {
		s.retryOrAbandon(p, idx, now)
		return
	}
	a := p.newActive(r)
	tr.a = a
	a.track = int32(idx) + 1
	tr.deadline = s.eng.ScheduleCall(now+float64(p.behavior(r.Class).Timeout), prioClient+p.prioBase,
		s.deadlineH, packArg(p.idx, idx))
	s.submit(p, a, now)
	s.requestDispatch(p, now)
}

// --- autoscaler ---------------------------------------------------------

// parkInstance takes an instance out of service (autoscale scale-down
// completion): it draws no dispatch and counts no live capacity until
// a warm-up unparks it.
//
//litegpu:hotpath
func (p *poolSim) parkInstance(st *instanceState, now float64) {
	st.draining = false
	st.parked = true
	st.parkedAt = now
}

// onScale runs one control tick for a pool: compare outstanding work
// per live scalable instance against the watermarks, unpark (with
// cold-start warm-up) or drain accordingly, and rebook the tick.
//
//litegpu:hotpath
func (s *clusterSim) onScale(now float64, arg uint64) {
	pi, _ := unpackArg(arg)
	p := s.pools[pi]
	a := p.cfg.Autoscale
	live := 0
	for _, st := range p.insts[p.scaleLo:p.scaleHi] {
		if !st.parked && !st.draining {
			live++
		}
	}
	denom := live
	if denom < 1 {
		denom = 1
	}
	load := float64(p.sched.outstanding()) / float64(denom)
	if load > a.highWater() {
		for n := a.step(); n > 0; n-- {
			if !s.scaleUpOne(p, now) {
				break
			}
			p.m.ScaleUps++
			p.noteInstance(obs.ScaleUp, now, -1, load)
		}
	} else if load < a.lowWater() && live > p.scaleMin {
		for n := a.step(); n > 0 && live > p.scaleMin; n-- {
			if !s.scaleDownOne(p, now) {
				break
			}
			p.m.ScaleDowns++
			live--
			p.noteInstance(obs.ScaleDown, now, -1, load)
		}
	}
	s.eng.ScheduleCall(now+a.interval(), prioClient+p.prioBase+1, s.scaleH, arg)
	s.requestDispatch(p, now)
}

// scaleUpOne adds capacity: a draining instance is reclaimed first (it
// is still warm), otherwise the lowest-index parked instance starts its
// cold-start warm-up. Reports whether anything was found.
//
//litegpu:hotpath
func (s *clusterSim) scaleUpOne(p *poolSim, now float64) bool {
	for _, st := range p.insts[p.scaleLo:p.scaleHi] {
		if st.draining {
			st.draining = false
			return true
		}
	}
	for id := p.scaleLo; id < p.scaleHi; id++ {
		st := p.insts[id]
		if st.parked && !st.warming {
			st.warming = true
			s.eng.ScheduleCall(now+p.cfg.Autoscale.warmUp(), prioClient+p.prioBase+1,
				s.warmH, packArg(p.idx, id))
			return true
		}
	}
	return false
}

// scaleDownOne removes capacity: the highest-index live instance parks
// immediately when idle, or drains (admitting nothing, finishing its
// in-flight work, then parking itself). Reports whether a target was
// found.
//
//litegpu:hotpath
func (s *clusterSim) scaleDownOne(p *poolSim, now float64) bool {
	for id := p.scaleHi - 1; id >= p.scaleLo; id-- {
		st := p.insts[id]
		if st.parked || st.draining {
			continue
		}
		if p.core.idle(id - p.core.base) {
			p.parkInstance(st, now)
		} else {
			st.draining = true
		}
		return true
	}
	return false
}

// onWarm completes one cold start: the instance unparks and takes
// traffic — unless it died mid-warm-up, in which case it stays parked
// (a later tick may warm another).
//
//litegpu:hotpath
func (s *clusterSim) onWarm(now float64, arg uint64) {
	pi, id := unpackArg(arg)
	p := s.pools[pi]
	st := p.insts[id]
	st.warming = false
	if !st.up || !st.parked {
		return
	}
	st.parked = false
	st.parkedSec += now - st.parkedAt
	s.requestDispatch(p, now)
}
