package serve

import (
	"context"
	"fmt"
	"runtime"

	"litegpu/internal/failure"
	"litegpu/internal/hw"
	"litegpu/internal/inference"
	"litegpu/internal/kv"
	"litegpu/internal/model"
	"litegpu/internal/network"
	"litegpu/internal/obs"
	"litegpu/internal/sweep"
	"litegpu/internal/tco"
	"litegpu/internal/trace"
	"litegpu/internal/units"
)

// SLO is the attainment contract a capacity plan must meet. The latency
// limits themselves come from the inference Options (TTFTLimit,
// TBTLimit); the SLO sets what fraction of requests must meet them.
type SLO struct {
	// TTFTAttainment and TBTAttainment are the required fractions of
	// requests meeting the TTFT / TBT limits (default 0.99 each).
	TTFTAttainment float64
	TBTAttainment  float64
	// MinCompletion is the required fraction of arrived requests that
	// finish within the simulation (default 0.95) — it catches decode
	// underprovisioning that per-completed-request attainment alone
	// cannot see, because backlogged requests never produce a sample.
	MinCompletion float64
	// MinAvailability is the required steady-state availability of the
	// deployment when failure injection is enabled (default 0.999): the
	// probability that no more of the deployment's units are down than
	// it has hot spares. It is evaluated analytically
	// (failure.AnalyticAvailability), which is what makes the spare
	// search sound for paper-calibrated AFRs whose failures are far too
	// rare to observe inside a minutes-long simulation. Ignored when
	// failure injection is off.
	MinAvailability float64
}

func (s SLO) withDefaults() SLO {
	if s.TTFTAttainment <= 0 {
		s.TTFTAttainment = 0.99
	}
	if s.TBTAttainment <= 0 {
		s.TBTAttainment = 0.99
	}
	if s.MinCompletion <= 0 {
		s.MinCompletion = 0.95
	}
	if s.MinAvailability <= 0 {
		s.MinAvailability = 0.999
	}
	return s
}

// met reports whether a run that reached its horizon meets the SLO's
// simulated targets (availability is checked analytically, apart).
func (s SLO) met(m Metrics) bool {
	return m.Dropped == 0 &&
		m.TTFTAttainment >= s.TTFTAttainment &&
		m.TBTAttainment >= s.TBTAttainment &&
		m.Arrived > 0 &&
		float64(m.Completed) >= s.MinCompletion*float64(m.Arrived)
}

// PlanRequest parameterizes the capacity search.
type PlanRequest struct {
	GPU   hw.GPU
	Model model.Transformer
	Opts  inference.Options

	// Workload generates the request stream the plan must serve; its
	// Rate and Seed fields are used as-is.
	Workload trace.Generator

	// Horizon is the arrival window in seconds (default 300). The
	// simulation runs a drain window past it so in-flight requests can
	// finish.
	Horizon units.Seconds
	// Drain extends the simulation past the arrival horizon (default 120).
	Drain units.Seconds

	// Schedulers lists the serving disciplines to size (empty = just
	// StaticDisaggregated). Each is sized independently and the cheapest
	// feasible plan (by $/Mtoken) wins — so the planner answers not just
	// "how many instances" but "which scheduler".
	Schedulers []SchedulerPolicy

	// PrefillChunk is the ChunkedPrefill chunk size in prompt tokens
	// (default 512); ignored by the other policies.
	PrefillChunk int

	// Fabrics lists the candidate fabrics. Each rides inside every
	// sizing simulation of its candidate AND prices the plan. An empty
	// list means one zero-valued entry, the historical behavior: an
	// infinite in-loop fabric, priced as a folded Clos over co-packaged
	// optics and packet switches. With several entries the fabric joins
	// scheduler and spares as a search axis — every (scheduler, fabric)
	// pair is sized independently with that fabric in the event loop,
	// priced through the tco/network cost models at the resulting
	// deployment scale, checked for physical feasibility (cable reach at
	// that scale), and the cheapest feasible plan per Mtoken wins. See
	// DefaultFabricCandidates for a sensible axis.
	Fabrics []NetworkConfig

	// KVPolicies lists the candidate KV-cache memory models. An empty
	// list means one zero-valued entry: decode memory is infinite and
	// admission never blocks on cache blocks. With several entries the
	// KV policy joins scheduler and fabric as a search axis — every
	// (scheduler, fabric, kv) triple is sized independently and the
	// cheapest feasible plan per Mtoken wins. See
	// kv.DefaultPolicyCandidates for a sensible axis.
	KVPolicies []kv.Config

	// Client attaches closed-loop client behavior (deadlines, retries
	// with backoff, abandonment) to every sizing simulation. The zero
	// value keeps the historical open-loop clients. Sizing against
	// impatient clients is more conservative than it looks: retries
	// re-prefill, so an underprovisioned candidate fails the completion
	// floor faster than an open-loop run would show.
	Client ClientConfig

	// Admissions lists the candidate overload gates. An empty list
	// means one zero-valued entry: admit everything. With several entries
	// admission joins scheduler, fabric, and kv as a search axis — every
	// (scheduler, fabric, kv, admission) tuple is sized independently and
	// the cheapest feasible plan per Mtoken wins.
	Admissions []AdmissionConfig

	// Autoscale attaches the elastic control loop to every sizing
	// simulation (zero = all instances always live). An autoscaled plan
	// sizes the provisioned fleet; MeanLiveInstances in the plan's
	// metrics reports how much of it the control loop actually kept
	// unparked.
	Autoscale AutoscaleConfig

	// Straggler attaches the persistent slow-instance model to every
	// sizing simulation (zero = uniform instances), so the plan holds
	// on a fleet with realistic performance spread.
	Straggler StragglerConfig

	// PrefillGPUs and DecodeGPUs set the tensor-parallel degree per
	// instance; zero means the smallest degree the model fits on.
	// Colocated policies run one instance kind at the larger of the two
	// degrees (their instances must fit both phases).
	PrefillGPUs int
	DecodeGPUs  int

	// MaxPrefillBatch and MaxDecodeBatch default to 4 and 64.
	MaxPrefillBatch int
	MaxDecodeBatch  int

	// MaxInstances caps the search per pool — per phase pool for the
	// static policy, over the colocated instance count otherwise
	// (default 64).
	MaxInstances int

	// Failures, when Enabled, makes the plan availability-aware: the
	// sizing simulations run with failure injection (so accelerated
	// failure clocks genuinely influence attainment), and after the
	// instance-count search the planner binary-searches the smallest
	// per-pool hot-spare counts meeting SLO.MinAvailability, pricing the
	// spares into the TCO readout. FailureConfig.Spares/Pool overrides
	// are ignored here — spares are what the search decides.
	Failures FailureConfig
	// MaxSpares caps the spare search (default 16).
	MaxSpares int

	// Workers caps the planner's worker pool (0 = GOMAXPROCS, 1 =
	// sequential). Candidate policies are sized concurrently, and within
	// each policy the doubling phase probes up to Workers ladder points
	// speculatively per round. The chosen plan is byte-identical at any
	// worker count: speculation only changes how many candidates are
	// simulated, never which one is selected.
	Workers int

	// Trace, when non-nil, receives the planner's decision record: one
	// obs.PlanCandidate per (scheduler, fabric, kv, admission)
	// combination in enumeration order, carrying every sizing rung the
	// search walked (doubling-ladder probes plus refinement steps, in
	// the order the equivalent sequential search would have tried them),
	// the deployment the search chose, and why the candidate won or
	// lost. A sizing run stops as soon as it can no longer meet the SLO
	// (see runPool); its rung records that time as SettledAt, and its
	// attainments and counts are as of then, not of the horizon. The
	// trace is deterministic at any worker count: speculative ladder
	// points that the sequential search would never have reached are
	// evaluated but not recorded.
	Trace *obs.PlanTrace
}

// Plan is a feasible deployment returned by PlanCapacity.
type Plan struct {
	// Config is the winning deployment; Config.Scheduler names the
	// policy that won when several were in the running.
	Config  Config
	Metrics Metrics
	// TotalGPUs is the full accelerator count across the deployment,
	// including hot spares when the plan is availability-aware.
	TotalGPUs int
	// Spares is the hot-spare unit count the availability search added
	// (zero when failure injection is off). Spares are shared across
	// the deployment's instances — they are interchangeable units of
	// the same GPU type.
	Spares int
	// Availability is the analytic steady-state availability of the
	// spared deployment: the probability that no more units are down
	// than there are spares. 1 when failure injection is off.
	Availability float64
	// Fabric names the network topology the plan is priced over (and,
	// when the request put the fabric in the loop, simulated on) at the
	// deployment's scale — e.g. "clos-2t(24)". Config.Network carries
	// the design choice itself.
	Fabric string
	// Cost is the TCO breakdown of the deployment at the simulated
	// sustained throughput, over the plan's fabric; its CostPerMTokens
	// field is the $/Mtoken readout.
	Cost tco.Breakdown
}

// PlanCapacity answers the operator's sizing question: how many
// instances of the given GPU does it take to serve the workload at its
// arrival rate while meeting the SLO attainment targets — and, when
// the request's axis lists (Schedulers, Fabrics, KVPolicies,
// Admissions) hold several entries, which combination does it
// cheapest? An empty axis list means one zero-valued entry.
//
// For the static policy it doubles both phase pools until the
// deployment is feasible, then binary-searches each pool down
// independently (prefill first, against a generous decode pool; then
// decode, against the chosen prefill pool) — attainment is monotone in
// each pool size, which makes the bisection sound. Colocated policies
// search their single instance-count dimension the same way. Every
// candidate plan is priced through the TCO model; with several
// candidate policies the cheapest feasible plan per simulated Mtoken
// wins.
func PlanCapacity(req PlanRequest, slo SLO) (Plan, error) {
	slo = slo.withDefaults()
	req, err := req.withDefaults()
	if err != nil {
		return Plan{}, err
	}

	reqs, err := req.Workload.Generate(req.Horizon)
	if err != nil {
		return Plan{}, err
	}
	if len(reqs) == 0 {
		return Plan{}, fmt.Errorf("serve: workload generated no requests over %v", req.Horizon)
	}
	simHorizon := req.Horizon + req.Drain

	// Candidates are sized concurrently over the shared worker pool; an
	// infeasible candidate is a per-candidate outcome, not a search
	// failure, so errors ride inside the result instead of cancelling
	// siblings. Selection stays sequential in enumeration order — the
	// cheapest feasible plan per Mtoken wins, first-listed on ties — so
	// the answer is byte-identical at any worker count.
	cands := req.candidates()
	if req.Trace != nil {
		// Pre-size the trace so each candidate's sizing goroutine owns
		// its slot — concurrent planPolicy calls never share a record.
		req.Trace.Candidates = make([]obs.PlanCandidate, len(cands))
		for i, c := range cands {
			tc := &req.Trace.Candidates[i]
			tc.Scheduler = c.pol.String()
			if c.nc.Enabled() {
				tc.Fabric = c.nc.String()
			}
			if c.kvc.Enabled() {
				tc.KV = c.kvc.String()
			}
			if c.adm.Policy != AdmitAll {
				tc.Admission = fmt.Sprintf("%s(limit=%d)", c.adm.Policy, c.adm.QueueLimit)
			}
		}
	}
	// Split the worker budget between the two nesting levels so total
	// concurrency stays ~Workers: candWorkers candidates in flight,
	// each probing waveWorkers ladder points per doubling round.
	workers := planWorkers(req)
	candWorkers := min(workers, len(cands))
	waveWorkers := max(1, workers/candWorkers)
	type polOutcome struct {
		plan Plan
		err  error
	}
	outcomes, err := sweep.RunN(context.Background(), candWorkers, cands,
		func(_ context.Context, i int, c planCandidate) (polOutcome, error) {
			var tc *obs.PlanCandidate
			if req.Trace != nil {
				tc = &req.Trace.Candidates[i]
			}
			plan, perr := planPolicy(req, slo, c, reqs, simHorizon, waveWorkers, tc)
			return polOutcome{plan: plan, err: perr}, nil
		})
	if err != nil {
		return Plan{}, err
	}
	var best Plan
	var bestOK bool
	var bestIdx int
	var firstErr error
	for i, o := range outcomes {
		if o.err != nil {
			if firstErr == nil {
				firstErr = o.err
			}
			continue
		}
		if !bestOK || o.plan.Cost.CostPerMTokens < best.Cost.CostPerMTokens {
			best = o.plan
			bestOK = true
			bestIdx = i
		}
	}
	if req.Trace != nil {
		for i := range outcomes {
			o := &outcomes[i]
			tc := &req.Trace.Candidates[i]
			if o.err != nil {
				tc.Feasible = false
				tc.Reason = o.err.Error()
				continue
			}
			tc.Feasible = true
			p := o.plan
			if p.Config.Scheduler.Colocated() {
				tc.PrefillInstances = p.Config.Instances
			} else {
				tc.PrefillInstances = p.Config.PrefillInstances
				tc.DecodeInstances = p.Config.DecodeInstances
			}
			tc.Spares = p.Spares
			tc.TotalGPUs = p.TotalGPUs
			if req.Failures.Enabled {
				tc.Availability = p.Availability
			}
			tc.CostPerMTok = float64(p.Cost.CostPerMTokens)
			if bestOK && i == bestIdx {
				tc.Winner = true
				tc.Reason = fmt.Sprintf("won: cheapest feasible plan at $%.2f/Mtok", p.Cost.CostPerMTokens)
			} else if bestOK {
				tc.Reason = fmt.Sprintf("feasible but $%.2f/Mtok loses to winner's $%.2f/Mtok",
					p.Cost.CostPerMTokens, best.Cost.CostPerMTokens)
			}
		}
	}
	if !bestOK {
		return Plan{}, firstErr
	}
	return best, nil
}

// withDefaults fills the request's unset sizes and limits, resolving
// zero tensor-parallel degrees to the smallest the model fits on.
func (req PlanRequest) withDefaults() (PlanRequest, error) {
	if req.Horizon <= 0 {
		req.Horizon = 300
	}
	if req.Drain <= 0 {
		req.Drain = 120
	}
	if req.MaxPrefillBatch <= 0 {
		req.MaxPrefillBatch = 4
	}
	if req.MaxDecodeBatch <= 0 {
		req.MaxDecodeBatch = 64
	}
	if req.MaxInstances <= 0 {
		req.MaxInstances = 64
	}
	if req.MaxSpares <= 0 {
		req.MaxSpares = 16
	}
	if req.PrefillGPUs <= 0 {
		g, err := inference.MinFeasibleTP(req.GPU, req.Model, inference.Prefill, req.Opts)
		if err != nil {
			return req, err
		}
		req.PrefillGPUs = g
	}
	if req.DecodeGPUs <= 0 {
		g, err := inference.MinFeasibleTP(req.GPU, req.Model, inference.Decode, req.Opts)
		if err != nil {
			return req, err
		}
		req.DecodeGPUs = g
	}
	return req, nil
}

// planCandidate is one point of the planner's search axes.
type planCandidate struct {
	pol SchedulerPolicy
	nc  NetworkConfig
	kvc kv.Config
	adm AdmissionConfig
}

// candidates enumerates the request's search axes: policies outer,
// then fabrics, KV policies and admission gates.
func (req PlanRequest) candidates() []planCandidate {
	var cands []planCandidate
	for _, pol := range orZero(req.Schedulers) {
		for _, nc := range orZero(req.Fabrics) {
			for _, kvc := range orZero(req.KVPolicies) {
				for _, adm := range orZero(req.Admissions) {
					cands = append(cands, planCandidate{pol: pol, nc: nc, kvc: kvc, adm: adm})
				}
			}
		}
	}
	return cands
}

// sizing returns the candidate's deployment config at p prefill and d
// decode instances; colocated policies take p as their instance count
// and ignore d. The fabric, the kv config, the candidate's admission
// gate and the request's closed-loop client, autoscaler and straggler
// settings all ride inside it. Colocated policies derive InstanceGPUs
// = max(PrefillGPUs, DecodeGPUs) from it (an instance must fit both
// phases).
func (c planCandidate) sizing(req PlanRequest, p, d int) Config {
	cfg := Config{
		GPU: req.GPU, Model: req.Model, Opts: req.Opts,
		Scheduler:    c.pol,
		PrefillChunk: req.PrefillChunk,
		PrefillGPUs:  req.PrefillGPUs, DecodeGPUs: req.DecodeGPUs,
		MaxPrefillBatch: req.MaxPrefillBatch, MaxDecodeBatch: req.MaxDecodeBatch,
		Network:   c.nc,
		KV:        c.kvc,
		Client:    req.Client,
		Admission: c.adm,
		Autoscale: req.Autoscale,
		Straggler: req.Straggler,
	}
	if c.pol.Colocated() {
		cfg.Instances = p
	} else {
		cfg.PrefillInstances, cfg.DecodeInstances = p, d
	}
	return cfg
}

// orZero is the planner's axis rule: an empty list means one
// zero-valued entry.
func orZero[T any](axis []T) []T {
	if len(axis) == 0 {
		return make([]T, 1)
	}
	return axis
}

// planWorkers resolves the planner's worker-pool size.
func planWorkers(req PlanRequest) int {
	if req.Workers > 0 {
		return req.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// planPolicy sizes one candidate's cheapest feasible deployment,
// probing up to waveWorkers doubling-ladder points concurrently. The
// candidate's fabric rides inside every sizing simulation (zero = the
// historical infinite fabric) and prices the final plan; its kv config
// rides inside every sizing simulation too (zero = the historical
// infinite-memory decode), as do its admission gate and the request's
// closed-loop client, autoscaler, and straggler settings. When tc is
// non-nil the search appends one obs.PlanRung per sizing decision it
// makes — only the rungs the equivalent sequential search would have
// walked, so the record is identical at any worker count.
func planPolicy(req PlanRequest, slo SLO, c planCandidate, reqs []trace.Request, simHorizon units.Seconds, waveWorkers int, tc *obs.PlanCandidate) (Plan, error) {
	// evalPoint runs one candidate deployment — a discrete-event
	// simulation of the request stream that settles as soon as it can
	// no longer meet the SLO (see runPool) — and grades it. A settled
	// run is infeasible by construction: its metrics stop at the settle
	// time and are not graded, since attainment over the arrivals seen
	// so far can read above the target even when the final value
	// cannot. evalPoint is pure (no shared state), so the doubling
	// phase can probe several points concurrently.
	type attemptResult struct {
		run poolRun
		ok  bool
	}
	evalPoint := func(p, d int) (attemptResult, error) {
		run, err := planSim(c.sizing(req, p, d), req, 0, reqs, simHorizon, &slo)
		if err != nil {
			return attemptResult{}, err
		}
		return attemptResult{run: run, ok: !run.settled && slo.met(run.m)}, nil
	}

	// rung records one sizing decision in the candidate's trace.
	rung := func(p, d int, r attemptResult, refine bool) {
		if tc == nil {
			return
		}
		m := &r.run.m
		g := obs.PlanRung{
			Prefill: p, Decode: d, Refine: refine,
			TTFTAttainment: m.TTFTAttainment,
			TBTAttainment:  m.TBTAttainment,
			Completed:      m.Completed,
			Arrived:        m.Arrived,
			Feasible:       r.ok,
		}
		if r.run.settled {
			g.SettledAt = r.run.settledAt
		}
		tc.Rungs = append(tc.Rungs, g)
	}

	// attempt memoizes evalPoint on the pool sizes: the growth phase,
	// the bisections, and the final joint check can revisit a point.
	// Every attempt call is a refinement decision — memoized or not —
	// so each records a rung; attempt only runs on the sequential
	// search spine, never inside speculative goroutines.
	tried := make(map[[2]int]attemptResult)
	attempt := func(p, d int) (Metrics, bool, error) {
		if r, seen := tried[[2]int{p, d}]; seen {
			rung(p, d, r, true)
			return r.run.m, r.ok, nil
		}
		r, err := evalPoint(p, d)
		if err != nil {
			return Metrics{}, false, err
		}
		tried[[2]int{p, d}] = r
		rung(p, d, r, true)
		return r.run.m, r.ok, nil
	}

	// Grow until feasible, probing the doubling ladder speculatively:
	// each round evaluates up to waveWorkers upcoming ladder points
	// concurrently, then scans them in ladder order — so the point
	// chosen (the first feasible one) is exactly what the sequential
	// doubling loop would have picked, at any worker count. The
	// colocated policies fix d at 1 and only grow their single
	// instance-count dimension.
	var ladder [][2]int
	for v := 1; ; {
		dd := 1
		if !c.pol.Colocated() {
			dd = v
		}
		ladder = append(ladder, [2]int{v, dd})
		if v >= req.MaxInstances {
			break
		}
		v = min(v*2, req.MaxInstances)
	}
	grown := -1
	for lo := 0; lo < len(ladder) && grown < 0; lo += waveWorkers {
		hi := min(lo+waveWorkers, len(ladder))
		wave := ladder[lo:hi]
		type waveOut struct {
			r   attemptResult
			err error
		}
		outs, err := sweep.RunN(context.Background(), waveWorkers, wave,
			func(_ context.Context, _ int, pt [2]int) (waveOut, error) {
				r, perr := evalPoint(pt[0], pt[1])
				return waveOut{r: r, err: perr}, nil
			})
		if err != nil {
			return Plan{}, err
		}
		// Scan in ladder order: an error only surfaces if no smaller
		// point was feasible — the same point the sequential loop would
		// have tripped on; errors past the first feasible point belong
		// to speculative work the sequential loop never ran, and are
		// discarded. Successful speculative points land in the memo for
		// the bisections below.
		for i, o := range outs {
			if o.err != nil {
				if grown < 0 {
					return Plan{}, o.err
				}
				continue
			}
			tried[wave[i]] = o.r
			if grown < 0 {
				// Still climbing: this is a point the sequential doubling
				// loop would have evaluated, so it earns a trace rung.
				rung(wave[i][0], wave[i][1], o.r, false)
			}
			if o.r.ok && grown < 0 {
				grown = lo + i
			}
		}
	}
	if grown < 0 {
		return Plan{}, fmt.Errorf(
			"serve: no deployment within %d instances per pool meets the SLO for %s on %s at %.2f req/s (%s scheduler)",
			req.MaxInstances, req.Model.Name, req.GPU.Name, req.Workload.Rate, c.pol)
	}
	p, d := ladder[grown][0], ladder[grown][1]

	// Shrink each dimension down to its minimum (for static: prefill
	// against the feasible decode pool, then decode against the minimal
	// prefill pool).
	pMin, err := bisectMin(1, p, func(x int) (bool, error) {
		_, ok, err := attempt(x, d)
		return ok, err
	})
	if err != nil {
		return Plan{}, err
	}
	dMin := d
	if !c.pol.Colocated() {
		dMin, err = bisectMin(1, d, func(x int) (bool, error) {
			_, ok, err := attempt(pMin, x)
			return ok, err
		})
		if err != nil {
			return Plan{}, err
		}
	}
	// The joint minimum is a memoized feasible pass, so this call only
	// records its trace rung. bisectMin returns its upper bound or a
	// point it evaluated as feasible, so (pMin, d) is the grown point or
	// a feasible probe; the static decode bisection is bounded by that
	// pass, and the colocated policies keep dMin = d.
	m, _, err := attempt(pMin, dMin)
	if err != nil {
		return Plan{}, err
	}

	cfg := c.sizing(req, pMin, dMin)
	plan := Plan{
		Config:       cfg,
		Metrics:      m,
		TotalGPUs:    cfg.TotalGPUs(),
		Availability: 1,
	}

	// Availability-aware leg: the spare count joins the search. Spares
	// are extra units of the same GPU type kept hot next to the
	// deployment, so availability is monotone in the spare count and a
	// bisection over the analytic k-out-of-n availability is sound.
	if req.Failures.Enabled {
		spec := failure.Spec{GPU: req.GPU, InstanceGPUs: plan.TotalGPUs}
		fp := scaledParams(req.Failures)
		availAt := func(spares int) float64 {
			spec.Spares = spares
			return failure.AnalyticAvailability(spec, fp)
		}
		if availAt(req.MaxSpares) < slo.MinAvailability {
			return Plan{}, fmt.Errorf(
				"serve: %d spares cannot reach availability %.6f for %d×%s (best %.6f)",
				req.MaxSpares, slo.MinAvailability, plan.TotalGPUs, req.GPU.Name, availAt(req.MaxSpares))
		}
		spares, err := bisectMin(0, req.MaxSpares, func(x int) (bool, error) {
			return availAt(x) >= slo.MinAvailability, nil
		})
		if err != nil {
			return Plan{}, err
		}
		plan.Spares = spares
		plan.Availability = availAt(spares)
		plan.TotalGPUs += spares
		// Re-simulate the final deployment with its spare shelf so the
		// reported metrics include the takeover dynamics. The shelf is
		// only read inside failInstance and repairDone, so when the
		// zero-spare sizing run saw no failure it already is the run at
		// any spare count and is kept as is.
		if m.FailureEvents > 0 {
			final, err := planSim(plan.Config, req, spares, reqs, simHorizon, nil)
			if err != nil {
				return Plan{}, err
			}
			plan.Metrics = final.m
		}
	}

	// Price the plan over its own fabric, built at the deployment's
	// actual scale — the fix for the historical hard-coded
	// Clos(CoPackagedOptics, PacketSwitch) that priced every plan the
	// same way regardless of size or request. A fabric that cannot
	// physically cable the deployment (copper reach at cluster scale)
	// disqualifies the candidate.
	fabric := c.nc.TCOTopology(plan.TotalGPUs)
	if c.nc.Enabled() && !fabric.Feasible() {
		return Plan{}, fmt.Errorf(
			"serve: fabric %s (%s) cannot cable %d×%s — %s reach %.0f m < required %.0f m",
			c.nc, fabric.Name, plan.TotalGPUs, req.GPU.Name,
			fabric.Link.Name, fabric.Link.Reach, network.RequiredReach(plan.TotalGPUs))
	}
	plan.Fabric = fabric.Name
	costs := tco.DefaultCosts()
	throughput := float64(plan.Metrics.TokensGenerated) / float64(simHorizon)
	plan.Cost = costs.TCO(tco.ClusterSpec{
		GPU:        req.GPU,
		GPUs:       plan.TotalGPUs,
		Fabric:     fabric,
		Throughput: throughput,
	})
	return plan, nil
}

// planSim simulates one candidate deployment, with failure injection
// when the request enables it. Sizing runs use zero spares (the spare
// count is chosen after the instance search), keeping the attainment
// estimate conservative, and pass their SLO as the verdict budget; the
// final spare-count run passes nil and always reaches the horizon.
func planSim(cfg Config, req PlanRequest, spares int, reqs []trace.Request, horizon units.Seconds, budget *SLO) (poolRun, error) {
	f := req.Failures
	f.Spares = spares
	return runPool(cfg, f, reqs, horizon, budget)
}

// scaledParams applies the failure config's TimeScale to the analytic
// calibration, so an accelerated stress plan sizes spares for the same
// accelerated world its simulations ran in.
func scaledParams(f FailureConfig) failure.Params {
	p := f.params()
	ts := f.timeScale()
	p.RefAFR *= ts
	p.BaseAFR *= ts
	return p
}

// bisectMin returns the smallest x in [lo, hi] with ok(x) true, assuming
// ok is monotone non-decreasing and ok(hi) is true.
func bisectMin(lo, hi int, ok func(int) (bool, error)) (int, error) {
	for lo < hi {
		mid := lo + (hi-lo)/2
		good, err := ok(mid)
		if err != nil {
			return 0, err
		}
		if good {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}
