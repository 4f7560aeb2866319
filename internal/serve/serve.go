// Package serve is a discrete-event simulator of LLM serving on GPU
// clusters, built on the shared internal/sim event engine, with a
// pluggable scheduling discipline per pool (see SchedulerPolicy):
//
//   - StaticDisaggregated: Splitwise-style phase splitting — dedicated
//     prefill engines batch incoming prompts, dedicated decode engines
//     run continuous batching over active generations (the deployment
//     style the paper's case study assumes when it evaluates the two
//     phases on separate clusters).
//   - ContinuousBatching: colocated prefill+decode instances in the
//     vLLM/Orca style — finished requests free batch slots that are
//     refilled from the queue every iteration.
//   - ChunkedPrefill: continuous batching with Sarathi-style chunking —
//     long prompts are split into fixed-size chunks fused with decode
//     steps, bounding time-between-token stalls.
//
// The simulator consumes the same analytical stage model the Figure 3
// study uses (internal/inference), so it cross-validates the roofline
// numbers under queueing, mixed request lengths, and bursty arrivals —
// and exposes the latency SLO attainment the closed-form search cannot
// see.
//
// Cluster-level scenarios compose with every scheduler: GPU failures
// that kill an instance mid-run (driven by internal/failure rates, with
// hot spares and repair delays — see FailureConfig), heterogeneous
// instance pools serving one trace behind a pluggable router
// (RunCluster), and the capacity planner (PlanCapacity), which sizes
// the cheapest deployment — across scheduling policies, when asked —
// that meets the SLO attainment targets.
package serve

import (
	"fmt"
	"math"

	"litegpu/internal/hw"
	"litegpu/internal/inference"
	"litegpu/internal/kv"
	"litegpu/internal/mathx"
	"litegpu/internal/model"
	"litegpu/internal/trace"
	"litegpu/internal/units"
)

// Config describes one serving pool: a homogeneous deployment of a
// single GPU type running one scheduling policy.
type Config struct {
	GPU   hw.GPU
	Model model.Transformer
	Opts  inference.Options

	// Scheduler selects the pool's serving discipline. The zero value
	// is StaticDisaggregated, the paper's phase-split deployment.
	Scheduler SchedulerPolicy

	// PrefillInstances×PrefillGPUs and DecodeInstances×DecodeGPUs size
	// the two pools of the static phase-split policy (GPUs per instance
	// is the tensor-parallel degree). The colocated policies derive
	// their shape from these fields unless Instances/InstanceGPUs are
	// set explicitly.
	PrefillInstances int
	PrefillGPUs      int
	DecodeInstances  int
	DecodeGPUs       int

	// Instances and InstanceGPUs size a colocated deployment
	// (ContinuousBatching or ChunkedPrefill): Instances TP groups of
	// InstanceGPUs each, every one serving both phases. When zero they
	// derive from the phase-split fields — InstanceGPUs =
	// max(PrefillGPUs, DecodeGPUs), since a colocated instance must fit
	// both phases, and Instances = TotalGPUs/InstanceGPUs (floor) —
	// i.e. the same silicon reshaped into colocated engines, which is
	// what makes equal-hardware policy comparisons one-field changes.
	// Ignored by StaticDisaggregated.
	Instances    int
	InstanceGPUs int

	// PrefillChunk is the chunk size in prompt tokens for the
	// ChunkedPrefill scheduler (default 512). Ignored by the others.
	PrefillChunk int

	// MaxPrefillBatch caps how many prompts one prefill pass fuses.
	MaxPrefillBatch int
	// MaxDecodeBatch caps continuous-batching occupancy (further capped
	// by KV-cache capacity). For colocated schedulers it bounds the
	// whole per-instance batch: decoding plus admitted-but-unprefilled
	// requests.
	MaxDecodeBatch int

	// Network puts the interconnect fabric inside the event loop. The
	// zero value is the historical infinite fabric: KV-cache handoff
	// between the static policy's phase pools is instantaneous and
	// routing is free. With a fabric selected, inter-node handoffs are
	// simulated on internal/netsim — they occupy port bandwidth,
	// contend with each other, and pay switch path latency — and the
	// Metrics gain transfer statistics. In a multi-pool cluster the
	// fabric is cluster-wide; see ClusterConfig.Network.
	Network NetworkConfig

	// KV puts KV-cache memory inside the event loop. The zero value is
	// the historical infinite-memory behavior: admission is bounded by
	// the batch caps alone and no blocks are tracked. With a policy
	// selected, every decode-capable instance owns a paged block
	// allocator sized from its HBM net of model weights (internal/kv);
	// admission is gated by free blocks, decode growth claims a block
	// per BlockTokens generated tokens, exhaustion preempts (recompute
	// re-runs prefill; swap rides the fabric), and prefix caching
	// shares ref-counted blocks across requests that declare a common
	// prefix. The Metrics gain KV statistics.
	KV kv.Config

	// Client closes the serving loop (PR 9): per-request deadlines,
	// retries with capped exponential backoff plus seeded jitter, and
	// abandonment, per tenant class. The zero value is the historical
	// open loop — no request ever times out.
	Client ClientConfig

	// Admission is the pool's load-shedding gate. The zero value admits
	// every arrival, however deep the backlog.
	Admission AdmissionConfig

	// Autoscale runs an elastic control loop over the pool's instances:
	// parked capacity unparks under load after a cold-start warm-up and
	// drains back when load falls. The zero value keeps the provisioned
	// fleet always on.
	Autoscale AutoscaleConfig

	// Straggler plants persistently slow instances: each draws one
	// step-time stretch factor from the jitter distribution at
	// construction. The zero value leaves every instance nominal.
	Straggler StragglerConfig
}

// ColocatedShape returns the instance count and per-instance GPU
// degree a colocated scheduler runs this configuration at: the explicit
// Instances/InstanceGPUs when set, otherwise the phase-split silicon
// reshaped — per-instance degree max(PrefillGPUs, DecodeGPUs), because
// a colocated instance must fit both phases, and instance count
// TotalGPUs/degree rounded down. Meaningful only when
// Scheduler.Colocated().
func (c Config) ColocatedShape() (instances, gpus int) {
	gpus = c.InstanceGPUs
	if gpus <= 0 {
		gpus = max(c.PrefillGPUs, c.DecodeGPUs)
	}
	instances = c.Instances
	if instances <= 0 && gpus > 0 {
		instances = (c.PrefillInstances*c.PrefillGPUs + c.DecodeInstances*c.DecodeGPUs) / gpus
	}
	return instances, gpus
}

// instanceCount returns how many failable instances the pool runs under
// its scheduler — the quantity the per-pool priority-band cap bounds.
func (c Config) instanceCount() int {
	if c.Scheduler.Colocated() {
		n, _ := c.ColocatedShape()
		return n
	}
	return c.PrefillInstances + c.DecodeInstances
}

// phaseShape is how a pool's instances map onto the two metric
// phases: the utilization denominators and the per-instance GPU degrees
// used to weight busy-time across heterogeneous pools.
type phaseShape struct {
	prefillInstances, prefillGPUs int
	decodeInstances, decodeGPUs   int
}

// phaseShape returns the pool's phase mapping. Both phases of a
// colocated pool span its full instance set: its PrefillUtilization
// and DecodeUtilization are each the share of all-instance time spent
// in that phase (they sum to at most 1).
func (c Config) phaseShape() phaseShape {
	if c.Scheduler.Colocated() {
		n, g := c.ColocatedShape()
		return phaseShape{prefillInstances: n, prefillGPUs: g, decodeInstances: n, decodeGPUs: g}
	}
	return phaseShape{
		prefillInstances: c.PrefillInstances, prefillGPUs: c.PrefillGPUs,
		decodeInstances: c.DecodeInstances, decodeGPUs: c.DecodeGPUs,
	}
}

// scalable returns the [lo, hi) instance-id range the autoscaler may
// park and unpark: every instance of a colocated pool, the decode
// engines only of the static split. Its prefill capacity stays fixed:
// the split sizes it for ingest, and parking it would starve TTFT
// rather than save meaningful decode capacity.
func (c Config) scalable() (lo, hi int) {
	if c.Scheduler.Colocated() {
		n, _ := c.ColocatedShape()
		return 0, n
	}
	return c.PrefillInstances, c.PrefillInstances + c.DecodeInstances
}

// Validate reports the first configuration problem, or nil.
func (c Config) Validate() error {
	if err := c.GPU.Validate(); err != nil {
		return err
	}
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.MaxPrefillBatch <= 0 || c.MaxDecodeBatch <= 0 {
		return fmt.Errorf("serve: batch caps must be positive")
	}
	if err := c.Network.Validate(); err != nil {
		return err
	}
	if err := c.KV.Validate(); err != nil {
		return err
	}
	if err := c.Client.Validate(); err != nil {
		return err
	}
	if err := c.Admission.Validate(); err != nil {
		return err
	}
	if err := c.Autoscale.Validate(); err != nil {
		return err
	}
	if err := c.Straggler.Validate(); err != nil {
		return err
	}
	if c.Scheduler.Colocated() {
		n, g := c.ColocatedShape()
		switch {
		case g <= 0:
			return fmt.Errorf("serve: %s scheduler needs at least one GPU per instance", c.Scheduler)
		case n <= 0:
			return fmt.Errorf("serve: %s scheduler needs at least one instance", c.Scheduler)
		case c.PrefillChunk < 0:
			return fmt.Errorf("serve: negative prefill chunk %d", c.PrefillChunk)
		}
		return nil
	}
	switch {
	case c.PrefillInstances <= 0 || c.DecodeInstances <= 0:
		return fmt.Errorf("serve: need at least one instance per pool")
	case c.PrefillGPUs <= 0 || c.DecodeGPUs <= 0:
		return fmt.Errorf("serve: need at least one GPU per instance")
	}
	return nil
}

// TotalGPUs returns the accelerator count behind the configuration:
// both phase pools for the static policy, the colocated instance set
// otherwise.
func (c Config) TotalGPUs() int {
	if c.Scheduler.Colocated() {
		n, g := c.ColocatedShape()
		return n * g
	}
	return c.PrefillInstances*c.PrefillGPUs + c.DecodeInstances*c.DecodeGPUs
}

// Metrics summarizes a simulated serving run.
type Metrics struct {
	Arrived   int
	Completed int
	// Dropped counts requests rejected because their prompt's KV
	// footprint can never fit a prefill pass even in a batch of one —
	// without this they would starve in the prefill queue forever,
	// silently depressing utilization and inflating nothing.
	Dropped int
	// TTFT is time-to-first-token (arrival → prefill completion) over
	// completed-prefill requests, seconds.
	TTFT mathx.Summary
	// TBT is the mean time-between-tokens per completed request, seconds.
	TBT mathx.Summary
	// E2E is arrival → last token, seconds.
	E2E mathx.Summary
	// TTFTAttainment is the fraction of requests meeting the TTFT limit
	// over every request that arrived and was not dropped as oversized —
	// a request still stuck in the prefill queue at the horizon, or
	// killed by an instance failure before its first token, counts as a
	// miss. (The pre-PR-2 ratio divided by completed prefills only,
	// which flattered a saturated system whose backlog never produced a
	// sample; that legacy ratio survives as TTFTAttainmentCompleted.)
	//
	// Under client retries it can exceed 1. A request that gets its
	// first token, times out and retries records a second TTFT sample,
	// but Arrived counts first submissions only; an overloaded pool at
	// rate 300 with 8P+1D and Timeout 30, Retries 1 reads 1.64 (59,592
	// samples for 36,260 arrivals). ClassMetrics.TTFTAttainment has the
	// same caveat.
	TTFTAttainment float64
	// TTFTAttainmentCompleted is the legacy attainment over requests
	// that completed prefill within the horizon. Kept for studies that
	// want conditional latency quality rather than end-to-end goodput.
	TTFTAttainmentCompleted float64
	// TBTAttainment is the fraction of completed requests meeting the
	// TBT limit.
	TBTAttainment float64
	// PrefillUtilization and DecodeUtilization are busy-time fractions.
	// Under a colocated scheduler both are measured over the full
	// instance set (each instance splits its time between the phases),
	// so they sum to at most 1.
	PrefillUtilization float64
	DecodeUtilization  float64
	// TokensGenerated counts decoded tokens, including tokens of
	// requests that never complete within the horizon.
	TokensGenerated int

	// The remaining fields are failure-aware serving metrics (PR 2).
	// With failure injection off they hold their ideal values
	// (Availability 1, zero events).

	// FailureEvents counts instance-killing GPU failures.
	FailureEvents int
	// Requeued counts in-flight requests returned to their pool's queue
	// after their instance died (RequeueOnFailure policy); one request
	// can requeue more than once.
	Requeued int
	// DroppedOnFailure counts in-flight requests abandoned when their
	// instance died (DropOnFailure policy). Not included in Dropped.
	DroppedOnFailure int
	// Availability is the time-averaged fraction of nominal GPU
	// capacity in service over the horizon — the serving-level
	// counterpart of failure.Result.Availability.
	Availability float64
	// Goodput is output tokens of completed requests per simulated
	// second: throughput that survived queueing, drops, and failures.
	Goodput float64
	// BlastRadius is the expected fraction of the deployment's GPU
	// capacity one instance failure removes (GPU-weighted over
	// instances) — the quantity the paper argues Lite-GPUs shrink. It
	// is structural, so it is reported even when no failure fired.
	BlastRadius float64

	// The remaining fields are network-in-the-loop metrics (PR 5).
	// With Config.Network zeroed they hold their zero values, which the
	// golden corpora pin.

	// NetTransfers counts delivered fabric transfers: inter-node
	// KV-cache handoffs plus, in multi-pool clusters, routed-arrival
	// ingress transfers. Intra-node handoffs ride the scale-up
	// interconnect and are not counted.
	NetTransfers int
	// TransferBytes summarizes per-transfer payload sizes (bytes).
	TransferBytes mathx.Summary
	// TransferTime summarizes per-transfer in-fabric seconds: circuit
	// queueing, serialization under contention, and path latency. A
	// handoff that retransmits after its destination instance fails
	// keeps its original start, so retries show up as tail latency.
	TransferTime mathx.Summary
	// NetworkBoundFraction is total in-fabric seconds over total
	// end-to-end seconds of completed requests — the share of the
	// pool's delivered latency that the fabric contributed. It is an
	// aggregate ratio over the whole run, not a per-request mean.
	NetworkBoundFraction float64

	// The remaining fields are KV-memory metrics (PR 8). With Config.KV
	// zeroed they hold their zero values, which the golden corpora pin.

	// KVPreemptions counts sequences evicted from a decode batch because
	// their instance ran out of KV blocks mid-generation.
	KVPreemptions int
	// KVCacheHitRate is prefix-cache block hits over prefix-cache block
	// lookups at admission — an aggregate ratio over the run, zero when
	// prefix caching is off or no request declared a shared prefix.
	KVCacheHitRate float64
	// KVPeakBlocks is the high-water mark of blocks in use across a
	// pool's instances. The cluster total sums pool peaks (pools peak
	// at different times, so it bounds the cluster-wide peak from
	// above).
	KVPeakBlocks int
	// KVMeanBlocks is the time-averaged number of blocks in use over the
	// horizon, summed across instances and, in the total, across pools.
	KVMeanBlocks float64
	// KVRecomputeTokens counts tokens re-prefetched through prefill
	// because a preempted sequence's KV was discarded (Recompute
	// policy). Pure overhead: these passes occupy prefill capacity but
	// stamp no TTFT and generate no output.
	KVRecomputeTokens int

	// The remaining fields are closed-loop overload metrics (PR 9). With
	// Config.Client, Admission, Autoscale, and Straggler zeroed they hold
	// their zero values, which the golden corpora pin.

	// ClientTimeouts counts client deadline expiries; one request can
	// time out on several attempts.
	ClientTimeouts int
	// ClientRetries counts retries booked after a timeout or a shed,
	// including retries whose backoff ends past the horizon and so
	// never resubmit.
	ClientRetries int
	// Abandoned counts requests whose client gave up for good after
	// exhausting its retries. Not included in Dropped.
	Abandoned int
	// Shed counts arrivals (and retries) rejected by admission control.
	// Shed requests are counted in Arrived but can never complete.
	Shed int
	// ScaleUps and ScaleDowns count autoscaler actions (per instance,
	// not per control tick).
	ScaleUps   int
	ScaleDowns int
	// MeanLiveInstances is the time-averaged unparked instance count
	// under autoscaling; zero when the autoscaler is off. The cluster
	// total sums autoscaled pools only: a pool that does not scale
	// contributes 0, not its instance count. Utilization fields stay
	// normalized by the provisioned fleet — parked silicon is still
	// paid for.
	MeanLiveInstances float64
	// UsefulGoodput is Goodput restricted to completions a client would
	// have waited for: output tokens of requests finishing within their
	// class's Client timeout, per second. Equal to Goodput when no
	// timeout is configured, and (by construction) when deadlines are
	// enforced; under ClientConfig.ObserveOnly it is the open-loop
	// baseline's deadline-qualified goodput.
	UsefulGoodput float64
	// Classes breaks the run down per tenant class, reported when
	// Client.Classes or admission control is configured; nil otherwise.
	Classes []ClassMetrics
}

// Run simulates serving the request stream until the horizon, with no
// failure injection. Requests still in flight at the horizon are not
// counted as completed. It is the single-pool special case of
// RunCluster; with the default StaticDisaggregated scheduler it
// reproduces the pre-scheduler-interface event loop byte-for-byte.
func Run(cfg Config, reqs []trace.Request, horizon units.Seconds) (Metrics, error) {
	return RunWithFailures(cfg, FailureConfig{}, reqs, horizon)
}

// RunWithFailures simulates a single pool under the given failure
// config (the zero value disables injection, making it Run). It and the
// planner's sizing runs share one runner, runPool, so single-pool
// semantics live in one place.
func RunWithFailures(cfg Config, f FailureConfig, reqs []trace.Request, horizon units.Seconds) (Metrics, error) {
	r, err := runPool(cfg, f, reqs, horizon, nil)
	return r.m, err
}

// poolRun is the outcome of one runPool call.
type poolRun struct {
	m Metrics
	// settled reports that the verdict budget stopped the run at
	// settledAt simulated seconds; m then holds counts as of that time.
	settled   bool
	settledAt float64
	// ttftRule reports whether the budget's TTFT rule was armed.
	ttftRule bool
}

// runPool simulates a single pool over a materialized trace. A nil
// budget runs to the horizon. A sizing run passes the SLO it is graded
// against as budget, and the run then settles (stops) as soon as its
// verdict can no longer be a pass:
//
//   - on the first Dropped request, since a plan must drop none;
//   - once its TTFT misses exceed what budget.TTFTAttainment allows
//     over the N arrivals the trace holds within the horizon. A miss
//     is final and every arrival that records no sample is a miss too,
//     so the final attainment can only be lower. This needs each
//     arrival to record at most one TTFT sample, which a client retry
//     breaks, so the rule is armed only when no client class retries.
//
// A settled run's metrics are partial and must not be graded; the
// caller treats it as infeasible.
func runPool(cfg Config, f FailureConfig, reqs []trace.Request, horizon units.Seconds, budget *SLO) (poolRun, error) {
	cc := ClusterConfig{
		Pools:    []Pool{{Name: cfg.GPU.Name, Config: cfg}},
		Failures: f,
	}
	if err := cc.Validate(); err != nil {
		return poolRun{}, err
	}
	s, err := newClusterSim(cc, float64(horizon))
	if err != nil {
		return poolRun{}, err
	}
	p := s.pools[0]
	var r poolRun
	if budget != nil {
		r.ttftRule = p.armBudget(reqs, horizon, *budget)
	}
	cm, err := s.run(reqs)
	if err != nil {
		return poolRun{}, err
	}
	r.m = cm.Pools[0].Metrics
	r.settled, r.settledAt = p.settled, p.settledAt
	return r, nil
}

// armBudget arms the pool's verdict budget for a sizing run over reqs
// to the horizon (see runPool), and reports whether the TTFT rule is
// armed.
func (p *poolSim) armBudget(reqs []trace.Request, horizon units.Seconds, budget SLO) bool {
	p.settleOnDrop = true
	if n := arrivalsWithin(reqs, horizon); n > 0 && !p.cfg.Client.canRetry() {
		p.ttftMissLeft = missAllowance(n, budget.TTFTAttainment)
		return true
	}
	return false
}

// arrivalsWithin counts the requests arriving at or before the horizon:
// the Arrived count of a run that reaches it.
func arrivalsWithin(reqs []trace.Request, horizon units.Seconds) int {
	n := 0
	for _, r := range reqs {
		if r.Arrival <= horizon {
			n++
		}
	}
	return n
}

// missAllowance returns the most TTFT misses out of n arrivals that
// still let attainment float64(n-misses)/float64(n) reach target, or
// -1 when none do. The estimate is corrected against that exact
// expression, so the budget agrees with the planner's own comparison.
func missAllowance(n int, target float64) int {
	meets := func(misses int) bool { return float64(n-misses)/float64(n) >= target }
	k := min(max(int(float64(n)*(1-target)), -1), n)
	for k < n && meets(k+1) {
		k++
	}
	for k >= 0 && !meets(k) {
		k--
	}
	return k
}

// RunFrom is Run over a lazy request source (see RunClusterFrom):
// arrivals stream in on demand and only the in-flight working set is
// held, making horizon×rate products with millions of requests
// practical in constant memory.
func RunFrom(cfg Config, src RequestSource, horizon units.Seconds) (Metrics, error) {
	cm, err := RunClusterFrom(ClusterConfig{
		Pools: []Pool{{Name: cfg.GPU.Name, Config: cfg}},
	}, src, horizon)
	if err != nil {
		return Metrics{}, err
	}
	return cm.Pools[0].Metrics, nil
}

func pickSLO(v units.Seconds, def units.Seconds) units.Seconds {
	if v > 0 {
		return v
	}
	return def
}

// kvBlocksPerInstance sizes one decode-capable instance's paged KV
// allocator at tensor-parallel degree gpus: HBM capacity net of the
// instance's weight shard, divided by the per-block KV footprint. An
// explicit Config.KV.Blocks overrides the derivation (tests and studies
// use it to force memory pressure independent of the hardware). A
// derived budget beyond int32 block ids is an error, like an explicit
// one (kv.Config.Validate).
func kvBlocksPerInstance(cfg Config, gpus int) (int, error) {
	if cfg.KV.Blocks > 0 {
		return cfg.KV.Blocks, nil
	}
	opts := cfg.Opts
	shard := model.Shard{
		TP: gpus, Batch: 1, SeqIn: 1, KVLen: 1,
		Prec:    opts.EffectivePrecision(),
		IdealKV: !opts.KVReplication,
	}
	if err := shard.Validate(cfg.Model); err != nil {
		return 0, err
	}
	free := float64(cfg.GPU.Capacity) - float64(cfg.Model.ShardWeightBytes(shard))
	perBlock := float64(cfg.KV.BlockTokensOrDefault()) * float64(cfg.Model.ShardKVBytesPerToken(shard))
	blocks := 0
	if free > 0 && perBlock > 0 {
		n := free / perBlock
		if n > math.MaxInt32 {
			return 0, fmt.Errorf("serve: %.0f KV blocks on a %d-GPU %s instance overflow int32 block ids",
				n, gpus, cfg.GPU.Name)
		}
		blocks = int(n)
	}
	if blocks <= 0 {
		return 0, fmt.Errorf("serve: no KV blocks fit on a %d-GPU %s instance after %s weights",
			gpus, cfg.GPU.Name, cfg.Model.Name)
	}
	return blocks, nil
}
