package serve

import (
	"fmt"

	"litegpu/internal/failure"
	"litegpu/internal/obs"
	"litegpu/internal/trace"
	"litegpu/internal/units"
)

// FailurePolicy selects what happens to requests in flight on an
// instance when one of its GPUs fails.
type FailurePolicy int

const (
	// RequeueOnFailure returns in-flight work to the head of its pool's
	// queue: prompts re-run prefill, generations resume from their last
	// emitted token on the next instance with capacity. Latency clocks
	// keep running across the outage, so TTFT/TBT degrade honestly.
	RequeueOnFailure FailurePolicy = iota
	// DropOnFailure abandons in-flight work (counted in
	// Metrics.DroppedOnFailure) — the behavior of a serving stack with
	// no request-level recovery.
	DropOnFailure
)

// FailureConfig drives failure injection for a cluster simulation. The
// zero value disables injection entirely.
type FailureConfig struct {
	// Enabled turns failure injection on.
	Enabled bool
	// Params calibrates per-GPU failure rates (area-scaled AFR), repair
	// time, and spare-takeover time. The zero value means
	// failure.DefaultParams().
	Params failure.Params
	// Spares is the default hot-spare count per pool; Pool.Spares
	// overrides it for individual pools. A spare is one idle unit of the
	// pool's GPU type: when a failure downs an instance, a free spare
	// restores it after Params.RecoveryTime, and the failed unit
	// returns to the shelf after Params.MTTR.
	Spares int
	// Policy selects requeue-vs-drop for in-flight requests.
	Policy FailurePolicy
	// TimeScale accelerates the failure process: per-GPU failure rates
	// are multiplied by it, so a minutes-long serving window can exhibit
	// the reliability dynamics of months of operation — simulation's
	// analogue of accelerated life testing. Repair and takeover times
	// stay in real time. Zero or one means no acceleration.
	TimeScale float64
	// Seed drives the failure processes. Every instance derives its own
	// stream via mathx.DeriveSeed(Seed, instance index), so runs stay
	// byte-identical under the parallel sweep.
	Seed uint64
}

func (f FailureConfig) params() failure.Params {
	if f.Params == (failure.Params{}) {
		return failure.DefaultParams()
	}
	return f.Params
}

func (f FailureConfig) timeScale() float64 {
	if f.TimeScale <= 0 {
		return 1
	}
	return f.TimeScale
}

// RouterPolicy selects how the cluster assigns arriving requests to
// pools.
type RouterPolicy int

const (
	// RoundRobin cycles arrivals across pools in order, blind to load —
	// the baseline any smarter router must beat.
	RoundRobin RouterPolicy = iota
	// JoinShortestQueue routes each arrival to the pool with the least
	// outstanding work per live instance — queued and in-pass prompts
	// plus queued and actively decoding generations, divided by the
	// pool's up instances; ties go to the lowest-indexed pool. The
	// per-instance normalization is what makes a 4×-wider Lite pool
	// attract its fair share of a shared trace, and the live-instance
	// denominator is what steers traffic away from pools with failed
	// capacity.
	JoinShortestQueue
)

// Pool is one homogeneous deployment inside a heterogeneous cluster.
type Pool struct {
	// Name labels the pool in ClusterMetrics (defaults to the GPU name).
	Name   string
	Config Config
	// Spares overrides FailureConfig.Spares for this pool when > 0.
	Spares int
}

// ClusterConfig describes a cluster-level simulation: one or more
// serving pools fed by a router, with optional failure injection and
// an optional in-loop fabric.
type ClusterConfig struct {
	Pools    []Pool
	Router   RouterPolicy
	Failures FailureConfig

	// Network is the cluster-wide fabric. The fabric is a property of
	// the whole simulated cluster — every pool's instances are
	// endpoints of the same switched network, so KV handoffs in one
	// pool contend with another pool's, and (with several pools)
	// routed arrivals pay an ingress transfer from the router to their
	// pool. When zero, the first pool with an enabled Config.Network
	// supplies the cluster fabric (which is how the single-pool Run
	// entry points promote their Config.Network); pools must not
	// disagree.
	Network NetworkConfig

	// Observer, when non-nil, receives the run's telemetry: sampled
	// per-request span timelines, instance-level events, and (when its
	// probe interval is set) fixed-interval time-series samples. The
	// observer is strictly read-only — attaching one never changes
	// simulation results; the golden corpora pass byte-identical with an
	// observer live. One Recorder sees the whole cluster.
	Observer *obs.Recorder
}

// resolvedNetwork returns the fabric the cluster simulates on: the
// cluster-level setting when enabled, otherwise the first pool's
// enabled Config.Network, otherwise off.
func (cc ClusterConfig) resolvedNetwork() NetworkConfig {
	if cc.Network.Enabled() {
		return cc.Network
	}
	for _, p := range cc.Pools {
		if p.Config.Network.Enabled() {
			return p.Config.Network
		}
	}
	return NetworkConfig{}
}

// maxPoolInstances bounds instances per pool: it is the priority-band
// spacing that keeps same-timestamp event ordering well-defined across
// pools (see the priority constants in engine.go), and it is far above
// any deployment the capacity planner emits.
const maxPoolInstances = 4096

// maxPools keeps every pool's priority offsets inside one 2^20 event
// band (maxPools × maxPoolInstances = 1<<20).
const maxPools = (1 << 20) / maxPoolInstances

// Validate reports the first configuration problem, or nil.
func (cc ClusterConfig) Validate() error {
	if len(cc.Pools) == 0 {
		return fmt.Errorf("serve: cluster needs at least one pool")
	}
	if len(cc.Pools) > maxPools {
		return fmt.Errorf("serve: %d pools, above the %d limit", len(cc.Pools), maxPools)
	}
	if err := cc.Network.Validate(); err != nil {
		return err
	}
	net := cc.resolvedNetwork()
	for i, p := range cc.Pools {
		if err := p.Config.Validate(); err != nil {
			return fmt.Errorf("serve: pool %d (%s): %w", i, p.Name, err)
		}
		if n := p.Config.instanceCount(); n > maxPoolInstances {
			return fmt.Errorf("serve: pool %d (%s) has %d instances, above the %d per-pool limit",
				i, p.Name, n, maxPoolInstances)
		}
		if pn := p.Config.Network; pn.Enabled() && pn != net {
			return fmt.Errorf("serve: pool %d (%s) wants fabric %s but the cluster runs %s; the fabric is cluster-wide",
				i, p.Name, pn, net)
		}
	}
	return nil
}

// PoolMetrics is one pool's outcome within a cluster run.
type PoolMetrics struct {
	Name    string
	Metrics Metrics
}

// ClusterMetrics is the outcome of a cluster simulation: per-pool
// metrics in pool order, plus the aggregate across pools. Total is the
// merge of the pools: counts sum; every ratio is recomputed from summed
// numerators and denominators, never averaged across pools; latency
// and transfer summaries cover the union of per-pool samples; and
// KVPeakBlocks, KVMeanBlocks and MeanLiveInstances sum the pool values.
// Only the capacity-weighted fields follow their own cluster rule:
// utilization is weighted by the GPUs behind each busy-second, and
// Availability/BlastRadius weight capacity by per-GPU compute and
// failure odds by per-GPU AFR, so a Lite GPU counts as neither as
// capable nor as failure-prone as an H100.
type ClusterMetrics struct {
	Total Metrics
	Pools []PoolMetrics
}

// RunCluster simulates the cluster serving the request stream until the
// horizon on the shared internal/sim event engine. Requests are routed
// to pools on arrival, every pool runs its own phase-split engines, and
// (when enabled) GPU failures down instances mid-run, with hot spares
// restoring capacity after a takeover delay.
//
// Determinism: identical inputs produce byte-identical ClusterMetrics.
// All randomness flows through per-instance streams derived from
// FailureConfig.Seed; request order ties resolve by pool and engine
// index.
func RunCluster(cc ClusterConfig, reqs []trace.Request, horizon units.Seconds) (ClusterMetrics, error) {
	if err := cc.Validate(); err != nil {
		return ClusterMetrics{}, err
	}
	sim, err := newClusterSim(cc, float64(horizon))
	if err != nil {
		return ClusterMetrics{}, err
	}
	return sim.run(reqs), nil
}

// RunClusterFrom is RunCluster over a lazy request source: arrivals are
// pulled from src on demand (in nondecreasing arrival order), so the
// simulation holds only the in-flight working set — a million-request
// horizon runs in O(in-flight) memory instead of materializing the
// trace. For the same request sequence it produces byte-identical
// ClusterMetrics to RunCluster.
func RunClusterFrom(cc ClusterConfig, src RequestSource, horizon units.Seconds) (ClusterMetrics, error) {
	if err := cc.Validate(); err != nil {
		return ClusterMetrics{}, err
	}
	sim, err := newClusterSim(cc, float64(horizon))
	if err != nil {
		return ClusterMetrics{}, err
	}
	return sim.runFrom(src), nil
}

func ratio(num, den int) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}
