package litegpu

import (
	"fmt"

	"litegpu/internal/inference"
	"litegpu/internal/serve"
)

// Cluster-aware serving, re-exported from internal/serve.
type (
	// ServeClusterConfig describes a multi-pool serving simulation with
	// routing and failure injection.
	ServeClusterConfig = serve.ClusterConfig
	// ServePool is one homogeneous deployment inside a cluster.
	ServePool = serve.Pool
	// ServeClusterMetrics is a cluster run's outcome (per-pool + total).
	ServeClusterMetrics = serve.ClusterMetrics
	// ServeFailureConfig drives failure injection (rates from
	// internal/failure, hot spares, requeue/drop policy, optional
	// accelerated failure clock).
	ServeFailureConfig = serve.FailureConfig
	// ServeRouterPolicy selects the arrival router.
	ServeRouterPolicy = serve.RouterPolicy
)

// Router and in-flight policy choices.
const (
	RoundRobin        = serve.RoundRobin
	JoinShortestQueue = serve.JoinShortestQueue
	RequeueOnFailure  = serve.RequeueOnFailure
	DropOnFailure     = serve.DropOnFailure
)

// ServeCluster simulates one or more serving pools — possibly of
// different GPU types — serving a single request stream behind a router,
// with optional GPU failure injection and hot spares. It is the
// cluster-aware superset of Serve.
func ServeCluster(cc ServeClusterConfig, reqs []Request, horizon Seconds) (ServeClusterMetrics, error) {
	return serve.RunCluster(cc, reqs, horizon)
}

// ServeClusterFrom is ServeCluster over a lazy request source
// (typically a Workload.Stream): the trace is never materialized, so
// memory stays proportional to the in-flight working set regardless of
// how many requests the horizon spans.
func ServeClusterFrom(cc ServeClusterConfig, src RequestSource, horizon Seconds) (ServeClusterMetrics, error) {
	return serve.RunClusterFrom(cc, src, horizon)
}

// FailureServingSpec parameterizes ServeWithFailures. Zero-value fields
// take the defaults noted on each.
type FailureServingSpec struct {
	// BigGPU is the incumbent package (default H100).
	BigGPU GPU
	// Split is how many Lite-GPUs replace one big GPU (default 4).
	Split int
	// Model defaults to Llama3-8B, which fits a single quarter-H100 —
	// the regime where the blast-radius contrast is sharpest, because
	// the Lite deployment can shard into Split× more instances.
	Model Transformer
	// Rate is the arrival rate in req/s (default 4) and Horizon the
	// arrival window (default 300 s; the simulation runs with no drain
	// so capacity loss cannot quietly catch up).
	Rate    float64
	Horizon Seconds

	// RefAFR overrides the reference-package annualized failure rate
	// (default failure.DefaultParams().RefAFR = 5%; the paper discusses
	// production fleets up to ~9%).
	RefAFR float64
	// Spares is the hot-spare budget in big-GPU silicon units (default
	// 1): the big deployment keeps Spares hot spare packages, the Lite
	// deployment keeps Spares×Split — identical spare silicon (and so
	// roughly identical spare cost), which is the paper's equal-cost
	// sparing comparison: small units make each spare proportionally
	// cheaper, so the same budget buys Split× more coverage.
	Spares int
	// TimeScale accelerates the failure clock (default 1 = real time;
	// at paper-calibrated AFRs a minutes-long window essentially never
	// sees a failure, so stress studies pass ~1e6).
	TimeScale float64
	// Seed drives both the workload and the failure processes.
	Seed uint64
}

func (s FailureServingSpec) withDefaults() FailureServingSpec {
	if s.BigGPU == (GPU{}) {
		s.BigGPU = H100()
	}
	if s.Split < 2 {
		s.Split = 4
	}
	if s.Model.Name == "" {
		m, _ := ModelByName("Llama3-8B")
		s.Model = m
	}
	if s.Rate <= 0 {
		s.Rate = 4
	}
	if s.Horizon <= 0 {
		s.Horizon = 300
	}
	if s.Spares <= 0 {
		s.Spares = 1
	}
	return s
}

// FailureServingSide is one deployment's outcome in the comparison.
type FailureServingSide struct {
	Config  ServeConfig
	Metrics ServeMetrics
}

// FailureServingResult is the paper's serving-level fault-tolerance
// comparison: the Metrics carry BlastRadius (capacity fraction one
// failure removes), Availability, Goodput, and failure-event counts for
// both deployments over the identical trace.
type FailureServingResult struct {
	Big  FailureServingSide
	Lite FailureServingSide
}

// ServeWithFailures reproduces the paper's blast-radius argument at the
// serving level: a big-GPU deployment and its Lite-GPU replacement —
// equal total silicon, serving the identical request stream — run with
// GPU failure injection. Because each Lite instance needs only a
// fraction of the silicon, the Lite deployment shards into Split× more
// instances, so one failure removes a Split× smaller slice of capacity
// (Metrics.BlastRadius), and each hot spare is a Split×-cheaper unit.
//
// The two deployments are sized for equal aggregate throughput: the big
// side runs one prefill and one decode instance at the smallest tensor-
// parallel degree that fits the model; the Lite side spends the same
// silicon on Split× more instances.
func ServeWithFailures(spec FailureServingSpec) (FailureServingResult, error) {
	spec = spec.withDefaults()
	opts := DefaultOptions()

	lite := spec.BigGPU.Scale(1 / float64(spec.Split)).
		WithName(fmt.Sprintf("Lite(%s/%d)", spec.BigGPU.Name, spec.Split))

	bigCfg, err := phaseSplitConfig(spec.BigGPU, spec.Model, opts, 1, 1)
	if err != nil {
		return FailureServingResult{}, fmt.Errorf("litegpu: big deployment: %w", err)
	}
	// Equal silicon: every big-GPU unit becomes Split Lite units, spread
	// over as many instances as the Lite TP degree allows.
	liteCfg, err := phaseSplitConfig(lite, spec.Model, opts,
		spec.Split*bigCfg.PrefillGPUs, spec.Split*bigCfg.DecodeGPUs)
	if err != nil {
		return FailureServingResult{}, fmt.Errorf("litegpu: lite deployment: %w", err)
	}

	gen := CodingWorkload(spec.Rate, spec.Seed)
	reqs, err := gen.Generate(spec.Horizon)
	if err != nil {
		return FailureServingResult{}, err
	}

	fp := DefaultFailureParams(spec.RefAFR)
	run := func(cfg ServeConfig, spares int) (ServeMetrics, error) {
		return serve.RunWithFailures(cfg, ServeFailureConfig{
			Enabled:   true,
			Params:    fp,
			Spares:    spares,
			TimeScale: spec.TimeScale,
			Seed:      spec.Seed,
		}, reqs, spec.Horizon)
	}
	var res FailureServingResult
	res.Big.Config = bigCfg
	if res.Big.Metrics, err = run(bigCfg, spec.Spares); err != nil {
		return FailureServingResult{}, err
	}
	res.Lite.Config = liteCfg
	if res.Lite.Metrics, err = run(liteCfg, spec.Spares*spec.Split); err != nil {
		return FailureServingResult{}, err
	}
	return res, nil
}

// phaseSplitConfig builds a phase-split deployment at the smallest
// tensor-parallel degree the model fits, sharding the given per-phase
// GPU budget into as many instances as the degree allows. A budget of
// (1, 1) means "one instance per phase" — the big-GPU baseline — while
// a Lite replacement passes the big deployment's silicon re-expressed
// in Lite units.
func phaseSplitConfig(gpu GPU, m Transformer, opts Options, prefillBudget, decodeBudget int) (ServeConfig, error) {
	pTP, err := inference.MinFeasibleTP(gpu, m, Prefill, opts)
	if err != nil {
		return ServeConfig{}, err
	}
	dTP, err := inference.MinFeasibleTP(gpu, m, Decode, opts)
	if err != nil {
		return ServeConfig{}, err
	}
	return ServeConfig{
		GPU: gpu, Model: m, Opts: opts,
		PrefillInstances: max(1, prefillBudget/pTP), PrefillGPUs: pTP,
		DecodeInstances: max(1, decodeBudget/dTP), DecodeGPUs: dTP,
		MaxPrefillBatch: 4, MaxDecodeBatch: 64,
	}, nil
}
