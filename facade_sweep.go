package litegpu

import (
	"context"
	"fmt"

	"litegpu/internal/inference"
	"litegpu/internal/mathx"
	"litegpu/internal/serve"
	"litegpu/internal/sweep"
)

// SweepWorkload names a workload family for the serving sweep; Make
// builds the generator for one cell's rate and derived seed.
type SweepWorkload struct {
	Name string
	Make func(rate float64, seed uint64) Workload
}

// DefaultSweepWorkloads returns the two production workload shapes the
// paper evaluates.
func DefaultSweepWorkloads() []SweepWorkload {
	return []SweepWorkload{
		{Name: "coding", Make: CodingWorkload},
		{Name: "conversation", Make: ConversationWorkload},
	}
}

// SweepFailureMode is one failure-axis setting of the sweep: a label
// plus a failure-injection config (Seed is overridden per cell so the
// grid stays byte-identical at any worker count).
type SweepFailureMode struct {
	Name     string
	Failures ServeFailureConfig
}

// DefaultSweepFailureModes returns the single clean mode — sweeps only
// grow a failure axis when asked.
func DefaultSweepFailureModes() []SweepFailureMode {
	return []SweepFailureMode{{Name: "none"}}
}

// SweepSpec parameterizes Sweep. Zero-value fields take the defaults
// noted on each.
type SweepSpec struct {
	// GPUs defaults to the full Table 1 catalog.
	GPUs []GPU
	// Models defaults to the three paper models.
	Models []Transformer
	// Workloads defaults to DefaultSweepWorkloads.
	Workloads []SweepWorkload
	// Rates (req/s) defaults to {0.5, 1.5}.
	Rates []float64
	// Schedulers is the scheduling-policy axis (default
	// {StaticDisaggregated}); add ContinuousBatching / ChunkedPrefill
	// entries to compare serving disciplines cell-for-cell on the same
	// traces.
	Schedulers []SchedulerPolicy
	// FailureModes defaults to the single clean mode; add entries (e.g.
	// an accelerated-AFR config with hot spares) to cross the grid with
	// failure injection.
	FailureModes []SweepFailureMode
	// Fabrics is the network axis (default: the single zero config —
	// the infinite fabric). Add entries (e.g. a pluggable-optics Clos
	// and a circuit-switched CPO flat fabric) to simulate every grid
	// point with each fabric in the event loop, on identical traces, so
	// the fabric columns isolate what the network costs each deployment.
	Fabrics []ServeNetworkConfig
	// KVPolicies is the KV-memory axis (default: the single zero config
	// — infinite decode memory). Add entries (e.g. recompute+prefix and
	// swap+prefix) to simulate every grid point under each memory model,
	// on identical traces, so the KV columns isolate what finite cache
	// memory costs each deployment.
	KVPolicies []ServeKVConfig
	// Admissions is the overload-gate axis (default: the single zero
	// config — admit everything). Add entries (e.g. a priority gate and
	// an adaptive gate) to simulate every grid point behind each gate,
	// on identical traces, so the admission columns isolate what
	// shedding buys (and costs) each deployment under overload.
	Admissions []ServeAdmissionConfig

	// Client attaches closed-loop client behavior (deadlines, retries
	// with backoff, abandonment) to every cell. The zero value keeps
	// the historical open-loop clients.
	Client ServeClientConfig
	// Straggler attaches the persistent slow-instance model to every
	// cell. The zero value keeps instances uniform.
	Straggler ServeStragglerConfig

	// Horizon is the arrival window (default 300 s); the simulation runs
	// Drain (default 120 s) past it so in-flight requests can finish.
	Horizon Seconds
	Drain   Seconds

	// Seed is the base workload seed; every cell derives its own stream
	// from (Seed, cell index), so results are byte-identical at any
	// worker count.
	Seed uint64

	// Opts defaults to DefaultOptions.
	Opts Options

	// PrefillInstances and DecodeInstances size each deployment's pools
	// (default 1 each); the tensor-parallel degree per instance is
	// auto-sized to the smallest cluster the model fits on.
	PrefillInstances int
	DecodeInstances  int
	// MaxPrefillBatch and MaxDecodeBatch default to 4 and 64.
	MaxPrefillBatch int
	MaxDecodeBatch  int

	// Workers caps the worker pool (0 = GOMAXPROCS; 1 = sequential).
	Workers int

	// Observer, when non-nil, attaches to the grid's first cell (index
	// 0). Cells run concurrently and an Observer is single-writer, so
	// the sweep instruments one representative cell — the first in
	// enumeration order — rather than racing the whole grid; the other
	// cells run unobserved and unaffected.
	Observer *Observer
}

func (s SweepSpec) withDefaults() SweepSpec {
	if len(s.GPUs) == 0 {
		s.GPUs = Table1()
	}
	if len(s.Models) == 0 {
		s.Models = Models()
	}
	if len(s.Workloads) == 0 {
		s.Workloads = DefaultSweepWorkloads()
	}
	if len(s.Rates) == 0 {
		s.Rates = []float64{0.5, 1.5}
	}
	if len(s.Schedulers) == 0 {
		s.Schedulers = []SchedulerPolicy{StaticDisaggregated}
	}
	if len(s.FailureModes) == 0 {
		s.FailureModes = DefaultSweepFailureModes()
	}
	if len(s.Fabrics) == 0 {
		s.Fabrics = []ServeNetworkConfig{{}}
	}
	if len(s.KVPolicies) == 0 {
		s.KVPolicies = []ServeKVConfig{{}}
	}
	if len(s.Admissions) == 0 {
		s.Admissions = []ServeAdmissionConfig{{}}
	}
	if s.Horizon <= 0 {
		s.Horizon = 300
	}
	if s.Drain <= 0 {
		s.Drain = 120
	}
	if s.Opts == (Options{}) {
		s.Opts = DefaultOptions()
	}
	if s.PrefillInstances <= 0 {
		s.PrefillInstances = 1
	}
	if s.DecodeInstances <= 0 {
		s.DecodeInstances = 1
	}
	if s.MaxPrefillBatch <= 0 {
		s.MaxPrefillBatch = 4
	}
	if s.MaxDecodeBatch <= 0 {
		s.MaxDecodeBatch = 64
	}
	return s
}

// SweepCell is one point of the sweep grid: a (GPU, model, workload,
// rate, scheduler, failure-mode) combination with its simulated serving
// metrics. Err is non-empty when the combination is infeasible (e.g.
// the model does not fit the GPU type's largest legal cluster); such
// cells carry zero Metrics.
type SweepCell struct {
	GPU       string
	Model     string
	Workload  string
	Rate      float64
	Scheduler string
	Failure   string
	// Fabric names the cell's network config ("off" when the fabric
	// axis is not in play).
	Fabric string
	// KV names the cell's KV-memory config ("off" when the memory axis
	// is not in play).
	KV string
	// Admission names the cell's overload gate ("none" when the
	// admission axis is not in play).
	Admission string

	// Config is the auto-sized deployment the cell simulated.
	Config ServeConfig
	// Metrics is the serving outcome.
	Metrics ServeMetrics
	// Err records an infeasible combination.
	Err string
}

// Sweep crosses GPU types × models × workloads × arrival rates ×
// scheduling policies × failure modes × fabrics × KV-memory configs ×
// admission gates and simulates a serving deployment for every combination, fanning
// the grid over a worker pool. Cell order is the nested enumeration order of the spec
// slices, and each cell's workload seed derives from its grid index —
// so the returned slice is byte-identical whether it ran on one worker
// or many.
//
// Infeasible combinations are reported per cell via SweepCell.Err rather
// than failing the sweep.
func Sweep(ctx context.Context, spec SweepSpec) ([]SweepCell, error) {
	spec = spec.withDefaults()
	type point struct {
		gpu      GPU
		model    Transformer
		workload SweepWorkload
		rate     float64
		sched    SchedulerPolicy
		failure  SweepFailureMode
		fabric   ServeNetworkConfig
		kvc      ServeKVConfig
		adm      ServeAdmissionConfig
	}
	var points []point
	for _, g := range spec.GPUs {
		for _, m := range spec.Models {
			for _, w := range spec.Workloads {
				for _, r := range spec.Rates {
					for _, sp := range spec.Schedulers {
						for _, f := range spec.FailureModes {
							for _, nc := range spec.Fabrics {
								for _, kvc := range spec.KVPolicies {
									for _, adm := range spec.Admissions {
										points = append(points, point{gpu: g, model: m, workload: w, rate: r, sched: sp, failure: f, fabric: nc, kvc: kvc, adm: adm})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	// The request stream depends only on (workload, rate): every GPU,
	// model, scheduler, failure mode, and fabric at the same workload
	// point faces the identical trace, so cross-hardware (and
	// cross-policy, clean-vs-faulty, fabric-vs-fabric) comparisons
	// within the grid are noise-free. The seed position is the
	// workload×rate coordinate of the cell.
	traceBlock := len(spec.Workloads) * len(spec.Rates)
	innerModes := len(spec.Schedulers) * len(spec.FailureModes) * len(spec.Fabrics) * len(spec.KVPolicies) * len(spec.Admissions)

	return sweep.RunN(ctx, spec.Workers, points,
		func(_ context.Context, idx int, p point) (SweepCell, error) {
			c := SweepCell{GPU: p.gpu.Name, Model: p.model.Name, Workload: p.workload.Name, Rate: p.rate,
				Scheduler: p.sched.String(), Failure: p.failure.Name, Fabric: p.fabric.String(), KV: p.kvc.String(),
				Admission: p.adm.Policy.String()}
			pTP, err := inference.MinFeasibleTP(p.gpu, p.model, Prefill, spec.Opts)
			if err != nil {
				c.Err = err.Error()
				return c, nil
			}
			dTP, err := inference.MinFeasibleTP(p.gpu, p.model, Decode, spec.Opts)
			if err != nil {
				c.Err = err.Error()
				return c, nil
			}
			c.Config = ServeConfig{
				GPU: p.gpu, Model: p.model, Opts: spec.Opts,
				Scheduler:        p.sched,
				PrefillInstances: spec.PrefillInstances, PrefillGPUs: pTP,
				DecodeInstances: spec.DecodeInstances, DecodeGPUs: dTP,
				MaxPrefillBatch: spec.MaxPrefillBatch, MaxDecodeBatch: spec.MaxDecodeBatch,
				Network:   p.fabric,
				KV:        p.kvc,
				Admission: p.adm,
				Client:    spec.Client,
				Straggler: spec.Straggler,
			}
			gen := p.workload.Make(p.rate, mathx.DeriveSeed(spec.Seed, uint64((idx/innerModes)%traceBlock)))
			// Arrivals stream into the simulation on demand — no cell ever
			// materializes its trace, so sweep memory is bounded by the
			// in-flight working set per worker, not by horizon×rate.
			stream, err := gen.Stream(spec.Horizon)
			if err != nil {
				return SweepCell{}, fmt.Errorf("litegpu: sweep cell %d (%s/%s/%s@%.2f): %w",
					idx, c.GPU, c.Model, c.Workload, c.Rate, err)
			}
			cc := ServeClusterConfig{
				Pools:    []ServePool{{Name: c.GPU, Config: c.Config}},
				Failures: p.failure.Failures,
			}
			if idx == 0 {
				cc.Observer = spec.Observer
			}
			// Each cell's failure processes get their own derived stream.
			cc.Failures.Seed = mathx.DeriveSeed(spec.Seed^0xfa11, uint64(idx))
			cm, err := serve.RunClusterFrom(cc, stream, spec.Horizon+spec.Drain)
			if err != nil {
				c.Err = err.Error()
				return c, nil
			}
			c.Metrics = cm.Pools[0].Metrics
			return c, nil
		})
}

// Capacity planning -----------------------------------------------------------

// CapacitySLO sets the attainment targets a capacity plan must meet; see
// serve.SLO for field semantics and defaults.
type CapacitySLO = serve.SLO

// CapacityPlan is a feasible deployment with its simulated metrics and
// TCO readout; see serve.Plan.
type CapacityPlan = serve.Plan

// CapacityRequest is the full capacity-search parameterization (GPU,
// model, workload, horizon, per-instance TP degrees, batch caps, search
// ceiling); see serve.PlanRequest for field semantics and defaults.
// Each search axis (Schedulers, Fabrics, KVPolicies, Admissions) is a
// list, and an empty list means one zero-valued entry, as in SweepSpec.
// Availability-aware searches re-simulate the chosen deployment at its
// spare count only when its sizing run saw a failure; otherwise the
// sizing run already is that run and is reported as is.
type CapacityRequest = serve.PlanRequest

// PlanCapacityRequest runs the capacity planner with full control over
// every knob. PlanCapacity and PlanCapacityOpts are conveniences over it.
func PlanCapacityRequest(req CapacityRequest, slos CapacitySLO) (CapacityPlan, error) {
	return serve.PlanCapacity(req, slos)
}

// PlanCapacity sizes the cheapest phase-split deployment of the given
// GPU type that serves the workload at `rate` requests/s while meeting
// the SLO attainment targets, by binary-searching prefill and decode
// instance counts over the serving simulator. The returned plan carries
// the full TCO breakdown, including dollars per million tokens.
//
// The workload's Rate field is overridden with `rate`; its Seed is used
// as-is. Latency limits come from DefaultOptions (TTFT ≤ 1 s, TBT ≤
// 50 ms); use PlanCapacityOpts for custom limits or sizing knobs.
func PlanCapacity(gpu GPU, m Transformer, w Workload, rate float64, slos CapacitySLO) (CapacityPlan, error) {
	return PlanCapacityOpts(gpu, m, w, rate, slos, DefaultOptions(), 0)
}

// PlanCapacityOpts is PlanCapacity with explicit inference Options and a
// per-pool instance-count ceiling (0 = default 64).
func PlanCapacityOpts(gpu GPU, m Transformer, w Workload, rate float64, slos CapacitySLO, opts Options, maxInstances int) (CapacityPlan, error) {
	w.Rate = rate
	return PlanCapacityRequest(CapacityRequest{
		GPU:          gpu,
		Model:        m,
		Opts:         opts,
		Workload:     w,
		MaxInstances: maxInstances,
	}, slos)
}
