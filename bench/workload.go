package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"time"

	"litegpu"
	"litegpu/internal/mathx"
	"litegpu/internal/tco"
)

// A workload is one named scenario run through the public litegpu entry
// points. setup derives every input from the seed; small shrinks the
// simulated horizons so tests can run the same code path in
// milliseconds.
type workload struct {
	name string
	// inputs is how many input seeds a run cycles its ops through. An
	// op's host time depends on its seed (one plan_lite answer takes
	// 13–160 ms across seeds), so a run spreads its ops over many inputs
	// and its medians move little from one --seed to the next.
	// stream_1m's million arrivals already average out within one op.
	inputs int
	setup  func(seed uint64, small bool) (*instance, error)
}

// workloads are the benchmark's scenarios. Each one makes a different
// layer do most of the work; bench/README.md records why each was
// chosen.
var workloads = []workload{
	{"stream_1m", 1, setupStream},
	{"overload_lite", 64, setupOverload},
	{"plan_lite", 64, setupPlan},
	{"sweep_grid", 64, setupSweep},
}

// inputSeed is the seed of a run's j-th input: the run's seed itself
// first, so input 0 at seed 42 is the pinned one.
func inputSeed(seed uint64, j int) uint64 {
	if j == 0 {
		return seed
	}
	return mathx.DeriveSeed(seed, uint64(j))
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// instance is a workload set up for one seed.
type instance struct {
	// config is the canonical rendering of every input the op passes to
	// the simulator; its hash stamps the result.
	config string
	// op runs one operation. A non-nil span times the trace layer's
	// boundary where the workload streams its requests.
	op func(span *spanSource) (outcome, error)
}

// outcome is what one op produced. An op whose call failed or whose
// result broke an invariant returns an error instead.
type outcome struct {
	// digest is the SHA-256 of the simulated result.
	digest string
	// arrivals counts the simulated requests the op processed.
	arrivals int
	// counts holds the per-layer work counts, keyed by metric name.
	counts map[string]float64
}

// spanSource wraps a request source and accumulates the host time spent
// inside Next: the boundary between the simulator and the trace layer.
type spanSource struct {
	src litegpu.RequestSource
	ns  int64
}

func (s *spanSource) Next() (litegpu.Request, bool) {
	t := time.Now()
	r, ok := s.src.Next()
	s.ns += int64(time.Since(t))
	return r, ok
}

func model(name string) (litegpu.Transformer, error) {
	m, ok := litegpu.ModelByName(name)
	if !ok {
		return m, fmt.Errorf("model catalog has no %s", name)
	}
	return m, nil
}

// stream1MWorkload arrives at 2000 req/s with prompts and outputs short
// enough that one small pool keeps up.
func stream1MWorkload(seed uint64) litegpu.Workload {
	return litegpu.Workload{
		Rate:         2000,
		PromptMedian: 32, PromptP99: 64,
		OutputMedian: 2, OutputP99: 4,
		MaxTokens: 128,
		Seed:      seed,
	}
}

// setupStream: ≈10⁶ open-loop arrivals streamed through one small H100
// pool. Calendar, dispatch, trace streaming and the end-of-run latency
// summaries do almost all the work; KV, fabric, overload, observer,
// planner and sweep are bypassed.
func setupStream(seed uint64, small bool) (*instance, error) {
	m, err := model("Llama3-8B")
	if err != nil {
		return nil, err
	}
	cfg := litegpu.ServeConfig{
		GPU: litegpu.H100(), Model: m, Opts: litegpu.DefaultOptions(),
		PrefillInstances: 1, PrefillGPUs: 1,
		DecodeInstances: 1, DecodeGPUs: 1,
		MaxPrefillBatch: 8, MaxDecodeBatch: 64,
	}
	gen := stream1MWorkload(seed)
	arrivals := litegpu.Seconds(500)
	if small {
		arrivals = 5
	}
	horizon := arrivals + 60
	return &instance{
		config: canon(struct {
			Config   litegpu.ServeConfig
			Workload litegpu.Workload
			Arrivals litegpu.Seconds
			Horizon  litegpu.Seconds
		}{cfg, gen, arrivals, horizon}),
		op: func(span *spanSource) (outcome, error) {
			s, err := gen.Stream(arrivals)
			if err != nil {
				return outcome{}, err
			}
			var src litegpu.RequestSource = s
			if span != nil {
				span.src = s
				src = span
			}
			met, err := litegpu.ServeFrom(cfg, src, horizon)
			if err != nil {
				return outcome{}, err
			}
			if err := checkStream(met); err != nil {
				return outcome{}, err
			}
			return outcome{digest: digest(met), arrivals: met.Arrived, counts: serveCounts(met)}, nil
		},
	}, nil
}

// overloadLayers selects which layers the overload_lite scenario runs
// with; the traced run's layer ladder adds them one at a time.
type overloadLayers struct {
	fabric, kv, closedLoop, observer bool
}

var allOverloadLayers = overloadLayers{fabric: true, kv: true, closedLoop: true, observer: true}

// overloadScenario is the overload_lite inputs: one Lite pool under a
// two-tenant flash crowd, with the trace materialized once.
type overloadScenario struct {
	pool    litegpu.ServeConfig
	reqs    []litegpu.Request
	horizon litegpu.Seconds
	seed    uint64
	config  string
}

func newOverloadScenario(seed uint64, small bool) (*overloadScenario, error) {
	m, err := model("Llama3-70B")
	if err != nil {
		return nil, err
	}
	fabric, err := litegpu.ParseNetworkConfig("clos:pluggable:packet")
	if err != nil {
		return nil, err
	}
	pool := litegpu.ServeConfig{
		GPU: litegpu.Lite(), Model: m, Opts: litegpu.DefaultOptions(),
		PrefillInstances: 2, PrefillGPUs: 8,
		DecodeInstances: 1, DecodeGPUs: 8,
		MaxPrefillBatch: 4, MaxDecodeBatch: 64,
		Network: fabric,
		KV:      litegpu.ServeKVConfig{Policy: litegpu.KVRecompute, Blocks: 2000},
		Client: litegpu.ServeClientConfig{
			Default: litegpu.ClientBehavior{Timeout: 10, Retries: 2, BackoffBase: 1, Jitter: 0.5},
			Seed:    seed,
		},
		Admission: litegpu.ServeAdmissionConfig{Policy: litegpu.AdmitAdaptive, QueueLimit: 32, Levels: 2},
	}
	arrivals, flash := litegpu.Seconds(600), litegpu.FlashCrowd{At: 150, Duration: 150, Factor: 2}
	if small {
		arrivals, flash = 120, litegpu.FlashCrowd{At: 30, Duration: 60, Factor: 2}
	}
	gen := litegpu.MultiWorkload{
		Classes: []litegpu.TenantClass{
			{Name: "paid", Gen: litegpu.ConversationWorkload(2, 0), Priority: 1},
			{Name: "free", Gen: litegpu.ConversationWorkload(6, 0), Priority: 0},
		},
		Envelope: litegpu.WorkloadEnvelope{Flash: []litegpu.FlashCrowd{flash}},
		Seed:     seed,
	}
	reqs, err := gen.Generate(arrivals)
	if err != nil {
		return nil, err
	}
	horizon := arrivals + 120
	return &overloadScenario{
		pool: pool, reqs: reqs, horizon: horizon, seed: seed,
		config: canon(struct {
			Pool     litegpu.ServeConfig
			Workload litegpu.MultiWorkload
			Arrivals litegpu.Seconds
			Horizon  litegpu.Seconds
			Observer litegpu.ObserverOptions
		}{pool, gen, arrivals, horizon, observerOptions(seed)}),
	}, nil
}

func observerOptions(seed uint64) litegpu.ObserverOptions {
	return litegpu.ObserverOptions{Seed: seed, ProbeInterval: 5}
}

// run simulates the scenario with the selected layers switched on.
func (s *overloadScenario) run(l overloadLayers) (litegpu.ServeMetrics, *litegpu.Observer, error) {
	pool := s.pool
	if !l.fabric {
		pool.Network = litegpu.ServeNetworkConfig{}
	}
	if !l.kv {
		pool.KV = litegpu.ServeKVConfig{}
	}
	if !l.closedLoop {
		pool.Client = litegpu.ServeClientConfig{}
		pool.Admission = litegpu.ServeAdmissionConfig{}
	}
	cc := litegpu.ServeClusterConfig{Pools: []litegpu.ServePool{{Name: "lite", Config: pool}}}
	if l.observer {
		cc.Observer = litegpu.NewObserver(observerOptions(s.seed))
	}
	cm, err := litegpu.ServeCluster(cc, s.reqs, s.horizon)
	return cm.Total, cc.Observer, err
}

// setupOverload: the full Lite stack in one Serve run — netsim
// waterfill, KV preemption churn, the client/admission overload loop
// and a live observer.
func setupOverload(seed uint64, small bool) (*instance, error) {
	s, err := newOverloadScenario(seed, small)
	if err != nil {
		return nil, err
	}
	return &instance{
		config: s.config,
		op: func(*spanSource) (outcome, error) {
			met, rec, err := s.run(allOverloadLayers)
			if err != nil {
				return outcome{}, err
			}
			if err := checkOverload(met); err != nil {
				return outcome{}, err
			}
			c := serveCounts(met)
			held, _ := rec.Sampled()
			c["obs.timelines_held"] = float64(held)
			c["obs.probe_rows"] = float64(len(rec.Probes()))
			return outcome{digest: digest(met), arrivals: met.Arrived, counts: c}, nil
		},
	}, nil
}

// benchWorkers is the worker count of the planner and the sweep. With
// two workers an op's host time also hangs on the second core, which
// the garbage collector and the host's neighbours share: on the
// two-core reference host that made the run-to-run spread of plan_lite
// op_s_p50 four times wider (0.16 against 0.04 at one worker).
const benchWorkers = 1

// setupPlan: one capacity-planner answer over 12 (scheduler, fabric)
// candidates with failure-aware spare sizing. The decision trace is
// attached on every op, so the planner's ladder is counted the same
// way in every run.
func setupPlan(seed uint64, small bool) (*instance, error) {
	m, err := model("Llama3-70B")
	if err != nil {
		return nil, err
	}
	req := litegpu.CapacityRequest{
		GPU: litegpu.Lite(), Model: m, Opts: litegpu.DefaultOptions(),
		Workload:   litegpu.CodingWorkload(4, seed),
		Horizon:    120,
		Drain:      60,
		Schedulers: litegpu.SchedulerPolicies(),
		Fabrics:    litegpu.DefaultFabricCandidates(),
		Failures:   litegpu.ServeFailureConfig{Enabled: true, Seed: seed},
		Workers:    benchWorkers,
	}
	if small {
		req.Horizon, req.Drain = 10, 10
	}
	slo := litegpu.CapacitySLO{MinAvailability: 0.999}
	return &instance{
		config: canon(struct {
			Request litegpu.CapacityRequest
			SLO     litegpu.CapacitySLO
		}{req, slo}),
		op: func(*spanSource) (outcome, error) {
			r := req
			r.Trace = &litegpu.PlanTrace{}
			plan, err := litegpu.PlanCapacityRequest(r, slo)
			if err != nil {
				return outcome{}, err
			}
			if err := checkPlan(plan, r.Trace); err != nil {
				return outcome{}, err
			}
			var rungs, simReqs int
			for _, c := range r.Trace.Candidates {
				rungs += len(c.Rungs)
				for _, g := range c.Rungs {
					simReqs += g.Arrived
				}
			}
			c := serveCounts(plan.Metrics)
			c["planner.candidates"] = float64(len(r.Trace.Candidates))
			c["planner.rungs"] = float64(rungs)
			c["planner.sim_requests"] = float64(simReqs)
			return outcome{
				digest:   digest(planResult{plan.Config, plan.Metrics, plan.TotalGPUs, plan.Spares, plan.Fabric, plan.Cost}),
				arrivals: simReqs,
				counts:   c,
			}, nil
		},
	}, nil
}

// planResult is the part of a capacity plan the plan_lite digest
// covers.
type planResult struct {
	Config    litegpu.ServeConfig
	Metrics   litegpu.ServeMetrics
	TotalGPUs int
	Spares    int
	Fabric    string
	Cost      tco.Breakdown
}

// setupSweep: fan-out over many short simulations, with KV prefix hits
// on the agent workload and no fabric.
func setupSweep(seed uint64, small bool) (*instance, error) {
	m8, err := model("Llama3-8B")
	if err != nil {
		return nil, err
	}
	m70, err := model("Llama3-70B")
	if err != nil {
		return nil, err
	}
	prefix, err := litegpu.ParseKVConfig("recompute+prefix")
	if err != nil {
		return nil, err
	}
	spec := litegpu.SweepSpec{
		GPUs:   []litegpu.GPU{litegpu.H100(), litegpu.Lite()},
		Models: []litegpu.Transformer{m8, m70},
		Workloads: []litegpu.SweepWorkload{
			{Name: "coding", Make: litegpu.CodingWorkload},
			{Name: "agent", Make: litegpu.AgentWorkload},
		},
		Rates:      []float64{1, 4},
		Schedulers: litegpu.SchedulerPolicies(),
		KVPolicies: []litegpu.ServeKVConfig{{}, prefix},
		Horizon:    150,
		Drain:      60,
		Seed:       seed,
		Workers:    benchWorkers,
	}
	if small {
		spec.Rates, spec.Schedulers = spec.Rates[:1], spec.Schedulers[:1]
		spec.Horizon, spec.Drain = 2, 2
	}
	cells := len(spec.GPUs) * len(spec.Models) * len(spec.Workloads) * len(spec.Rates) *
		len(spec.Schedulers) * len(spec.KVPolicies)
	described := spec
	described.Workloads = nil
	return &instance{
		config: canon(described) + " workloads:[coding agent]",
		op: func(*spanSource) (outcome, error) {
			got, err := litegpu.Sweep(context.Background(), spec)
			if err != nil {
				return outcome{}, err
			}
			if err := checkSweep(got, cells); err != nil {
				return outcome{}, err
			}
			mets := make([]litegpu.ServeMetrics, len(got))
			arrivals := 0
			for i, c := range got {
				mets[i] = c.Metrics
				arrivals += c.Metrics.Arrived
			}
			counts := serveCounts(mets...)
			counts["sweep.cells"] = float64(len(got))
			return outcome{digest: digest(mets), arrivals: arrivals, counts: counts}, nil
		},
	}, nil
}

// checkMetrics enforces the invariants every serving result must hold:
// no negative count, and no more completions than arrivals.
func checkMetrics(m litegpu.ServeMetrics) error {
	v := reflect.ValueOf(m)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Int && f.Int() < 0 {
			return fmt.Errorf("negative count %s = %d", v.Type().Field(i).Name, f.Int())
		}
	}
	if m.Completed > m.Arrived {
		return fmt.Errorf("completed %d exceeds arrived %d", m.Completed, m.Arrived)
	}
	return nil
}

// checkStream: the stream_1m pool must keep up with its arrivals.
func checkStream(m litegpu.ServeMetrics) error {
	if err := checkMetrics(m); err != nil {
		return err
	}
	if 10*m.Completed < 9*m.Arrived {
		return fmt.Errorf("completed %d of %d arrivals, below 90%%", m.Completed, m.Arrived)
	}
	return nil
}

// checkOverload: every layer overload_lite exists to exercise must
// have done work.
func checkOverload(m litegpu.ServeMetrics) error {
	if err := checkMetrics(m); err != nil {
		return err
	}
	if m.Shed <= 0 || m.ClientRetries <= 0 || m.KVPreemptions <= 0 || m.NetTransfers <= 0 {
		return fmt.Errorf("overload layers idle: shed %d, retries %d, preemptions %d, transfers %d",
			m.Shed, m.ClientRetries, m.KVPreemptions, m.NetTransfers)
	}
	return nil
}

// checkPlan: the planner must return a feasible plan, and its decision
// trace must name a feasible winner.
func checkPlan(plan litegpu.CapacityPlan, trace *litegpu.PlanTrace) error {
	if err := checkMetrics(plan.Metrics); err != nil {
		return err
	}
	for _, c := range trace.Candidates {
		if c.Winner && c.Feasible && plan.TotalGPUs > 0 {
			return nil
		}
	}
	return fmt.Errorf("planner returned no feasible plan (%d GPUs, %d candidates)", plan.TotalGPUs, len(trace.Candidates))
}

// checkSweep: the sweep must return every cell of its grid, each
// feasible and sound.
func checkSweep(cells []litegpu.SweepCell, want int) error {
	if len(cells) != want {
		return fmt.Errorf("sweep returned %d cells, want %d", len(cells), want)
	}
	for i, c := range cells {
		if c.Err != "" {
			return fmt.Errorf("sweep cell %d (%s/%s/%s@%v %s %s): %s",
				i, c.GPU, c.Model, c.Workload, c.Rate, c.Scheduler, c.KV, c.Err)
		}
		if err := checkMetrics(c.Metrics); err != nil {
			return fmt.Errorf("sweep cell %d: %w", i, err)
		}
	}
	return nil
}

// serveCounts sums the work counts of one or more serving runs. Ratios
// average over the runs where the layer was active.
func serveCounts(ms ...litegpu.ServeMetrics) map[string]float64 {
	c := map[string]float64{}
	var hitSum, hitRuns, netSum, netRuns, good, useful float64
	for _, m := range ms {
		c["serve.sim_requests"] += float64(m.Arrived)
		c["serve.completed"] += float64(m.Completed)
		c["serve.tokens"] += float64(m.TokensGenerated)
		c["kv.preemptions"] += float64(m.KVPreemptions)
		c["kv.recompute_tokens"] += float64(m.KVRecomputeTokens)
		c["netsim.transfers"] += float64(m.NetTransfers)
		c["overload.shed"] += float64(m.Shed)
		c["overload.retries"] += float64(m.ClientRetries)
		c["overload.timeouts"] += float64(m.ClientTimeouts)
		c["overload.abandoned"] += float64(m.Abandoned)
		if m.KVPeakBlocks > 0 {
			hitSum += m.KVCacheHitRate
			hitRuns++
		}
		if m.NetTransfers > 0 {
			netSum += m.NetworkBoundFraction
			netRuns++
		}
		good += m.Goodput
		useful += m.UsefulGoodput
	}
	c["kv.cache_hit_rate"] = ratio(hitSum, hitRuns)
	c["netsim.network_bound_frac"] = ratio(netSum, netRuns)
	c["overload.useful_frac"] = ratio(useful, good)
	return c
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// digest is the SHA-256 of the canonical rendering of a simulated
// result.
func digest(v any) string {
	sum := sha256.Sum256([]byte(canon(v)))
	return hex.EncodeToString(sum[:])
}

// canon renders v the way %+v does — field names and values in
// declaration order — but formats every leaf itself: String methods
// such as tco.Breakdown's round for display and would hide a changed
// value. Floats print with the fewest digits that read back exactly,
// so a one-ulp change shows. Nil pointers render as nil; a func, map,
// channel or non-nil pointer cannot be rendered deterministically and
// panics.
func canon(v any) string {
	var b strings.Builder
	render(&b, reflect.ValueOf(v))
	return b.String()
}

func render(b *strings.Builder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		b.WriteByte('{')
		for i := 0; i < v.NumField(); i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(v.Type().Field(i).Name)
			b.WriteByte(':')
			render(b, v.Field(i))
		}
		b.WriteByte('}')
	case reflect.Slice, reflect.Array:
		b.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			render(b, v.Index(i))
		}
		b.WriteByte(']')
	case reflect.Interface:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		render(b, v.Elem())
	case reflect.Pointer, reflect.Func, reflect.Map, reflect.Chan:
		if !v.IsNil() {
			panic(fmt.Sprintf("canon: cannot render non-nil %s", v.Type()))
		}
		b.WriteString("nil")
	case reflect.Float32, reflect.Float64:
		b.WriteString(strconv.FormatFloat(v.Float(), 'g', -1, v.Type().Bits()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b.WriteString(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		b.WriteString(strconv.FormatUint(v.Uint(), 10))
	case reflect.Bool:
		b.WriteString(strconv.FormatBool(v.Bool()))
	case reflect.String:
		b.WriteString(strconv.Quote(v.String()))
	default:
		panic(fmt.Sprintf("canon: cannot render %s", v.Type()))
	}
}
