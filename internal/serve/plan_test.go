package serve

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"litegpu/internal/hw"
	"litegpu/internal/inference"
	"litegpu/internal/kv"
	"litegpu/internal/model"
	"litegpu/internal/obs"
	"litegpu/internal/straggler"
	"litegpu/internal/trace"
)

func planRequest(rate float64) PlanRequest {
	return PlanRequest{
		GPU:      hw.H100(),
		Model:    model.Llama3_8B(),
		Opts:     inference.DefaultOptions(),
		Workload: trace.CodingWorkload(rate, 7),
		Horizon:  120,
		Drain:    60,
	}
}

func TestPlanCapacityMeetsSLO(t *testing.T) {
	slo := SLO{TTFTAttainment: 0.99, TBTAttainment: 0.99, MinCompletion: 0.95}
	plan, err := PlanCapacity(planRequest(20), slo)
	if err != nil {
		t.Fatal(err)
	}
	m := plan.Metrics
	if m.TTFTAttainment < slo.TTFTAttainment {
		t.Errorf("TTFT attainment %v below target %v", m.TTFTAttainment, slo.TTFTAttainment)
	}
	if m.TBTAttainment < slo.TBTAttainment {
		t.Errorf("TBT attainment %v below target %v", m.TBTAttainment, slo.TBTAttainment)
	}
	if m.Dropped != 0 {
		t.Errorf("plan drops %d requests", m.Dropped)
	}
	if float64(m.Completed) < slo.MinCompletion*float64(m.Arrived) {
		t.Errorf("completed %d of %d, below the completion floor", m.Completed, m.Arrived)
	}
	if want := plan.Config.PrefillInstances*plan.Config.PrefillGPUs +
		plan.Config.DecodeInstances*plan.Config.DecodeGPUs; plan.TotalGPUs != want {
		t.Errorf("TotalGPUs = %d, want %d", plan.TotalGPUs, want)
	}
	if plan.Cost.Total <= 0 {
		t.Error("TCO breakdown missing")
	}
	if plan.Cost.CostPerMTokens <= 0 {
		t.Error("cost-per-Mtoken readout missing")
	}
}

func TestPlanCapacityIsMinimal(t *testing.T) {
	// Shrinking either pool of the returned plan by one instance must
	// break the SLO — otherwise the planner is not returning the
	// cheapest deployment its search space contains.
	req := planRequest(250)
	slo := SLO{TTFTAttainment: 0.99, TBTAttainment: 0.99, MinCompletion: 0.95}
	plan, err := PlanCapacity(req, slo)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := req.Workload.Generate(req.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	feasible := func(p, d int) bool {
		cfg := plan.Config
		cfg.PrefillInstances, cfg.DecodeInstances = p, d
		m, err := Run(cfg, reqs, req.Horizon+req.Drain)
		if err != nil {
			return false
		}
		return m.Dropped == 0 &&
			m.TTFTAttainment >= slo.TTFTAttainment &&
			m.TBTAttainment >= slo.TBTAttainment &&
			float64(m.Completed) >= slo.MinCompletion*float64(m.Arrived)
	}
	p, d := plan.Config.PrefillInstances, plan.Config.DecodeInstances
	if p > 1 && feasible(p-1, d) {
		t.Errorf("plan %d×P+%d×D is not minimal: %d×P also meets the SLO", p, d, p-1)
	}
	if d > 1 && feasible(p, d-1) {
		t.Errorf("plan %d×P+%d×D is not minimal: %d×D also meets the SLO", p, d, d-1)
	}
	if p == 1 && d == 1 {
		t.Fatal("rate 250 should need more than the floor deployment; search never ran")
	}
}

func TestPlanCapacityDeterministic(t *testing.T) {
	a, err := PlanCapacity(planRequest(20), SLO{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanCapacity(planRequest(20), SLO{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Config, b.Config) || a.TotalGPUs != b.TotalGPUs {
		t.Errorf("repeated plans differ: %+v vs %+v", a.Config, b.Config)
	}
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Error("repeated plan metrics differ")
	}
}

func TestPlanCapacityReportsInfeasible(t *testing.T) {
	req := planRequest(500)
	req.MaxInstances = 1
	_, err := PlanCapacity(req, SLO{})
	if err == nil {
		t.Fatal("expected an infeasibility error")
	}
	if !strings.Contains(err.Error(), "no deployment") {
		t.Errorf("err = %v, want a no-deployment diagnosis", err)
	}
}

func TestPlanCapacityRejectsOversizedModel(t *testing.T) {
	req := planRequest(1)
	lite := hw.Lite()
	lite.MaxGPUs = 1
	lite.Capacity = lite.Capacity / 8 // 2.5 GB: Llama3-8B weights cannot fit
	req.GPU = lite
	if _, err := PlanCapacity(req, SLO{}); err == nil {
		t.Fatal("expected a does-not-fit error")
	}
}

func TestMinFeasibleTPAutoSizing(t *testing.T) {
	opts := inference.DefaultOptions()
	// Llama3-405B cannot fit one H100 but fits a TP group.
	tp, err := inference.MinFeasibleTP(hw.H100(), model.Llama3_405B(), inference.Decode, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tp <= 1 {
		t.Errorf("405B min TP on H100 = %d, want > 1", tp)
	}
	if inference.MaxFeasibleBatch(hw.H100(), model.Llama3_405B(), inference.Decode, tp, opts) < 1 {
		t.Error("reported TP does not actually fit")
	}
}

func TestPlanCapacityAvailabilityAware(t *testing.T) {
	req := planRequest(20)
	slo := SLO{MinAvailability: 0.99999}
	base, err := PlanCapacity(req, SLO{})
	if err != nil {
		t.Fatal(err)
	}
	req.Failures = FailureConfig{Enabled: true, Seed: 5}
	plan, err := PlanCapacity(req, slo)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Spares < 1 {
		t.Errorf("five-nines target yielded %d spares, want ≥ 1", plan.Spares)
	}
	if plan.Availability < slo.MinAvailability {
		t.Errorf("plan availability %v below target %v", plan.Availability, slo.MinAvailability)
	}
	if want := plan.Config.PrefillInstances*plan.Config.PrefillGPUs +
		plan.Config.DecodeInstances*plan.Config.DecodeGPUs + plan.Spares; plan.TotalGPUs != want {
		t.Errorf("TotalGPUs = %d does not include the %d spares (want %d)", plan.TotalGPUs, plan.Spares, want)
	}
	// Spares are hot units: the TCO must charge for them.
	if plan.TotalGPUs > base.TotalGPUs && plan.Cost.GPUCapex <= base.Cost.GPUCapex {
		t.Errorf("spared plan GPU capex %v not above unspared %v", plan.Cost.GPUCapex, base.Cost.GPUCapex)
	}
	// The simulated metrics come from a failure-injected run; at paper
	// AFRs over a minutes-long window the deployment should stay fully
	// available but the field must be populated.
	if plan.Metrics.Availability <= 0 {
		t.Error("availability-aware plan metrics missing Availability")
	}
}

// TestPlanMetricsMatchDirectRun is the availability leg's contract: a
// plan's metrics are exactly those of simulating its deployment from
// t=0 with its chosen spare shelf, whether the planner kept a
// failure-free sizing run or re-simulated after a failure.
func TestPlanMetricsMatchDirectRun(t *testing.T) {
	paper := planRequest(20)
	paper.Failures = FailureConfig{Enabled: true, Seed: 5}
	accel := planRequest(20)
	accel.Failures = acceleratedFailures(0)
	accel.Failures.TimeScale = 3e6
	accelKV := accel
	accelKV.KVPolicies = []kv.Config{{Policy: kv.Recompute, PrefixCache: true, Blocks: 1500}}
	rows := []struct {
		name     string
		req      PlanRequest
		slo      SLO
		failures bool // whether the winning sizing run saw a failure
		kv       bool // whether the run must see KV preemptions
	}{
		{"reuse", paper, SLO{MinAvailability: 0.99999}, false, false},
		{"resimulate", accel, SLO{MinAvailability: 0.99}, true, false},
		{"resimulate-kv", accelKV, SLO{MinAvailability: 0.99}, true, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			plan, err := PlanCapacity(row.req, row.slo)
			if err != nil {
				t.Fatal(err)
			}
			if got := plan.Metrics.FailureEvents > 0; got != row.failures {
				t.Fatalf("FailureEvents = %d; row expects failures=%v, so the branch under test was not taken",
					plan.Metrics.FailureEvents, row.failures)
			}
			if row.kv && plan.Metrics.KVPreemptions == 0 {
				t.Fatal("no KV preemptions; the memory model is not under pressure")
			}
			reqs, err := row.req.Workload.Generate(row.req.Horizon)
			if err != nil {
				t.Fatal(err)
			}
			f := row.req.Failures
			f.Spares = plan.Spares
			want, err := RunWithFailures(plan.Config, f, reqs, row.req.Horizon+row.req.Drain)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", plan.Metrics); got != fmt.Sprintf("%x", want) {
				t.Errorf("plan metrics (spares=%d) differ from a direct run:\nplan:   %s\ndirect: %x", plan.Spares, got, want)
			}
			t.Logf("spares=%d failures=%d gpus=%d preemptions=%d",
				plan.Spares, plan.Metrics.FailureEvents, plan.TotalGPUs, plan.Metrics.KVPreemptions)
		})
	}
}

func TestPlanCapacityWithoutFailuresHasNoSpares(t *testing.T) {
	plan, err := PlanCapacity(planRequest(20), SLO{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Spares != 0 {
		t.Errorf("failure-free plan grew %d spares", plan.Spares)
	}
	if plan.Availability != 1 {
		t.Errorf("failure-free plan availability = %v, want 1", plan.Availability)
	}
}

func TestPlanCapacityAvailabilityDeterministic(t *testing.T) {
	req := planRequest(20)
	req.Failures = FailureConfig{Enabled: true, Seed: 5}
	a, err := PlanCapacity(req, SLO{MinAvailability: 0.99999})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanCapacity(req, SLO{MinAvailability: 0.99999})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Config, b.Config) || a.Spares != b.Spares || !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Error("repeated availability-aware plans differ")
	}
}

func TestPlanCapacityWorkerCountInvariant(t *testing.T) {
	// The chosen plan must be byte-identical at any worker count:
	// speculative ladder probes and concurrent policy sizing change how
	// many candidates are simulated, never which plan is selected.
	req := planRequest(20)
	req.Schedulers = SchedulerPolicies()
	var plans []Plan
	for _, workers := range []int{1, 3, 8} {
		r := req
		r.Workers = workers
		plan, err := PlanCapacity(r, SLO{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		plans = append(plans, plan)
	}
	for i := 1; i < len(plans); i++ {
		if !reflect.DeepEqual(plans[i].Config, plans[0].Config) || !reflect.DeepEqual(plans[i].Metrics, plans[0].Metrics) ||
			plans[i].Cost != plans[0].Cost || plans[i].TotalGPUs != plans[0].TotalGPUs {
			t.Errorf("plan at worker count %d differs from sequential plan", []int{1, 3, 8}[i])
		}
	}
}

// overloadPlanRequest puts closed-loop clients that retry, an
// admission-gate axis, and the straggler model inside every sizing
// simulation.
func overloadPlanRequest() (PlanRequest, SLO) {
	req := planRequest(20)
	req.Client = ClientConfig{
		Default: ClientBehavior{Timeout: 30, Retries: 1, BackoffBase: 1, Jitter: 0.5},
		Seed:    3,
	}
	req.Admissions = []AdmissionConfig{
		{},
		{Policy: AdmitAdaptive, QueueLimit: 64, Levels: 2},
	}
	req.Straggler = StragglerConfig{Jitter: straggler.Jitter{CV: 0.1}, Seed: 2}
	return req, SLO{TTFTAttainment: 0.95, TBTAttainment: 0.95, MinCompletion: 0.9}
}

func TestPlanCapacityWithOverloadAxis(t *testing.T) {
	// The chosen plan carries its winning gate and must still be
	// deterministic.
	req, slo := overloadPlanRequest()
	a, err := PlanCapacity(req, slo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanCapacity(req, slo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Config, b.Config) || !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Error("overload-axis plan not deterministic")
	}
	if !reflect.DeepEqual(a.Config.Client, req.Client) {
		t.Error("plan config dropped the client loop")
	}
	found := false
	for _, adm := range req.Admissions {
		if reflect.DeepEqual(a.Config.Admission, adm) {
			found = true
		}
	}
	if !found {
		t.Errorf("plan admission %+v not among the candidates", a.Config.Admission)
	}
}

// TestSettledSizingRunsFailAtHorizon is the soundness check of the
// sizing runs' verdict budget. For every planner-test scenario, each
// sizing point the search visited is run again with the budget; a run
// that settles early is then run to its horizon without one and must
// miss the SLO there too. The trace's settle times must agree with the
// reruns, and the TTFT rule must stay off exactly where clients retry.
func TestSettledSizingRunsFailAtHorizon(t *testing.T) {
	strict := SLO{TTFTAttainment: 0.99, TBTAttainment: 0.99, MinCompletion: 0.95}
	capped := planRequest(500)
	capped.MaxInstances = 1
	schedulers := planRequest(20)
	schedulers.Schedulers = SchedulerPolicies()
	kvAxis := planRequest(6)
	kvAxis.KVPolicies = []kv.Config{{}, {Policy: kv.Recompute, PrefixCache: true}}
	avail := planRequest(20)
	avail.Failures = FailureConfig{Enabled: true, Seed: 5}
	accel := planRequest(20)
	accel.Failures = acceleratedFailures(0)
	accel.Failures.TimeScale = 3e6
	fabric := func(rate float64) PlanRequest {
		return PlanRequest{
			GPU: hw.Lite(), Model: model.Llama3_70B(), Opts: inference.DefaultOptions(),
			Workload: trace.CodingWorkload(rate, 7),
			Horizon:  120, Drain: 60,
			Fabrics: DefaultFabricCandidates(),
		}
	}
	overload, overloadSLO := overloadPlanRequest()
	scenarios := []struct {
		name    string
		req     PlanRequest
		slo     SLO
		retries bool
	}{
		{"rate-20", planRequest(20), SLO{}, false},
		{"rate-250", planRequest(250), strict, false},
		{"rate-250-continuous", func() PlanRequest {
			r := planRequest(250)
			r.Schedulers = []SchedulerPolicy{ContinuousBatching}
			return r
		}(), strict, false},
		{"rate-500-capped", capped, SLO{}, false},
		{"schedulers", schedulers, SLO{}, false},
		{"kv-axis", kvAxis, SLO{}, false},
		{"availability", avail, SLO{MinAvailability: 0.99999}, false},
		{"availability-accelerated", accel, SLO{MinAvailability: 0.99}, false},
		{"fabric-axis-small", fabric(1.5), SLO{}, false},
		{"fabric-axis-large", fabric(20), SLO{}, false},
		{"overload-axis", overload, overloadSLO, true},
		// Feasible points here miss a few tenths of a percent of TTFTs,
		// close to the 1% allowance, so a budget that settles too soon
		// settles a run that passes.
		{"near-boundary", PlanRequest{
			GPU: hw.H100(), Model: model.Llama3_70B(), Opts: inference.DefaultOptions(),
			Workload: trace.CodingWorkload(120, 7),
			Horizon:  60, Drain: 30,
		}, SLO{}, false},
	}
	settled := 0
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			slo := sc.slo.withDefaults()
			req, err := sc.req.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			req.Workers = 1
			req.Trace = &obs.PlanTrace{}
			// The capped scenario finds no deployment; its rungs still
			// count.
			_, _ = PlanCapacity(req, slo)
			reqs, err := req.Workload.Generate(req.Horizon)
			if err != nil {
				t.Fatal(err)
			}
			horizon := req.Horizon + req.Drain
			cands := req.candidates()
			seen := map[[3]int]bool{}
			for i, tc := range req.Trace.Candidates {
				for _, g := range tc.Rungs {
					key := [3]int{i, g.Prefill, g.Decode}
					if seen[key] {
						continue
					}
					seen[key] = true
					cfg := cands[i].sizing(req, g.Prefill, g.Decode)
					run, err := planSim(cfg, req, 0, reqs, horizon, &slo)
					if err != nil {
						t.Fatal(err)
					}
					if run.ttftRule == sc.retries {
						t.Fatalf("%s %dP+%dD: TTFT rule armed=%v with client retries=%v",
							tc.Scheduler, g.Prefill, g.Decode, run.ttftRule, sc.retries)
					}
					if at := run.settledAt; run.settled != (g.SettledAt > 0) || at != g.SettledAt {
						t.Fatalf("%s %dP+%dD: rerun settled=%v at %v, trace says %v",
							tc.Scheduler, g.Prefill, g.Decode, run.settled, at, g.SettledAt)
					}
					if !run.settled {
						continue
					}
					settled++
					if g.Feasible || run.settledAt >= float64(horizon) {
						t.Fatalf("%s %dP+%dD: settled at %v yet feasible=%v", tc.Scheduler, g.Prefill, g.Decode, run.settledAt, g.Feasible)
					}
					full, err := planSim(cfg, req, 0, reqs, horizon, nil)
					if err != nil {
						t.Fatal(err)
					}
					if full.settled || slo.met(full.m) {
						t.Errorf("%s %dP+%dD settled at %v s but meets the SLO at its horizon (ttft %v, dropped %d)",
							tc.Scheduler, g.Prefill, g.Decode, run.settledAt, full.m.TTFTAttainment, full.m.Dropped)
					}
				}
			}
		})
	}
	if settled == 0 {
		t.Fatal("no sizing run settled early; the check is vacuous")
	}
	t.Logf("%d settled sizing runs fail at their horizon", settled)
}

// TestMissAllowanceIsTheAttainmentBoundary: the budget allows exactly
// the misses that keep float64(n-misses)/float64(n) at or above the
// target, so the TTFT rule settles on the first miss the planner's own
// comparison would fail.
func TestMissAllowanceIsTheAttainmentBoundary(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 100, 1000, 4321, 36260} {
		for _, target := range []float64{0.01, 0.5, 0.9, 0.95, 0.99, 0.999, 1, 1.5} {
			k := missAllowance(n, target)
			meets := func(misses int) bool { return float64(n-misses)/float64(n) >= target }
			if k < -1 || k > n || (k >= 0 && !meets(k)) || (k < n && meets(k+1)) {
				t.Errorf("missAllowance(%d, %v) = %d is not the boundary", n, target, k)
			}
		}
	}
}

// TestSizingRunStopsOnFirstDrop: under a verdict budget the first
// dropped request stops the run where it drops, under every policy,
// and the same trace without a budget shows the drop the stop
// anticipated and misses the SLO.
func TestSizingRunStopsOnFirstDrop(t *testing.T) {
	reqs := []trace.Request{
		{ID: 0, Arrival: 1, PromptTokens: 800, OutputTokens: 16},
		{ID: 1, Arrival: 5, PromptTokens: 5_000_000, OutputTokens: 16},
		{ID: 2, Arrival: 6, PromptTokens: 800, OutputTokens: 16},
	}
	slo := SLO{}.withDefaults()
	for _, sched := range []SchedulerPolicy{StaticDisaggregated, ContinuousBatching, ChunkedPrefill} {
		cfg := smallConfig()
		cfg.Scheduler = sched
		run, err := runPool(cfg, FailureConfig{}, reqs, 60, &slo)
		if err != nil {
			t.Fatal(err)
		}
		if !run.settled || run.settledAt != 5 {
			t.Errorf("%s: settled=%v at %v, want a stop at 5 s", sched, run.settled, run.settledAt)
		}
		full, err := runPool(cfg, FailureConfig{}, reqs, 60, nil)
		if err != nil {
			t.Fatal(err)
		}
		if full.settled || full.m.Dropped != 1 || slo.met(full.m) {
			t.Errorf("%s: unbudgeted run settled=%v dropped %d met=%v, want 1 drop and a miss",
				sched, full.settled, full.m.Dropped, slo.met(full.m))
		}
	}
}
