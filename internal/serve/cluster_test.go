package serve

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"litegpu/internal/failure"
	"litegpu/internal/hw"
	"litegpu/internal/inference"
	"litegpu/internal/kv"
	"litegpu/internal/model"
	"litegpu/internal/trace"
	"litegpu/internal/units"
)

// acceleratedFailures returns a failure config hot enough that a
// minutes-long window reliably sees several instance failures: the
// default AFR calibration sped up 8×10⁶×, i.e. an H100-class unit fails
// roughly every 70 simulated seconds. Repair takes 300 s, so without a
// spare an instance that dies mid-window mostly stays dead; with spares
// the 5 s takeover is the only interruption.
func acceleratedFailures(spares int) FailureConfig {
	p := failure.DefaultParams()
	p.MTTR = 300
	p.RecoveryTime = 5
	return FailureConfig{
		Enabled:   true,
		Params:    p,
		Spares:    spares,
		TimeScale: 8e6,
		Seed:      99,
	}
}

func clusterOf(cfgs ...Config) ClusterConfig {
	var cc ClusterConfig
	for _, c := range cfgs {
		cc.Pools = append(cc.Pools, Pool{Config: c})
	}
	return cc
}

func codingTrace(t *testing.T, rate float64, seed uint64, horizon units.Seconds) []trace.Request {
	t.Helper()
	reqs, err := trace.CodingWorkload(rate, seed).Generate(horizon)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestSinglePoolClusterMatchesRun(t *testing.T) {
	// RunCluster with one pool and no failures IS Run: pool metrics and
	// the aggregate must both match field-for-field.
	cfg := smallConfig()
	reqs := codingTrace(t, 1.0, 7, 200)
	m, err := Run(cfg, reqs, 400)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := RunCluster(clusterOf(cfg), reqs, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(cm.Pools) != 1 {
		t.Fatalf("pools = %d, want 1", len(cm.Pools))
	}
	if !reflect.DeepEqual(cm.Pools[0].Metrics, m) {
		t.Errorf("pool metrics diverge from Run:\n%+v\nvs\n%+v", cm.Pools[0].Metrics, m)
	}
	if !reflect.DeepEqual(cm.Total, m) {
		t.Errorf("single-pool aggregate diverges from Run:\n%+v\nvs\n%+v", cm.Total, m)
	}
	if cm.Pools[0].Name != cfg.GPU.Name {
		t.Errorf("pool name defaulted to %q, want GPU name %q", cm.Pools[0].Name, cfg.GPU.Name)
	}
}

func TestNoFailuresReportsIdealReliability(t *testing.T) {
	m, err := Run(smallConfig(), codingTrace(t, 0.5, 42, 120), 240)
	if err != nil {
		t.Fatal(err)
	}
	if m.Availability != 1 {
		t.Errorf("Availability = %v with no failure injection, want 1", m.Availability)
	}
	if m.FailureEvents != 0 || m.Requeued != 0 || m.DroppedOnFailure != 0 {
		t.Errorf("phantom failure activity: %+v", m)
	}
	if m.Goodput <= 0 {
		t.Error("Goodput not reported")
	}
	// 1 prefill + 1 decode instance, 1 GPU each: either failure removes
	// half the deployment.
	if math.Abs(m.BlastRadius-0.5) > 1e-12 {
		t.Errorf("BlastRadius = %v, want 0.5", m.BlastRadius)
	}
}

// failureTrace is the stream the failure tests share: decode-heavy
// conversation traffic busy enough (~90% decode utilization) that an
// instance death almost always catches requests in flight, simulated
// with no drain window so a dead instance's backlog cannot quietly
// catch up before the horizon.
func failureTrace(t *testing.T) []trace.Request {
	t.Helper()
	reqs, err := trace.ConversationWorkload(4.0, 11).Generate(300)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestFailureInjectionDegradesService(t *testing.T) {
	cfg := smallConfig()
	reqs := failureTrace(t)
	clean, err := Run(cfg, reqs, 300)
	if err != nil {
		t.Fatal(err)
	}
	cc := clusterOf(cfg)
	cc.Failures = acceleratedFailures(0)
	faulty, err := RunCluster(cc, reqs, 300)
	if err != nil {
		t.Fatal(err)
	}
	m := faulty.Total
	if m.FailureEvents == 0 {
		t.Fatal("accelerated failure clock produced no failures")
	}
	if m.Availability >= 1 || m.Availability <= 0 {
		t.Errorf("Availability = %v, want in (0, 1) with failures and no spares", m.Availability)
	}
	if m.Completed >= clean.Completed {
		t.Errorf("failures did not reduce completions: %d with vs %d without", m.Completed, clean.Completed)
	}
	if m.Goodput >= clean.Goodput {
		t.Errorf("failures did not reduce goodput: %v vs %v", m.Goodput, clean.Goodput)
	}
	if m.Requeued == 0 {
		t.Error("requeue policy never requeued in-flight work despite failures")
	}
	if m.DroppedOnFailure != 0 {
		t.Errorf("requeue policy dropped %d requests", m.DroppedOnFailure)
	}
}

func TestDropPolicyDropsInFlight(t *testing.T) {
	cfg := smallConfig()
	reqs := failureTrace(t)
	cc := clusterOf(cfg)
	cc.Failures = acceleratedFailures(0)
	cc.Failures.Policy = DropOnFailure
	cm, err := RunCluster(cc, reqs, 300)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Total.DroppedOnFailure == 0 {
		t.Error("drop policy never dropped despite failures")
	}
	if cm.Total.Requeued != 0 {
		t.Errorf("drop policy requeued %d requests", cm.Total.Requeued)
	}
	// Oversized-prompt drops are a separate channel and must stay zero
	// here.
	if cm.Total.Dropped != 0 {
		t.Errorf("failure drops leaked into Dropped: %d", cm.Total.Dropped)
	}
}

func TestHotSparesRestoreCapacity(t *testing.T) {
	cfg := smallConfig()
	reqs := failureTrace(t)
	run := func(spares int) Metrics {
		cc := clusterOf(cfg)
		cc.Failures = acceleratedFailures(spares)
		cm, err := RunCluster(cc, reqs, 300)
		if err != nil {
			t.Fatal(err)
		}
		return cm.Total
	}
	none := run(0)
	two := run(2)
	if none.FailureEvents == 0 {
		t.Fatal("no failures fired")
	}
	if two.Availability <= none.Availability {
		t.Errorf("2 spares availability %v not above 0 spares %v", two.Availability, none.Availability)
	}
	if two.Completed <= none.Completed {
		t.Errorf("2 spares completed %d < 0 spares %d", two.Completed, none.Completed)
	}
}

// TestSpareRestartsAbortedPrefill: a static pool's only prefill engine
// dies mid-pass and a spare restores it before the aborted pass would
// have ended. The requeued prompt must start over the moment the
// engine is back — the failure frees the engine at once — so its TTFT
// is the fail time plus the takeover plus one undisturbed pass.
func TestSpareRestartsAbortedPrefill(t *testing.T) {
	cfg := smallConfig()
	reqs := oneRequest(2048, 4)
	pass := mustRun(t, cfg, reqs, 60).TTFT.Max
	if pass <= 0 {
		t.Fatalf("undisturbed pass time %v", pass)
	}
	mid := pass / 2
	recovery := pass / 64
	cc := clusterOf(cfg)
	cc.Failures = FailureConfig{
		Params: failure.Params{MTTR: 3600, RecoveryTime: units.Seconds(recovery)},
		Spares: 1,
	}
	cs, err := newClusterSim(cc, 60)
	if err != nil {
		t.Fatal(err)
	}
	failAt(cs, 0, 0, mid) // the only prefill engine
	m := mustRunSim(t, cs, reqs).Total
	if m.Requeued != 1 || m.Completed != 1 {
		t.Fatalf("Requeued = %d, Completed = %d, want 1, 1", m.Requeued, m.Completed)
	}
	if want := mid + recovery + pass; m.TTFT.Max != want {
		t.Errorf("TTFT = %v, want fail %v + recovery %v + pass %v = %v",
			m.TTFT.Max, mid, recovery, pass, want)
	}
}

func TestFailureRunIsDeterministic(t *testing.T) {
	cfg := smallConfig()
	reqs := codingTrace(t, 1.5, 3, 200)
	cc := clusterOf(cfg)
	cc.Failures = acceleratedFailures(1)
	a, err := RunCluster(cc, reqs, 300)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCluster(cc, reqs, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("repeated failure runs diverge:\n%+v\nvs\n%+v", a.Total, b.Total)
	}
}

// TestClusterUnsortedInput pins RunCluster's arrival sort: a reversed
// trace (generated arrivals are distinct, so the sort has one answer)
// must produce byte-identical metrics to the sorted one it came from.
func TestClusterUnsortedInput(t *testing.T) {
	small := smallConfig()
	cc := clusterOf(small, small, small)
	reqs := codingTrace(t, 2.0, 41, 200)
	base, err := RunCluster(cc, reqs, 400)
	if err != nil {
		t.Fatal(err)
	}
	rev := append([]trace.Request(nil), reqs...)
	slices.Reverse(rev)
	cm, err := RunCluster(cc, rev, 400)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := keyedCluster(t, "", cm), keyedCluster(t, "", base); got != want {
		t.Errorf("reversed trace diverges from sorted at %s", firstDiff(got, want))
	}
}

// runDispatchingEveryPool runs cc over reqs with a dispatch pass that
// runs every pool's scheduler each time, not only the pools that
// requested it: the reference the per-pool pass must match.
func runDispatchingEveryPool(t *testing.T, cc ClusterConfig, reqs []trace.Request, horizon units.Seconds) ClusterMetrics {
	t.Helper()
	s, err := newClusterSim(cc, float64(horizon))
	if err != nil {
		t.Fatal(err)
	}
	s.dispatchH = func(now float64, arg uint64) {
		for _, p := range s.pools {
			p.dispatchWanted = true
		}
		s.dispatch(now, arg)
	}
	return mustRunSim(t, s, reqs)
}

// mustRunSim runs a built simulation over reqs, failing the test on
// an error.
func mustRunSim(t *testing.T, s *clusterSim, reqs []trace.Request) ClusterMetrics {
	t.Helper()
	cm, err := s.run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

// goldenScenarioNamed returns the scenario called name from scs.
func goldenScenarioNamed(t *testing.T, scs []goldenScenario, name string) goldenScenario {
	t.Helper()
	for _, sc := range scs {
		if sc.name == name {
			return sc
		}
	}
	t.Fatalf("no golden scenario %q", name)
	return goldenScenario{}
}

// TestShardCountInvariance is the contract a pool-sharded runner once
// relied on and the one dispatch pass now relies on: running only the
// schedulers of the pools that asked must be byte-identical to running
// every pool's scheduler on every pass, across both routers,
// heterogeneous pools, four pools and failure injection. Each subtest
// runs a multi-pool block of the static golden corpus.
func TestShardCountInvariance(t *testing.T) {
	scs := goldenScenarios(t)
	for _, c := range []struct{ name, golden string }{
		{"rr-hetero", "hetero-rr"},
		{"jsq-hetero", "hetero-jsq"},
		{"rr-quad", "rr-quad"},
		{"rr-failures", "rr-failures"},
		{"jsq-failures", "jsq-failures"},
	} {
		t.Run(c.name, func(t *testing.T) {
			sc := goldenScenarioNamed(t, scs, c.golden)
			if len(sc.cluster.Pools) < 2 {
				t.Fatalf("premise: %s has %d pool(s), want several", c.golden, len(sc.cluster.Pools))
			}
			cm, err := RunCluster(sc.cluster, sc.reqs, sc.horizon)
			if err != nil {
				t.Fatal(err)
			}
			ref := runDispatchingEveryPool(t, sc.cluster, sc.reqs, sc.horizon)
			if got, want := keyedCluster(t, "", cm), keyedCluster(t, "", ref); got != want {
				t.Errorf("per-pool dispatch diverges from every-pool dispatch at %s", firstDiff(got, want))
			}
		})
	}
}

func TestHeterogeneousPoolsServeOneTrace(t *testing.T) {
	// An H100 pool and its Lite replacement serve the same stream side
	// by side; every request lands in exactly one pool and the aggregate
	// accounts for all of them.
	h100 := smallConfig()
	lite := smallConfig()
	lite.GPU = hw.Lite()
	lite.PrefillGPUs = 4
	lite.DecodeGPUs = 4
	reqs := codingTrace(t, 2.0, 17, 300)
	for _, router := range []RouterPolicy{RoundRobin, JoinShortestQueue} {
		cc := clusterOf(h100, lite)
		cc.Router = router
		cm, err := RunCluster(cc, reqs, 500)
		if err != nil {
			t.Fatal(err)
		}
		if got := cm.Pools[0].Metrics.Arrived + cm.Pools[1].Metrics.Arrived; got != len(reqs) {
			t.Errorf("router %v: pools saw %d arrivals, want %d", router, got, len(reqs))
		}
		if cm.Total.Arrived != len(reqs) {
			t.Errorf("router %v: aggregate arrivals %d, want %d", router, cm.Total.Arrived, len(reqs))
		}
		for i, pm := range cm.Pools {
			if pm.Metrics.Arrived == 0 {
				t.Errorf("router %v: pool %d starved", router, i)
			}
			if pm.Metrics.Completed == 0 {
				t.Errorf("router %v: pool %d completed nothing", router, i)
			}
		}
		if cm.Total.Completed != cm.Pools[0].Metrics.Completed+cm.Pools[1].Metrics.Completed {
			t.Errorf("router %v: aggregate completions do not sum", router)
		}
	}
}

func TestRoundRobinSplitsEvenly(t *testing.T) {
	cfg := smallConfig()
	reqs := codingTrace(t, 2.0, 23, 200)
	cc := clusterOf(cfg, cfg)
	cc.Router = RoundRobin
	cm, err := RunCluster(cc, reqs, 400)
	if err != nil {
		t.Fatal(err)
	}
	a, b := cm.Pools[0].Metrics.Arrived, cm.Pools[1].Metrics.Arrived
	if diff := a - b; diff < -1 || diff > 1 {
		t.Errorf("round-robin split %d/%d, want within 1", a, b)
	}
}

func TestJSQAvoidsSlowPool(t *testing.T) {
	// One pool has triple the decode instances of the other. At a rate
	// that saturates a single decode engine, JSQ must send the wider
	// pool more work (round-robin would stay blind at 50/50).
	slow := smallConfig()
	fast := smallConfig()
	fast.DecodeInstances = 3
	reqs := codingTrace(t, 8.0, 29, 200)

	ccJSQ := clusterOf(slow, fast)
	ccJSQ.Router = JoinShortestQueue
	jsq, err := RunCluster(ccJSQ, reqs, 400)
	if err != nil {
		t.Fatal(err)
	}
	if jsq.Pools[1].Metrics.Arrived <= jsq.Pools[0].Metrics.Arrived {
		t.Errorf("JSQ sent %d to the 3×-decode pool vs %d to the 1× pool; want more to the wide pool",
			jsq.Pools[1].Metrics.Arrived, jsq.Pools[0].Metrics.Arrived)
	}
}

func TestJSQRoutesAroundFailures(t *testing.T) {
	// Same two pools under an accelerated failure clock: JSQ should not
	// collapse; every arrival still lands somewhere and aggregates hold.
	cfg := smallConfig()
	cc := clusterOf(cfg, cfg)
	cc.Router = JoinShortestQueue
	cc.Failures = acceleratedFailures(1)
	reqs := codingTrace(t, 2.0, 31, 300)
	cm, err := RunCluster(cc, reqs, 420)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Total.FailureEvents == 0 {
		t.Fatal("no failures fired")
	}
	if cm.Total.Arrived != len(reqs) {
		t.Errorf("arrivals %d, want %d", cm.Total.Arrived, len(reqs))
	}
	if cm.Total.Completed == 0 {
		t.Error("cluster served nothing under failures")
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := RunCluster(ClusterConfig{}, nil, 10); err == nil {
		t.Error("empty cluster accepted")
	}
	bad := smallConfig()
	bad.MaxDecodeBatch = 0
	if _, err := RunCluster(clusterOf(bad), nil, 10); err == nil {
		t.Error("invalid pool accepted")
	}
	big := smallConfig()
	big.Model = model.Llama3_405B()
	if _, err := RunCluster(clusterOf(big), nil, 10); err == nil {
		t.Error("oversized model accepted")
	}
}

func TestBlastRadiusScalesWithInstanceCount(t *testing.T) {
	// The paper's serving-level fault-tolerance claim in miniature: at
	// equal aggregate compute, a deployment of many small instances
	// loses a smaller capacity fraction per failure than one of few big
	// instances.
	big := smallConfig() // 1×1P + 1×1D H100
	lite := smallConfig()
	lite.GPU = hw.Lite()
	lite.PrefillInstances = 4 // 4×1P + 4×1D quarter-GPUs
	lite.DecodeInstances = 4
	if inference.MaxFeasibleBatch(lite.GPU, lite.Model, inference.Decode, 1, lite.Opts) < 1 {
		t.Skip("Llama3-8B no longer fits one Lite GPU")
	}
	reqs := codingTrace(t, 0.5, 5, 120)
	mBig, err := Run(big, reqs, 240)
	if err != nil {
		t.Fatal(err)
	}
	mLite, err := Run(lite, reqs, 240)
	if err != nil {
		t.Fatal(err)
	}
	if mLite.BlastRadius >= mBig.BlastRadius {
		t.Errorf("Lite blast radius %v not below big-GPU %v", mLite.BlastRadius, mBig.BlastRadius)
	}
	if math.Abs(mLite.BlastRadius-0.125) > 1e-12 {
		t.Errorf("8-instance blast radius = %v, want 1/8", mLite.BlastRadius)
	}
}

// mergeTrace is a two-tenant stream for the merge test: a priority
// paid tier and a heavier free tier with a mid-run flash crowd.
func mergeTrace(t *testing.T, seed uint64) []trace.Request {
	t.Helper()
	mg := trace.MultiGenerator{
		Classes: []trace.TenantClass{
			{Name: "paid", Gen: trace.ConversationWorkload(4, 0), Priority: 1},
			{Name: "free", Gen: trace.ConversationWorkload(12, 0), Priority: 0},
		},
		Envelope: trace.Envelope{Flash: []trace.FlashCrowd{{At: 30, Duration: 30, Factor: 3}}},
		Seed:     seed,
	}
	reqs, err := mg.Generate(90)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// mergeCluster builds a cluster of the given pools, each a copy of an
// H100 or Lite deployment with tenant classes, closed-loop clients,
// adaptive admission and scarce KV memory, on a packet fabric with
// accelerated failures. The last pool autoscales its decode fleet.
func mergeCluster(seed uint64, gpus ...hw.GPU) ClusterConfig {
	var cc ClusterConfig
	for i, g := range gpus {
		cfg := smallConfig()
		if g.Name != cfg.GPU.Name {
			cfg = lite4Of(cfg)
		}
		cfg.DecodeInstances = 2
		cfg.KV = kv.Config{Policy: kv.Recompute, Blocks: 600}
		cfg.Client = ClientConfig{
			Classes: []ClientBehavior{
				{Timeout: 20, Retries: 2, BackoffBase: 1, TTFTSLO: 2},
				{Timeout: 10, Retries: 1, BackoffBase: 2},
			},
			Seed: seed,
		}
		cfg.Admission = AdmissionConfig{Policy: AdmitAdaptive, QueueLimit: 16, Levels: 2}
		if i == len(gpus)-1 {
			cfg.Autoscale = AutoscaleConfig{
				Enabled: true, Interval: 5, HighWater: 6, LowWater: 1, MinInstances: 1, WarmUp: 5,
			}
		}
		cc.Pools = append(cc.Pools, Pool{Config: cfg})
	}
	cc.Router = JoinShortestQueue
	cc.Network = pluggablePacket()
	cc.Failures = acceleratedFailures(1)
	cc.Failures.Seed = seed
	return cc
}

// sumInts checks that every int field of total equals the sum of that
// field over parts.
func sumInts(t *testing.T, what string, total any, parts []any) {
	t.Helper()
	tv := reflect.ValueOf(total)
	for f := 0; f < tv.NumField(); f++ {
		if tv.Field(f).Kind() != reflect.Int || tv.Type().Field(f).Name == "Class" {
			continue
		}
		sum := int64(0)
		for _, p := range parts {
			sum += reflect.ValueOf(p).Field(f).Int()
		}
		if got := tv.Field(f).Int(); got != sum {
			t.Errorf("%s.%s = %d, want the pools' sum %d", what, tv.Type().Field(f).Name, got, sum)
		}
	}
}

// TestClusterTotalIsMergeOfPools pins the aggregation rule on mixed
// H100 and Lite clusters that no golden covers: the total's counts and
// sample counts are the sums over its pools, a one-pool total is its
// pool apart from the capacity-weighted fields, and a pool's Classes
// never alias the total's.
func TestClusterTotalIsMergeOfPools(t *testing.T) {
	if inference.MaxFeasibleBatch(hw.Lite(), model.Llama3_8B(), inference.Decode, 4, inference.DefaultOptions()) < 1 {
		t.Skip("Llama3-8B no longer fits four Lite GPUs")
	}
	h100, lite := hw.H100(), hw.Lite()
	shapes := [][]hw.GPU{{h100, lite}, {lite, h100, lite}}
	var shed, failures, transfers, preempts int
	for _, seed := range []uint64{1, 2, 3} {
		reqs := mergeTrace(t, seed)
		for _, gpus := range shapes {
			cm, err := RunCluster(mergeCluster(seed, gpus...), reqs, 120)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("seed %d, %d pools", seed, len(gpus))
			tot := cm.Total
			shed += tot.Shed
			failures += tot.FailureEvents
			transfers += tot.NetTransfers
			preempts += tot.KVPreemptions

			var pools, classes []any
			var ttftN, tbtN, e2eN, xferN int
			var kvMean, live float64
			nClasses := 0
			for _, pm := range cm.Pools {
				m := pm.Metrics
				pools = append(pools, m)
				ttftN += m.TTFT.N
				tbtN += m.TBT.N
				e2eN += m.E2E.N
				xferN += m.TransferTime.N
				kvMean += m.KVMeanBlocks
				live += m.MeanLiveInstances
				nClasses = max(nClasses, len(m.Classes))
			}
			sumInts(t, name+": Total", tot, pools)
			if tot.TTFT.N != ttftN || tot.TBT.N != tbtN || tot.E2E.N != e2eN || tot.TransferTime.N != xferN {
				t.Errorf("%s: total sample counts TTFT %d TBT %d E2E %d transfers %d, pools sum to %d %d %d %d",
					name, tot.TTFT.N, tot.TBT.N, tot.E2E.N, tot.TransferTime.N, ttftN, tbtN, e2eN, xferN)
			}
			if tot.KVMeanBlocks != kvMean || tot.MeanLiveInstances != live {
				t.Errorf("%s: KVMeanBlocks %v MeanLiveInstances %v, pools sum to %v %v",
					name, tot.KVMeanBlocks, tot.MeanLiveInstances, kvMean, live)
			}
			if len(tot.Classes) != nClasses || nClasses == 0 {
				t.Fatalf("%s: total has %d classes, pools up to %d", name, len(tot.Classes), nClasses)
			}
			for ci, c := range tot.Classes {
				classes = classes[:0]
				for _, pm := range cm.Pools {
					if ci < len(pm.Metrics.Classes) {
						classes = append(classes, pm.Metrics.Classes[ci])
					} else {
						classes = append(classes, ClassMetrics{})
					}
				}
				sumInts(t, fmt.Sprintf("%s: Total.Classes[%d]", name, ci), c, classes)
			}
		}

		// One pool: the total is the pool, except where the cluster
		// weighs capacity its own way.
		cm, err := RunCluster(mergeCluster(seed, lite), reqs, 120)
		if err != nil {
			t.Fatal(err)
		}
		tot, pool := cm.Total, cm.Pools[0].Metrics
		for _, m := range []*Metrics{&tot, &pool} {
			m.PrefillUtilization, m.DecodeUtilization, m.Availability, m.BlastRadius = 0, 0, 0, 0
		}
		if !reflect.DeepEqual(tot, pool) {
			t.Errorf("seed %d: one-pool total diverges from its pool:\n%+v\nvs\n%+v", seed, tot, pool)
		}
		want := slices.Clone(cm.Total.Classes)
		for i := range cm.Pools[0].Metrics.Classes {
			cm.Pools[0].Metrics.Classes[i].Arrived = -1
		}
		if !reflect.DeepEqual(cm.Total.Classes, want) {
			t.Errorf("seed %d: writing a pool's Classes changed the total's", seed)
		}
	}
	if shed == 0 || failures == 0 || transfers == 0 || preempts == 0 {
		t.Errorf("clusters too tame to test the merge: shed %d, failures %d, transfers %d, preemptions %d",
			shed, failures, transfers, preempts)
	}
}

// TestOutOfOrderSourceIsAnError feeds the simulator request streams
// that break the RequestSource contract. A source is user input to
// ServeFrom and ServeClusterFrom, so the run must return an error
// naming the offending request, not panic.
func TestOutOfOrderSourceIsAnError(t *testing.T) {
	req := func(id int, at float64) trace.Request {
		return trace.Request{ID: id, Arrival: units.Seconds(at), PromptTokens: 100, OutputTokens: 10}
	}
	cases := []struct {
		name string
		reqs []trace.Request
		bad  int
	}{
		{"decreasing", []trace.Request{req(0, 1), req(1, 2), req(2, 1.5), req(3, 3)}, 2},
		{"nan-first", []trace.Request{req(0, math.NaN()), req(1, 1)}, 0},
	}
	for _, tc := range cases {
		_, err := RunClusterFrom(clusterOf(smallConfig()), &sliceSource{reqs: tc.reqs}, 60)
		if want := fmt.Sprintf("request %d arriving", tc.bad); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: RunClusterFrom err %v, want one naming %q", tc.name, err, want)
		}
	}
	// A materialized trace with a NaN arrival reaches the same check.
	if _, err := Run(smallConfig(), []trace.Request{req(0, math.NaN())}, 60); err == nil {
		t.Error("Run over a NaN arrival returned no error")
	}
}
