package serve

import (
	"math"
	"reflect"
	"testing"

	"litegpu/internal/failure"
	"litegpu/internal/inference"
	"litegpu/internal/trace"
	"litegpu/internal/units"
)

// withScheduler returns smallConfig reshaped for the given policy; for
// the colocated policies this is the identical silicon (2×1 GPU)
// derived from the phase-split fields, so cross-policy comparisons are
// equal-hardware by construction.
func withScheduler(pol SchedulerPolicy) Config {
	cfg := smallConfig()
	cfg.Scheduler = pol
	return cfg
}

func TestSchedulerPolicyNamesRoundTrip(t *testing.T) {
	for _, pol := range SchedulerPolicies() {
		got, err := ParseSchedulerPolicy(pol.String())
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if got != pol {
			t.Errorf("round trip %v → %q → %v", pol, pol.String(), got)
		}
	}
	if _, err := ParseSchedulerPolicy("fifo"); err == nil {
		t.Error("unknown scheduler name accepted")
	}
	if StaticDisaggregated.Colocated() || !ContinuousBatching.Colocated() || !ChunkedPrefill.Colocated() {
		t.Error("Colocated misclassifies a policy")
	}
}

func TestColocatedShapeDerivation(t *testing.T) {
	cfg := smallConfig() // 1×1P + 1×1D = 2 GPUs
	cfg.Scheduler = ContinuousBatching
	if n, g := cfg.ColocatedShape(); n != 2 || g != 1 {
		t.Errorf("derived shape = %d×%d, want 2×1 (same silicon)", n, g)
	}
	if cfg.TotalGPUs() != 2 {
		t.Errorf("TotalGPUs = %d, want 2", cfg.TotalGPUs())
	}
	cfg.Instances, cfg.InstanceGPUs = 3, 4
	if n, g := cfg.ColocatedShape(); n != 3 || g != 4 {
		t.Errorf("explicit shape = %d×%d, want 3×4", n, g)
	}
	if cfg.TotalGPUs() != 12 {
		t.Errorf("explicit TotalGPUs = %d, want 12", cfg.TotalGPUs())
	}
}

func TestColocatedValidation(t *testing.T) {
	small := smallConfig()
	cfg := Config{
		GPU: small.GPU, Model: small.Model, Opts: small.Opts,
		Scheduler: ContinuousBatching, Instances: 1, InstanceGPUs: 1,
		MaxPrefillBatch: 4, MaxDecodeBatch: 64,
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("colocated config without phase-split fields rejected: %v", err)
	}
	bad := cfg
	bad.Instances, bad.InstanceGPUs = 0, 0
	if err := bad.Validate(); err == nil {
		t.Error("underived colocated shape accepted")
	}
	neg := cfg
	neg.PrefillChunk = -1
	neg.Scheduler = ChunkedPrefill
	if err := neg.Validate(); err == nil {
		t.Error("negative prefill chunk accepted")
	}
}

// Each policy must serve a single-request trace: the most degenerate
// schedule there is — one prompt, no batching, no contention.
func TestSingleRequestTraceAllPolicies(t *testing.T) {
	for _, pol := range SchedulerPolicies() {
		cfg := withScheduler(pol)
		m, err := Run(cfg, oneRequest(1500, 10), 600)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if m.Completed != 1 || m.Arrived != 1 {
			t.Errorf("%v: completed %d of %d, want 1 of 1", pol, m.Completed, m.Arrived)
		}
		if m.TokensGenerated != 10 {
			t.Errorf("%v: generated %d tokens, want 10", pol, m.TokensGenerated)
		}
		if m.TTFT.N != 1 || m.TBT.N != 1 || m.E2E.N != 1 {
			t.Errorf("%v: sample counts TTFT=%d TBT=%d E2E=%d, want 1 each", pol, m.TTFT.N, m.TBT.N, m.E2E.N)
		}
		if m.TTFT.Mean <= 0 || m.E2E.Mean <= m.TTFT.Mean {
			t.Errorf("%v: implausible latencies TTFT=%v E2E=%v", pol, m.TTFT.Mean, m.E2E.Mean)
		}
	}
}

// A prompt longer than the chunk size must be split into ⌈prompt/chunk⌉
// chunk passes: chunked TTFT for an uncontended request equals the sum
// of its chunk durations, strictly above the single full-pass TTFT.
func TestPromptLongerThanChunkSize(t *testing.T) {
	chunk := 256
	prompt := 1536 // exactly 6 chunks, every one full and 64-aligned
	cont := withScheduler(ContinuousBatching)
	chk := withScheduler(ChunkedPrefill)
	chk.PrefillChunk = chunk

	mCont, err := Run(cont, oneRequest(prompt, 5), 600)
	if err != nil {
		t.Fatal(err)
	}
	mChk, err := Run(chk, oneRequest(prompt, 5), 600)
	if err != nil {
		t.Fatal(err)
	}
	if mChk.Completed != 1 || mCont.Completed != 1 {
		t.Fatalf("completions: chunked %d, continuous %d, want 1 each", mChk.Completed, mCont.Completed)
	}

	opts := chk.Opts
	opts.PromptLen = chunk
	step, err := inference.Run(chk.GPU, chk.Model, inference.Prefill, 1, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(step.Latency) * float64(prompt/chunk)
	if rel := math.Abs(mChk.TTFT.Mean-want) / want; rel > 0.01 {
		t.Errorf("chunked TTFT %v, want %v (6 × %v chunk passes)", mChk.TTFT.Mean, want, step.Latency)
	}
	if mChk.TTFT.Mean <= mCont.TTFT.Mean {
		t.Errorf("chunked TTFT %v not above continuous %v — chunking is free only if it never ran",
			mChk.TTFT.Mean, mCont.TTFT.Mean)
	}
}

// A prompt shorter than the chunk size is one (truncated) chunk: the
// chunked scheduler must not pad it to the full chunk length.
func TestPromptShorterThanChunkSize(t *testing.T) {
	chk := withScheduler(ChunkedPrefill)
	chk.PrefillChunk = 2048
	prompt := 640
	m, err := Run(chk, oneRequest(prompt, 5), 600)
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != 1 {
		t.Fatalf("completed = %d, want 1", m.Completed)
	}
	opts := chk.Opts
	opts.PromptLen = prompt
	pass, err := inference.Run(chk.GPU, chk.Model, inference.Prefill, 1, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(m.TTFT.Mean-float64(pass.Latency)) / float64(pass.Latency); rel > 0.01 {
		t.Errorf("sub-chunk TTFT %v, want one %v pass at the prompt's own length", m.TTFT.Mean, pass.Latency)
	}
}

// Batch-of-one decode: an uncontended generation under the colocated
// policies emits one token per consecutive step, so its inter-token
// intervals must match the analytical batch-1 decode latency — the
// colocated analogue of TestSingleRequestTBTMatchesAnalyticalModel.
func TestBatchOfOneDecodeColocated(t *testing.T) {
	for _, pol := range []SchedulerPolicy{ContinuousBatching, ChunkedPrefill} {
		cfg := withScheduler(pol)
		m, err := Run(cfg, oneRequest(1500, 50), 600)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		want, err := inference.Run(cfg.GPU, cfg.Model, inference.Decode, 1, 1, cfg.Opts)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(m.TBT.Mean-float64(want.Latency)) / float64(want.Latency); rel > 0.01 {
			t.Errorf("%v: batch-1 TBT %v vs analytical %v", pol, m.TBT.Mean, want.Latency)
		}
	}
}

// Colocated policies must drop a prompt that can never fit, exactly as
// the static policy does, and keep serving the queue behind it.
func TestOversizedPromptDroppedAllPolicies(t *testing.T) {
	reqs := []trace.Request{
		{ID: 0, Arrival: 0, PromptTokens: 5_000_000, OutputTokens: 5},
		{ID: 1, Arrival: 0.5, PromptTokens: 800, OutputTokens: 5},
	}
	for _, pol := range SchedulerPolicies() {
		m, err := Run(withScheduler(pol), reqs, 600)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if m.Dropped != 1 || m.Completed != 1 {
			t.Errorf("%v: dropped %d completed %d, want 1 and 1", pol, m.Dropped, m.Completed)
		}
	}
}

// burstyDecodeHeavy is a Markov-modulated (MMPP) conversation-style
// stream: long outputs relative to prompts, with 4× arrival bursts.
// Decode work dominates, which is exactly where a static phase split
// strands its prefill silicon.
func burstyDecodeHeavy(t *testing.T, rate float64, seed uint64, horizon units.Seconds) []trace.Request {
	t.Helper()
	gen := trace.ConversationWorkload(rate, seed)
	gen.BurstFactor = 4
	gen.BurstFraction = 0.25
	gen.BurstDwell = 40
	reqs, err := gen.Generate(horizon)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// ISSUE 3 acceptance: on a bursty decode-heavy trace at equal hardware
// (2 GPUs each), continuous batching out-serves the static phase split
// — the static decode engine saturates while its prefill engine idles,
// and the colocated pool turns that stranded capacity into goodput.
func TestContinuousBeatsStaticOnBurstyDecodeHeavyTrace(t *testing.T) {
	reqs := burstyDecodeHeavy(t, 8.0, 11, 300)
	// MaxDecodeBatch 8 keeps per-instance decode capacity below the
	// offered load, so the static pool's lone decode engine saturates
	// (its prefill engine idling at ~17%) while the colocated pool
	// decodes on both instances. No drain: run horizon == arrival
	// window, so a backlogged pool cannot quietly catch up after
	// arrivals stop.
	static := withScheduler(StaticDisaggregated)
	static.MaxDecodeBatch = 8
	cont := withScheduler(ContinuousBatching)
	cont.MaxDecodeBatch = 8
	mStatic, err := Run(static, reqs, 300)
	if err != nil {
		t.Fatal(err)
	}
	mCont, err := Run(cont, reqs, 300)
	if err != nil {
		t.Fatal(err)
	}
	if mCont.Goodput <= mStatic.Goodput {
		t.Errorf("continuous goodput %.1f not above static %.1f on a decode-heavy MMPP trace",
			mCont.Goodput, mStatic.Goodput)
	}
	if mCont.Completed <= mStatic.Completed {
		t.Errorf("continuous completed %d not above static %d", mCont.Completed, mStatic.Completed)
	}
}

// longPromptTrace stresses prefill stalls: coding-style prompts pushed
// to several-thousand-token medians with modest outputs, so full-pass
// prefills repeatedly interrupt ongoing decodes.
func longPromptTrace(t *testing.T, rate float64, seed uint64, horizon units.Seconds) []trace.Request {
	t.Helper()
	gen := trace.Generator{
		Rate:         rate,
		PromptMedian: 6000, PromptP99: 8000,
		OutputMedian: 150, OutputP99: 600,
		MaxTokens: 8192,
		Seed:      seed,
	}
	reqs, err := gen.Generate(horizon)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// ISSUE 3 acceptance: on a long-prompt trace, chunked prefill bounds
// the decode stall per fused step by the chunk size, so its p99
// time-between-tokens comes in under continuous batching's (whose
// stalls last a whole multi-thousand-token prefill pass).
func TestChunkedLowersTailTBTOnLongPromptTrace(t *testing.T) {
	reqs := longPromptTrace(t, 1.5, 7, 300)
	mCont, err := Run(withScheduler(ContinuousBatching), reqs, 400)
	if err != nil {
		t.Fatal(err)
	}
	chk := withScheduler(ChunkedPrefill)
	chk.PrefillChunk = 512
	mChk, err := Run(chk, reqs, 400)
	if err != nil {
		t.Fatal(err)
	}
	if mChk.TBT.P99 >= mCont.TBT.P99 {
		t.Errorf("chunked TBT p99 %.4f not below continuous %.4f on long prompts",
			mChk.TBT.P99, mCont.TBT.P99)
	}
	if mChk.Completed == 0 || mCont.Completed == 0 {
		t.Fatal("a policy served nothing; the comparison is vacuous")
	}
}

// Failure injection, requeue/drop, and hot spares must work under every
// policy (no-drain decode-heavy traffic, TimeScale 8e6, per the failure
// test regime that makes outages actually bite).
func TestFailureMachineryAcrossPolicies(t *testing.T) {
	reqs := failureTrace(t)
	for _, pol := range SchedulerPolicies() {
		cfg := withScheduler(pol)
		clean, err := Run(cfg, reqs, 300)
		if err != nil {
			t.Fatalf("%v clean: %v", pol, err)
		}

		cc := clusterOf(cfg)
		cc.Failures = acceleratedFailures(0)
		faulty, err := RunCluster(cc, reqs, 300)
		if err != nil {
			t.Fatalf("%v faulty: %v", pol, err)
		}
		m := faulty.Total
		if m.FailureEvents == 0 {
			t.Fatalf("%v: accelerated failure clock produced no failures", pol)
		}
		if m.Availability >= 1 || m.Availability <= 0 {
			t.Errorf("%v: Availability = %v, want in (0, 1)", pol, m.Availability)
		}
		if m.Completed >= clean.Completed {
			t.Errorf("%v: failures did not reduce completions: %d vs clean %d", pol, m.Completed, clean.Completed)
		}
		if m.Requeued == 0 {
			t.Errorf("%v: requeue policy never requeued despite failures", pol)
		}
		if m.DroppedOnFailure != 0 {
			t.Errorf("%v: requeue policy dropped %d requests", pol, m.DroppedOnFailure)
		}

		ccDrop := clusterOf(cfg)
		ccDrop.Failures = acceleratedFailures(0)
		ccDrop.Failures.Policy = DropOnFailure
		dropped, err := RunCluster(ccDrop, reqs, 300)
		if err != nil {
			t.Fatalf("%v drop: %v", pol, err)
		}
		if dropped.Total.DroppedOnFailure == 0 {
			t.Errorf("%v: drop policy never dropped despite failures", pol)
		}
		if dropped.Total.Requeued != 0 {
			t.Errorf("%v: drop policy requeued %d requests", pol, dropped.Total.Requeued)
		}

		ccSpares := clusterOf(cfg)
		ccSpares.Failures = acceleratedFailures(2)
		spared, err := RunCluster(ccSpares, reqs, 300)
		if err != nil {
			t.Fatalf("%v spares: %v", pol, err)
		}
		if spared.Total.Availability <= m.Availability {
			t.Errorf("%v: 2 spares availability %v not above 0 spares %v",
				pol, spared.Total.Availability, m.Availability)
		}
		if spared.Total.Completed <= m.Completed {
			t.Errorf("%v: 2 spares completed %d not above 0 spares %d",
				pol, spared.Total.Completed, m.Completed)
		}
	}
}

// A failure mid-chunk must not duplicate or lose prompt chunks. The
// test drives the event engine by hand: it stops the simulation inside
// a chunk pass, kills the instance, and checks the head request's
// prefill progress is exactly its completed chunks — then lets the
// spare take over and verifies the request still finishes with the
// right token counts, exactly one TTFT sample, and one requeue.
func TestFailureMidChunkNeitherDuplicatesNorLosesChunks(t *testing.T) {
	cfg := withScheduler(ChunkedPrefill)
	cfg.Instances, cfg.InstanceGPUs = 1, 1
	cfg.PrefillChunk = 512
	const prompt, output = 2048, 4 // 4 full chunks
	fp := failure.DefaultParams()
	fp.MTTR = 30
	fp.RecoveryTime = 1
	cc := ClusterConfig{
		Pools: []Pool{{Config: cfg}},
		// Enabled with a 1-unit spare shelf, but no failure processes:
		// TimeScale 0 keeps rates at their (negligible) real-time values
		// and the test injects the failure itself, deterministically.
		Failures: FailureConfig{Enabled: true, Params: fp, Spares: 1, Seed: 1},
	}
	s, err := newClusterSim(cc, 600)
	if err != nil {
		t.Fatal(err)
	}
	p := s.pools[0]
	sched := p.sched.(*colocSched)

	// Arrival at t=0, by hand (run() would execute to completion).
	p.sched.enqueue(p.newActive(trace.Request{ID: 0, Arrival: 0, PromptTokens: prompt, OutputTokens: output}))
	p.m.Arrived++
	s.requestDispatch(p, 0)

	// Step the engine until the second chunk pass is in flight.
	e := &sched.engines[0]
	for i := 0; i < 100; i++ {
		if e.stepChunk > 0 && e.pending.At(0).promptLeft == prompt-512 {
			break
		}
		if !s.eng.Step() {
			t.Fatal("engine drained before the second chunk pass started")
		}
	}
	if e.stepChunk == 0 {
		t.Fatal("never observed an in-flight chunk pass")
	}
	head := e.pending.At(0)
	if head.promptLeft != prompt-512 {
		t.Fatalf("premise: promptLeft = %d, want %d after one completed chunk", head.promptLeft, prompt-512)
	}

	// Kill the instance mid-chunk.
	s.failInstance(p, 0, s.eng.Now())
	if head.promptLeft != prompt-512 {
		t.Errorf("mid-chunk failure changed promptLeft to %d: the in-flight chunk must be lost, completed ones kept",
			head.promptLeft)
	}
	if p.m.Requeued != 1 {
		t.Errorf("Requeued = %d, want 1", p.m.Requeued)
	}

	// Let the spare take over and the request finish.
	s.eng.Run(600)
	m := s.assemble().Pools[0].Metrics
	if m.Completed != 1 {
		t.Fatalf("Completed = %d, want 1 after recovery", m.Completed)
	}
	if m.TokensGenerated != output {
		t.Errorf("TokensGenerated = %d, want %d (no duplicated decode steps)", m.TokensGenerated, output)
	}
	if m.TTFT.N != 1 {
		t.Errorf("TTFT samples = %d, want exactly 1 across the requeue", m.TTFT.N)
	}
	// Prefill progress resumed from chunk 2 of 4: total chunk passes run
	// is 1 (before failure) + the aborted one (lost) + 3 (after), so the
	// TTFT must land between 4 and 5 chunk durations plus the outage.
	opts := cfg.Opts
	opts.PromptLen = 512
	chunkStep, err := inference.Run(cfg.GPU, cfg.Model, inference.Prefill, 1, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	outage := float64(fp.RecoveryTime)
	lo := 4*float64(chunkStep.Latency) + outage
	hi := 5*float64(chunkStep.Latency) + outage + 1e-9
	if m.TTFT.Mean < lo || m.TTFT.Mean > hi {
		t.Errorf("TTFT %v outside [%v, %v]: chunks were duplicated or lost across the requeue",
			m.TTFT.Mean, lo, hi)
	}
}

// Every policy must be deterministic, including under failure
// injection: identical inputs, byte-identical ClusterMetrics. CI runs
// this package with -count=2, which would additionally flush out any
// dependence on process-global state.
func TestPoliciesDeterministic(t *testing.T) {
	reqs := codingTrace(t, 1.5, 3, 200)
	for _, pol := range SchedulerPolicies() {
		cc := clusterOf(withScheduler(pol))
		cc.Failures = acceleratedFailures(1)
		a, err := RunCluster(cc, reqs, 300)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		b, err := RunCluster(cc, reqs, 300)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: repeated runs diverge", pol)
		}
	}
}

// The planner's scheduler axis: asked for all three policies, it must
// return the cheapest per-Mtoken plan among them.
func TestPlanCapacityPicksCheapestScheduler(t *testing.T) {
	req := planRequest(20)
	req.Schedulers = SchedulerPolicies()
	best, err := PlanCapacity(req, SLO{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range SchedulerPolicies() {
		r := planRequest(20)
		r.Schedulers = []SchedulerPolicy{pol}
		plan, err := PlanCapacity(r, SLO{})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if plan.Config.Scheduler != pol {
			t.Errorf("single-policy plan came back with scheduler %v, want %v", plan.Config.Scheduler, pol)
		}
		if best.Cost.CostPerMTokens > plan.Cost.CostPerMTokens+1e-12 {
			t.Errorf("multi-policy plan ($%.6f/Mtok, %v) costlier than %v alone ($%.6f/Mtok)",
				best.Cost.CostPerMTokens, best.Config.Scheduler, pol, plan.Cost.CostPerMTokens)
		}
	}
}

// Colocated plans must size their single instance dimension minimally,
// mirroring TestPlanCapacityIsMinimal for the static policy.
func TestPlanCapacityColocatedIsMinimal(t *testing.T) {
	req := planRequest(250)
	req.Schedulers = []SchedulerPolicy{ContinuousBatching}
	slo := SLO{TTFTAttainment: 0.99, TBTAttainment: 0.99, MinCompletion: 0.95}
	plan, err := PlanCapacity(req, slo)
	if err != nil {
		t.Fatal(err)
	}
	n := plan.Config.Instances
	if n <= 1 {
		t.Fatalf("rate 250 should need more than one colocated instance; got %d", n)
	}
	reqs, err := req.Workload.Generate(req.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	cfg := plan.Config
	cfg.Instances = n - 1
	m, err := Run(cfg, reqs, req.Horizon+req.Drain)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dropped == 0 &&
		m.TTFTAttainment >= slo.TTFTAttainment &&
		m.TBTAttainment >= slo.TBTAttainment &&
		float64(m.Completed) >= slo.MinCompletion*float64(m.Arrived) {
		t.Errorf("plan with %d instances is not minimal: %d also meets the SLO", n, n-1)
	}
}
