package serve

import (
	"math"
	"strings"
	"testing"

	"litegpu/internal/hw"
	"litegpu/internal/inference"
	"litegpu/internal/kv"
	"litegpu/internal/trace"
	"litegpu/internal/units"
)

func agentTrace(t *testing.T, rate float64, seed uint64, horizon units.Seconds) []trace.Request {
	t.Helper()
	reqs, err := trace.AgentWorkload(rate, seed).Generate(horizon)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func convTrace(t *testing.T, rate float64, seed uint64, horizon units.Seconds) []trace.Request {
	t.Helper()
	reqs, err := trace.ConversationWorkload(rate, seed).Generate(horizon)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// TestKVConfigValidation pins the serve-level Config gate on kv
// parameters: block knobs without a policy are a misconfiguration, not
// a silent no-op.
func TestKVConfigValidation(t *testing.T) {
	overInt32 := int64(math.MaxInt32) + 1 // wraps negative where int is 32 bits: still rejected
	bad := []kv.Config{
		{Policy: kv.Policy(7)},
		{BlockTokens: 16},   // knobs without a policy
		{PrefixCache: true}, // ditto
		{Blocks: 100},       // ditto
		{Policy: kv.Recompute, BlockTokens: -1},
		{Policy: kv.Recompute, Blocks: -1},
		{Policy: kv.Recompute, Blocks: int(overInt32)}, // block ids are int32
	}
	for i, kc := range bad {
		cfg := smallConfig()
		cfg.KV = kc
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad kv config %d validated: %+v", i, kc)
		}
	}
	good := smallConfig()
	good.KV = kv.Config{Policy: kv.Swap, BlockTokens: 32, PrefixCache: true, Blocks: 500}
	if err := good.Validate(); err != nil {
		t.Errorf("good kv config rejected: %v", err)
	}
}

// TestKVBlockBudgetOverflowIsAnError pins that a block budget beyond
// int32 block ids — explicit (the CLI's -kv-blocks) or derived from a
// huge HBM capacity — is a configuration error returned before any
// allocator is built, never a panic or an attempt to size one.
func TestKVBlockBudgetOverflowIsAnError(t *testing.T) {
	huge := int64(3_000_000_000)
	explicit := smallConfig()
	explicit.KV = kv.Config{Policy: kv.Recompute, Blocks: int(huge)}
	if err := explicit.Validate(); err == nil {
		t.Fatal("Validate accepted a 3e9-block budget")
	}
	if _, err := Run(explicit, oneRequest(64, 8), 10); err == nil {
		t.Fatal("Run accepted a 3e9-block budget")
	}

	derived := smallConfig()
	derived.KV = kv.Config{Policy: kv.Recompute}
	derived.GPU.Capacity *= 1e5 // ~6.9e9 blocks of Llama3-8B KV
	if err := derived.Validate(); err != nil {
		t.Fatalf("Validate rejected the huge-HBM config itself: %v", err)
	}
	if _, err := Run(derived, oneRequest(64, 8), 10); err == nil || !strings.Contains(err.Error(), "int32") {
		t.Fatalf("Run with a derived budget beyond int32 block ids: err %v", err)
	}
}

// TestKVAmpleMemoryMatchesLegacy is the backward-compatibility half of
// the KV contract: with the memory model ON but the block budget far
// above any working set, no admission ever blocks, no sequence is ever
// preempted, and every metric but block occupancy must be
// byte-identical to the infinite-memory run — under all three
// scheduling disciplines. The memory model may only change outcomes
// through genuine scarcity.
func TestKVAmpleMemoryMatchesLegacy(t *testing.T) {
	reqs := convTrace(t, 4.0, 11, 120)
	for _, pol := range SchedulerPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := smallConfig()
			cfg.Scheduler = pol
			base := mustRun(t, cfg, reqs, 240)

			kvCfg := cfg
			kvCfg.KV = kv.Config{Policy: kv.Recompute, Blocks: 1 << 20}
			got := mustRun(t, kvCfg, reqs, 240)

			if got.KVPreemptions != 0 || got.KVRecomputeTokens != 0 {
				t.Fatalf("ample memory still preempted: %d preemptions, %d recomputed tokens",
					got.KVPreemptions, got.KVRecomputeTokens)
			}
			if got.KVPeakBlocks == 0 {
				t.Fatal("memory model on but no blocks ever in use")
			}
			// Block occupancy is the one thing the memory model adds.
			got.KVPeakBlocks, got.KVMeanBlocks = 0, 0
			if g, w := keyed(t, "run", got), keyed(t, "run", base); g != w {
				t.Errorf("ample-memory run diverges from infinite-memory run at %s", firstDiff(g, w))
			}
		})
	}
}

// TestKVEqualSiliconLitePreemptsMore is the paper-facing acceptance
// claim: at equal total silicon, a fleet of small-HBM Lite instances
// preempts strictly more than one big-HBM H100 deployment, because
// each Lite instance replicates the model weights out of a quarter of
// the memory and fragments the remaining KV capacity — a 256-sequence
// working set that fits comfortably in one 80 GB pool does not fit
// sliced four ways. Same trace, same aggregate compute.
func TestKVEqualSiliconLitePreemptsMore(t *testing.T) {
	reqs := convTrace(t, 100.0, 7, 150)
	kvCfg := kv.Config{Policy: kv.Recompute}

	h100 := smallConfig() // 1 prefill + 1 decode, 1×H100 each
	h100.MaxDecodeBatch = 256
	h100.KV = kvCfg
	hm := mustRun(t, h100, reqs, 300)

	lite := smallConfig()
	lite.GPU = hw.Lite() // quarter-scale: 4 of them per H100
	lite.PrefillInstances = 4
	lite.DecodeInstances = 4
	lite.MaxDecodeBatch = 256
	lite.KV = kvCfg
	lm := mustRun(t, lite, reqs, 300)

	if lm.KVPreemptions <= hm.KVPreemptions {
		t.Errorf("equal-silicon claim failed: Lite preemptions %d, H100 preemptions %d (want strictly more on Lite)",
			lm.KVPreemptions, hm.KVPreemptions)
	}
}

// TestKVDecodeBatchStaysPriceable pins the decode batch cap with paged
// KV on. Free blocks gate admission, but a decode step is still priced
// at the whole DecodeContext, so a batch above the whole-context
// MaxFeasibleBatch has no price. MaxDecodeBatch asks for four times
// that cap, and the block budget is large enough that preemption never
// shrinks the batch back under it: the cap alone must keep every step
// priceable, so every request completes within the long drain and both
// utilizations stay finite fractions.
func TestKVDecodeBatchStaysPriceable(t *testing.T) {
	reqs := convTrace(t, 100.0, 7, 30)
	for _, pol := range SchedulerPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := smallConfig()
			cfg.GPU = hw.Lite()
			cfg.PrefillInstances = 4
			cfg.DecodeInstances = 4
			cfg.Scheduler = pol
			cfg.PrefillChunk = 2048
			cfg.KV = kv.Config{Policy: kv.Recompute, Blocks: 1 << 15}
			whole := inference.MaxFeasibleBatch(cfg.GPU, cfg.Model, inference.Decode, cfg.DecodeGPUs, cfg.Opts)
			if whole < 1 {
				t.Fatalf("premise: whole-context decode cap %d", whole)
			}
			cfg.MaxDecodeBatch = 4 * whole
			m := mustRun(t, cfg, reqs, 3000)
			if m.Completed+m.Dropped != m.Arrived {
				t.Errorf("completed %d + dropped %d != arrived %d: requests stranded behind unpriceable decode steps",
					m.Completed, m.Dropped, m.Arrived)
			}
			for _, u := range []float64{m.PrefillUtilization, m.DecodeUtilization} {
				if math.IsNaN(u) || math.IsInf(u, 0) || u < 0 || u > 1 {
					t.Errorf("utilizations (%v, %v), want fractions in [0, 1]", m.PrefillUtilization, m.DecodeUtilization)
					break
				}
			}
		})
	}
}

// TestKVPrefixCachingRecoversGoodput pins the prefix-cache payoff on
// the workload it exists for: agent traffic whose requests share a few
// long system prompts. Under the same scarce block budget, turning
// prefix caching on must produce a real hit rate and recover goodput —
// shared blocks mean the same budget admits more sequences and
// recomputes less.
func TestKVPrefixCachingRecoversGoodput(t *testing.T) {
	reqs := agentTrace(t, 8.0, 42, 150)
	run := func(prefix bool) Metrics {
		cfg := smallConfig()
		cfg.KV = kv.Config{Policy: kv.Recompute, PrefixCache: prefix, Blocks: 600}
		// No drain window: goodput is throughput inside the arrival
		// window, so the recompute tax shows up as missing completions.
		return mustRun(t, cfg, reqs, 150)
	}
	plain := run(false)
	cached := run(true)

	if plain.KVCacheHitRate != 0 {
		t.Errorf("prefix caching off but hit rate %.3f", plain.KVCacheHitRate)
	}
	if cached.KVCacheHitRate <= 0.2 {
		t.Errorf("agent workload hit rate %.3f, want > 0.2", cached.KVCacheHitRate)
	}
	if cached.Goodput <= plain.Goodput {
		t.Errorf("prefix caching did not recover goodput: %.1f tok/s cached vs %.1f uncached",
			cached.Goodput, plain.Goodput)
	}
	if cached.KVRecomputeTokens > plain.KVRecomputeTokens {
		t.Errorf("prefix caching increased recompute: %d cached vs %d uncached",
			cached.KVRecomputeTokens, plain.KVRecomputeTokens)
	}
}

// TestKVPeakRespectsBudget pins the resource accounting itself: under
// an explicit per-instance block budget, the reported peak can never
// exceed budget × instances, and a scarce run must actually preempt.
func TestKVPeakRespectsBudget(t *testing.T) {
	const blocks = 500
	reqs := convTrace(t, 8.0, 3, 120)
	for _, pol := range SchedulerPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := smallConfig()
			cfg.Scheduler = pol
			cfg.KV = kv.Config{Policy: kv.Recompute, Blocks: blocks}
			m := mustRun(t, cfg, reqs, 240)
			instances := cfg.DecodeInstances
			if pol.Colocated() {
				instances, _ = cfg.ColocatedShape()
			}
			if m.KVPeakBlocks > blocks*instances {
				t.Errorf("peak %d blocks exceeds budget %d×%d", m.KVPeakBlocks, blocks, instances)
			}
			if m.KVPeakBlocks == 0 {
				t.Error("no blocks ever in use")
			}
			if m.KVMeanBlocks <= 0 || m.KVMeanBlocks > float64(m.KVPeakBlocks) {
				t.Errorf("mean blocks %.2f outside (0, peak %d]", m.KVMeanBlocks, m.KVPeakBlocks)
			}
			if m.KVPreemptions == 0 {
				t.Error("scarce budget but no preemptions — pressure scenario is vacuous")
			}
		})
	}
}

// TestKVSwapPricedOnFabric pins the swap policy's network coupling: on
// an in-loop fabric, every preemption round-trips the victim's blocks
// through remote memory as real transfers, so a swapping run must
// report strictly more fabric transfers than the same run under
// recompute (which moves no bytes for preemption).
func TestKVSwapPricedOnFabric(t *testing.T) {
	reqs := convTrace(t, 4.0, 11, 120)
	run := func(pol kv.Policy) Metrics {
		cfg := l70Config()
		cfg.Network = pluggablePacket()
		cfg.KV = kv.Config{Policy: pol, Blocks: 800}
		return mustRun(t, cfg, reqs, 240)
	}
	rec := run(kv.Recompute)
	swp := run(kv.Swap)
	if rec.KVPreemptions == 0 || swp.KVPreemptions == 0 {
		t.Fatalf("pressure scenario vacuous: %d recompute / %d swap preemptions",
			rec.KVPreemptions, swp.KVPreemptions)
	}
	if swp.NetTransfers <= rec.NetTransfers {
		t.Errorf("swap transfers %d not above recompute's %d — swaps are not riding the fabric",
			swp.NetTransfers, rec.NetTransfers)
	}
	if swp.KVRecomputeTokens != 0 {
		t.Errorf("swap policy recomputed %d tokens", swp.KVRecomputeTokens)
	}
	if rec.KVRecomputeTokens == 0 {
		t.Error("recompute policy preempted but recomputed nothing")
	}
}

// TestKVPlanPolicyAxis pins the planner's memory axis: a KVPolicies
// list sizes every candidate independently and the winning plan
// carries its kv config, exactly as the fabric axis does.
func TestKVPlanPolicyAxis(t *testing.T) {
	req := planRequest(6)
	req.KVPolicies = []kv.Config{{}, {Policy: kv.Recompute, PrefixCache: true}}
	plan, err := PlanCapacity(req, SLO{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Config.PrefillInstances <= 0 && plan.Config.Instances <= 0 {
		t.Fatalf("empty plan: %+v", plan.Config)
	}
	// The winner must be one of the candidates, verbatim.
	if plan.Config.KV != req.KVPolicies[0] && plan.Config.KV != req.KVPolicies[1] {
		t.Errorf("plan kv config %+v is not one of the candidates", plan.Config.KV)
	}
}
