package serve

import (
	"testing"

	"litegpu/internal/failure"
	"litegpu/internal/hw"
	"litegpu/internal/inference"
	"litegpu/internal/model"
)

// schedulerGoldenFile extends the byte-identity corpus to the colocated
// policies (ContinuousBatching, ChunkedPrefill) and to failure
// injection under all three schedulers. Like static_goldens.txt it was
// first captured with LITEGPU_UPDATE_GOLDENS=1 at the commit BEFORE the
// allocation-free hot-path rework (PR 4), so the whole optimization is
// provably byte-identical under every scheduling discipline — including
// mid-run instance failures, requeues, and drops.
const schedulerGoldenFile = "testdata/scheduler_goldens.txt"

// schedulerGoldenScenarios covers what static_goldens.txt cannot: the
// two colocated policies on both GPU types and workload shapes, chunked
// prefill at a non-default chunk size, and the no-drain + decode-heavy +
// TimeScale 8e6 failure regime (the only parameterization in which
// failures demonstrably bite mid-window) under each policy, with both
// the requeue and drop in-flight policies and a spared variant.
func schedulerGoldenScenarios(t *testing.T) []goldenScenario {
	smallAt := func(pol SchedulerPolicy) Config {
		cfg := Config{
			GPU:              hw.H100(),
			Model:            model.Llama3_8B(),
			Opts:             inference.DefaultOptions(),
			PrefillInstances: 1,
			PrefillGPUs:      1,
			DecodeInstances:  1,
			DecodeGPUs:       1,
			MaxPrefillBatch:  4,
			MaxDecodeBatch:   64,
		}
		cfg.Scheduler = pol
		return cfg
	}
	cont := smallAt(ContinuousBatching) // derives 2×1-GPU colocated
	chunk := smallAt(ChunkedPrefill)
	chunk.PrefillChunk = 256
	l70c := Config{
		GPU:              hw.Lite(),
		Model:            model.Llama3_70B(),
		Opts:             inference.DefaultOptions(),
		Scheduler:        ContinuousBatching,
		PrefillInstances: 2,
		PrefillGPUs:      8,
		DecodeInstances:  1,
		DecodeGPUs:       8,
		MaxPrefillBatch:  4,
		MaxDecodeBatch:   64,
	}
	l70k := l70c
	l70k.Scheduler = ChunkedPrefill // default 512-token chunks, long prompts

	// The accelerated failure regime: no drain window (arrive ==
	// horizon), decode-heavy conversation traffic, failure clock ×8e6
	// with a 300 s repair — an instance that dies mid-window stays dead
	// unless a spare takes over.
	fail := func(cfg Config, spares int, policy FailurePolicy) ClusterConfig {
		p := failure.DefaultParams()
		p.MTTR = 300
		p.RecoveryTime = 5
		cc := clusterOf(cfg)
		cc.Failures = FailureConfig{
			Enabled:   true,
			Params:    p,
			Spares:    spares,
			Policy:    policy,
			TimeScale: 8e6,
			Seed:      99,
		}
		return cc
	}
	return []goldenScenario{
		{name: "continuous-small-coding", cluster: clusterOf(cont), reqs: codingTrace(t, 1.0, 7, 200), horizon: 400},
		{name: "chunked256-small-coding", cluster: clusterOf(chunk), reqs: codingTrace(t, 1.0, 7, 200), horizon: 400},
		{name: "continuous-lite-70b", cluster: clusterOf(l70c), reqs: codingTrace(t, 1.2, 42, 300), horizon: 420},
		{name: "chunked-lite-70b", cluster: clusterOf(l70k), reqs: codingTrace(t, 1.2, 42, 300), horizon: 420},
		{name: "continuous-small-conv-nodrain", cluster: clusterOf(cont), reqs: convTrace(t, 4.0, 11, 300), horizon: 300},
		{name: "static-fail-requeue", cluster: fail(smallAt(StaticDisaggregated), 0, RequeueOnFailure), reqs: convTrace(t, 4.0, 11, 300), horizon: 300},
		{name: "static-fail-drop", cluster: fail(smallAt(StaticDisaggregated), 0, DropOnFailure), reqs: convTrace(t, 4.0, 11, 300), horizon: 300},
		{name: "continuous-fail-requeue", cluster: fail(cont, 0, RequeueOnFailure), reqs: convTrace(t, 4.0, 11, 300), horizon: 300},
		{name: "continuous-fail-spared", cluster: fail(cont, 1, RequeueOnFailure), reqs: convTrace(t, 4.0, 11, 300), horizon: 300},
		{name: "chunked-fail-requeue", cluster: fail(chunk, 0, RequeueOnFailure), reqs: convTrace(t, 4.0, 11, 300), horizon: 300},
		{name: "chunked-fail-drop", cluster: fail(chunk, 1, DropOnFailure), reqs: convTrace(t, 4.0, 11, 300), horizon: 300},
	}
}

// TestSchedulerGoldens pins all three scheduling policies — including
// under failure injection — to the exact Metrics the pre-optimization
// simulator produced. Together with the static corpus it is the
// byte-identity contract for the allocation-free hot path: hex-float
// rendering leaves no room for float drift, summation reordering, or
// event-order changes. Regenerate (only when knowingly changing
// simulator semantics) with:
//
//	LITEGPU_UPDATE_GOLDENS=1 go test ./internal/serve -run Golden
func TestSchedulerGoldens(t *testing.T) {
	compareGoldens(t, schedulerGoldenFile, goldenReport(t, schedulerGoldenScenarios(t)))
}
