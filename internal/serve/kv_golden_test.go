package serve

import (
	"testing"

	"litegpu/internal/kv"
	"litegpu/internal/trace"
)

// kvGoldenFile extends the byte-identity corpus to memory-enabled runs.
// Like network_goldens.txt it pins the KV memory model from its first
// commit: every Metrics leaf, KV fields included, so any future
// rework of the allocator, the admission gate, preemption, or prefix
// caching must reproduce these runs bit-for-bit or knowingly
// regenerate.
const kvGoldenFile = "testdata/kv_goldens.txt"

// kvGoldenScenarios covers what the earlier corpora cannot: block
// accounting under ample memory (every scheduler), genuine scarcity
// with preemptions under both recovery policies, prefix caching on the
// shared-prefix agent workload, swap priced over an in-loop fabric,
// and the accelerated failure regime with allocator state dying and
// resetting mid-run.
func kvGoldenScenarios(t *testing.T) []goldenScenario {
	recompute := kv.Config{Policy: kv.Recompute}
	scarce := kv.Config{Policy: kv.Recompute, Blocks: 600}
	scarcePrefix := kv.Config{Policy: kv.Recompute, PrefixCache: true, Blocks: 600}
	swapScarce := kv.Config{Policy: kv.Swap, Blocks: 800}

	small := smallConfig()
	small.KV = recompute

	cont := smallConfig()
	cont.Scheduler = ContinuousBatching
	cont.KV = scarce

	chunk := smallConfig()
	chunk.Scheduler = ChunkedPrefill
	chunk.PrefillChunk = 256
	chunk.KV = scarce

	pressed := smallConfig()
	pressed.KV = scarce

	agent := smallConfig()
	agent.KV = scarcePrefix
	agentReqs, err := trace.AgentWorkload(8.0, 42).Generate(150)
	if err != nil {
		t.Fatal(err)
	}

	// Swap preemptions round-tripping a real fabric: the l70 shape puts
	// every instance on its own scale-up node, so swap traffic contends
	// with KV handoffs on the same links.
	swapFab := l70Config()
	swapFab.Network = pluggablePacket()
	swapFab.KV = swapScarce

	// The failure regime that actually bites (no drain, decode-heavy,
	// accelerated clock) with scarce memory: dead instances drop their
	// allocator state, requeued sequences re-admit from zero.
	failCluster := clusterOf(pressed)
	failCluster.Failures = acceleratedFailures(0)

	// The colocated counterparts: continuous batching swapping over the
	// same fabric, and chunked prefill under scarce swap memory with
	// frequent, quickly repaired failures and a slow fabric path, so dead
	// instances reset their HBM while swaps are still in flight.
	contSwapFab := swapFab
	contSwapFab.Scheduler = ContinuousBatching
	chunkSwap := chunk
	chunkSwap.KV = kv.Config{Policy: kv.Swap, Blocks: 600}
	chunkSwap.Network = pluggablePacket()
	chunkSwap.Network.LatencyScale = 1e5
	chunkFail := clusterOf(chunkSwap)
	chunkFail.Failures = acceleratedFailures(1)
	chunkFail.Failures.TimeScale = 8e7
	chunkFail.Failures.Params.MTTR = 10
	chunkFail.Failures.Params.RecoveryTime = 1

	return []goldenScenario{
		{name: "kv-small-ample", cluster: clusterOf(small), reqs: codingTrace(t, 1.0, 7, 200), horizon: 400},
		{name: "kv-static-scarce-conv", cluster: clusterOf(pressed), reqs: convTrace(t, 8.0, 3, 120), horizon: 240},
		{name: "kv-continuous-scarce-conv", cluster: clusterOf(cont), reqs: convTrace(t, 8.0, 3, 120), horizon: 240},
		{name: "kv-chunked256-scarce-conv", cluster: clusterOf(chunk), reqs: convTrace(t, 8.0, 3, 120), horizon: 240},
		{name: "kv-prefix-agent-nodrain", cluster: clusterOf(agent), reqs: agentReqs, horizon: 150},
		{name: "kv-swap-fabric-conv", cluster: clusterOf(swapFab), reqs: convTrace(t, 4.0, 11, 120), horizon: 240},
		{name: "kv-scarce-fail-nodrain", cluster: failCluster, reqs: convTrace(t, 8.0, 11, 150), horizon: 150},
		{name: "kv-continuous-swap-fabric-conv", cluster: clusterOf(contSwapFab), reqs: convTrace(t, 4.0, 11, 120), horizon: 240},
		{name: "kv-chunked256-swap-fail-nodrain", cluster: chunkFail, reqs: convTrace(t, 8.0, 11, 150), horizon: 150},
	}
}

// TestKVGoldens pins the memory-enabled simulator byte-for-byte.
// Regenerate (only when knowingly changing memory semantics) with:
//
//	LITEGPU_UPDATE_GOLDENS=1 go test ./internal/serve -run Golden
func TestKVGoldens(t *testing.T) {
	compareGoldens(t, kvGoldenFile, goldenReport(t, kvGoldenScenarios(t)))
}
