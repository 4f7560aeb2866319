package serve

import (
	"testing"

	"litegpu/internal/kv"
	"litegpu/internal/trace"
	"litegpu/internal/units"
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
// the accelerated failure regime with allocator state dying and
// resetting mid-run, and the request exits only a hand-built trace
// reaches (see the exits scenarios below).
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

	return append([]goldenScenario{
		{name: "kv-small-ample", cluster: clusterOf(small), reqs: codingTrace(t, 1.0, 7, 200), horizon: 400},
		{name: "kv-static-scarce-conv", cluster: clusterOf(pressed), reqs: convTrace(t, 8.0, 3, 120), horizon: 240},
		{name: "kv-continuous-scarce-conv", cluster: clusterOf(cont), reqs: convTrace(t, 8.0, 3, 120), horizon: 240},
		{name: "kv-chunked256-scarce-conv", cluster: clusterOf(chunk), reqs: convTrace(t, 8.0, 3, 120), horizon: 240},
		{name: "kv-prefix-agent-nodrain", cluster: clusterOf(agent), reqs: agentReqs, horizon: 150},
		{name: "kv-swap-fabric-conv", cluster: clusterOf(swapFab), reqs: convTrace(t, 4.0, 11, 120), horizon: 240},
		{name: "kv-scarce-fail-nodrain", cluster: failCluster, reqs: convTrace(t, 8.0, 11, 150), horizon: 150},
		{name: "kv-continuous-swap-fabric-conv", cluster: clusterOf(contSwapFab), reqs: convTrace(t, 4.0, 11, 120), horizon: 240},
		{name: "kv-chunked256-swap-fail-nodrain", cluster: chunkFail, reqs: convTrace(t, 8.0, 11, 150), horizon: 150},
	}, kvExitScenarios(t)...)
}

// longContextTokens is a prompt just under the longest one a single
// H100 prefills Llama3-8B in (1,098,112 tokens): its cache, grown by
// twelve decoded tokens, can no longer be rebuilt by a prefill pass.
const longContextTokens = 1098101

// longContextPair is a long-context request followed, while its prompt
// is still prefilling, by a short one with a long output. The short one
// reaches the decode engine first, so the long one is the newest member
// of the batch and the victim when the blocks run out.
func longContextPair() []trace.Request {
	return []trace.Request{
		{ID: 0, PromptTokens: longContextTokens, OutputTokens: 100},
		{ID: 1, Arrival: 160, PromptTokens: 16, OutputTokens: 5000},
	}
}

// kvExitScenarios reach the request exits the workload traces never
// do, so every one of them is pinned byte-for-byte:
//   - a sole occupant whose growth finds no free block is dropped;
//   - a recompute victim whose grown context no longer fits a prefill
//     pass is dropped from the static rebuild queue;
//   - a static rebuild pass dies with its prefill engine, under both
//     failure policies;
//   - a static rebuilt cache handed off over the fabric loses an
//     endpoint in flight.
func kvExitScenarios(t *testing.T) []goldenScenario {
	// Two blocks hold the 20-token prompt; the thirteenth output token
	// needs a third.
	sole := smallConfig()
	sole.Scheduler = ContinuousBatching
	sole.KV = kv.Config{Policy: kv.Recompute, Blocks: 2}
	soleReqs := []trace.Request{{ID: 0, PromptTokens: 20, OutputTokens: 50}}

	// A second prefill engine takes the short request while the first
	// is busy with the long prompt. With 68,794 blocks the long one
	// grows one block, then is preempted with 1,098,128 tokens held.
	rebuildDrop := smallConfig()
	rebuildDrop.PrefillInstances = 2
	rebuildDrop.KV = kv.Config{Policy: kv.Recompute, Blocks: 68794}

	// Three fewer blocks preempt it after eight tokens, so its 166 s
	// rebuild pass fits; failure seed 18 kills that pass's engine.
	rebuildFail := rebuildDrop
	rebuildFail.KV.Blocks = 68791
	rebuildFailCluster := clusterOf(rebuildFail)
	rebuildFailCluster.Failures = acceleratedFailures(1)
	rebuildFailCluster.Failures.TimeScale = 2e6
	rebuildFailCluster.Failures.Seed = 18
	rebuildFailDrop := rebuildFailCluster
	rebuildFailDrop.Failures.Policy = DropOnFailure

	// Lite 70B instances each fill a scale-up node, so every handoff,
	// rebuilt caches included, crosses a slow fabric while frequent,
	// quickly repaired failures strike.
	handoff := l70Config()
	handoff.PrefillInstances = 2
	handoff.DecodeInstances = 2
	handoff.Network = pluggablePacket()
	handoff.Network.LatencyScale = 1e5
	handoff.KV = kv.Config{Policy: kv.Recompute, Blocks: 600}
	handoffFail := clusterOf(handoff)
	handoffFail.Failures = acceleratedFailures(1)
	handoffFail.Failures.TimeScale = 8e7
	handoffFail.Failures.Params.MTTR = 10
	handoffFail.Failures.Params.RecoveryTime = 1

	const long units.Seconds = 2000
	return []goldenScenario{
		{name: "kv-continuous-sole-growth-drop", cluster: clusterOf(sole), reqs: soleReqs, horizon: 100},
		{name: "kv-static-rebuild-drop", cluster: clusterOf(rebuildDrop), reqs: longContextPair(), horizon: long},
		{name: "kv-static-rebuild-fail", cluster: rebuildFailCluster, reqs: longContextPair(), horizon: long},
		{name: "kv-static-rebuild-fail-drop", cluster: rebuildFailDrop, reqs: longContextPair(), horizon: long},
		{name: "kv-static-rebuild-handoff-fail", cluster: handoffFail, reqs: convTrace(t, 8.0, 11, 150), horizon: 150},
	}
}

// TestKVGoldens pins the memory-enabled simulator byte-for-byte.
// Regenerate (only when knowingly changing memory semantics) with:
//
//	LITEGPU_UPDATE_GOLDENS=1 go test ./internal/serve -run Golden
func TestKVGoldens(t *testing.T) {
	compareGoldens(t, kvGoldenFile, goldenReport(t, kvGoldenScenarios(t)))
}
