package serve

import (
	"testing"

	"litegpu/internal/kv"
	"litegpu/internal/straggler"
	"litegpu/internal/trace"
	"litegpu/internal/units"
)

// overloadGoldenFile extends the byte-identity corpus to closed-loop
// runs. Like kv_goldens.txt it pins the overload machinery from its
// first commit: every Metrics leaf — client-loop, admission,
// autoscale, and per-class fields included — so any future rework of
// deadlines, retry backoff, shedding, or the autoscaler must reproduce
// these runs bit-for-bit or knowingly regenerate.
const overloadGoldenFile = "testdata/overload_goldens.txt"

// twoTenantTrace is the corpus's shared multi-tenant overload trace: a
// paid tier (priority 1) and a heavier free tier (priority 0), with a
// mid-run flash crowd tripling arrivals — the regime admission control
// exists for.
func twoTenantTrace(t *testing.T, paidRate, freeRate float64, horizon units.Seconds) []trace.Request {
	t.Helper()
	mg := trace.MultiGenerator{
		Classes: []trace.TenantClass{
			{Name: "paid", Gen: trace.ConversationWorkload(paidRate, 0), Priority: 1},
			{Name: "free", Gen: trace.ConversationWorkload(freeRate, 0), Priority: 0},
		},
		Envelope: trace.Envelope{
			Flash: []trace.FlashCrowd{{At: 60, Duration: 60, Factor: 3}},
		},
		Seed: 9,
	}
	reqs, err := mg.Generate(horizon)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func overloadGoldenScenarios(t *testing.T) []goldenScenario {
	t.Helper()

	// Closed-loop clients on a single-tenant overload: deadlines fire,
	// retries back off with jitter, some clients abandon.
	closed := smallConfig()
	closed.Client = ClientConfig{
		Default: ClientBehavior{Timeout: 20, Retries: 2, BackoffBase: 2, Jitter: 0.5},
		Seed:    7,
	}

	// The same clients against continuous batching with a small batch
	// cap, so a backlog builds: cancellations are purged from the
	// admission queue, the pending prefills, and the running batch.
	closedCont := closed
	closedCont.Scheduler = ContinuousBatching
	closedCont.MaxDecodeBatch = 16

	tenants := twoTenantTrace(t, 10.0, 30.0, 150)

	// Static two-tier gate: the free tier sheds at the queue limit, the
	// paid tier always admits.
	shedPrio := smallConfig()
	shedPrio.Client = ClientConfig{
		Default: ClientBehavior{Timeout: 30, Retries: 1, BackoffBase: 2},
		Classes: []ClientBehavior{
			{Timeout: 30, Retries: 2, BackoffBase: 1, Jitter: 0.25, TTFTSLO: 2},
			{Timeout: 15, Retries: 1, BackoffBase: 4},
		},
		Seed: 7,
	}
	shedPrio.Admission = AdmissionConfig{Policy: AdmitPriority, QueueLimit: 24, MinPriority: 1}

	// The static gate against clients with a deadline and no retry
	// budget: a shed first submission is abandoned at once.
	shedAbandon := smallConfig()
	shedAbandon.Client = ClientConfig{Default: ClientBehavior{Timeout: 30}}
	shedAbandon.Admission = shedPrio.Admission

	// Adaptive gate on the same trace: per-priority queue-depth
	// thresholds shed the lowest tier first.
	shedAdpt := shedPrio
	shedAdpt.Admission = AdmissionConfig{Policy: AdmitAdaptive, QueueLimit: 24, Levels: 2}

	// Elastic decode fleet riding the flash crowd: instances beyond the
	// floor start parked, warm up under load, drain back after the spike.
	scale := smallConfig()
	scale.DecodeInstances = 4
	scale.MaxDecodeBatch = 16
	scale.Autoscale = AutoscaleConfig{
		Enabled: true, Interval: 5, HighWater: 6, LowWater: 1, MinInstances: 1, WarmUp: 10,
	}

	// Persistent stragglers: every instance draws a step-time factor at
	// construction; the slow decode engine drags TBT.
	slow := smallConfig()
	slow.DecodeInstances = 2
	slow.Straggler = StragglerConfig{
		Jitter: straggler.Jitter{CV: 0.5, Tail: straggler.LogNormal},
		Seed:   3,
	}

	// Everything at once, plus KV scarcity and accelerated failures:
	// the chaos regime the control loops must stay deterministic in.
	chaos := smallConfig()
	chaos.DecodeInstances = 3
	chaos.Client = shedPrio.Client
	chaos.Admission = AdmissionConfig{Policy: AdmitAdaptive, QueueLimit: 24, Levels: 2}
	chaos.Autoscale = AutoscaleConfig{
		Enabled: true, Interval: 5, HighWater: 6, LowWater: 1, MinInstances: 1, WarmUp: 10,
	}
	chaos.Straggler = slow.Straggler
	chaos.KV = kv.Config{Policy: kv.Recompute, Blocks: 600}
	chaosCluster := clusterOf(chaos)
	chaosCluster.Failures = acceleratedFailures(0)

	// Four elastic, closed-loop, admission-gated pools behind the JSQ
	// router under accelerated failures: instances die mid-warm-up and
	// the router reads every pool's live count at each arrival.
	elastic := smallConfig()
	elastic.DecodeInstances = 4
	elastic.MaxDecodeBatch = 16
	elastic.Client = ClientConfig{
		Default: ClientBehavior{Timeout: 20, Retries: 2, BackoffBase: 1, Jitter: 0.5},
		Seed:    13,
	}
	elastic.Admission = AdmissionConfig{Policy: AdmitAdaptive, QueueLimit: 32, Levels: 2}
	elastic.Autoscale = AutoscaleConfig{
		Enabled: true, Interval: 5, HighWater: 6, LowWater: 1, MinInstances: 1, WarmUp: 20,
	}
	elasticCluster := numberedPools(clusterOf(elastic, elastic, elastic, elastic))
	elasticCluster.Router = JoinShortestQueue
	elasticCluster.Failures = acceleratedFailures(0)

	// Two pools behind a fabric so slow that every routed arrival's
	// ingress takes about 1.8 s: the one-second clients time out while
	// their prompt is still on the wire, so the delivery finds the
	// attempt cancelled.
	ingress := smallConfig()
	ingress.Network = pluggablePacket()
	ingress.Network.LatencyScale = 3e6
	ingress.Client = ClientConfig{Classes: []ClientBehavior{
		{Timeout: 1, Retries: 1, BackoffBase: 1},
		{Timeout: 30},
	}}

	// kv-static-rebuild-fail without its failure: the long request's
	// client times out during its 166 s KV rebuild pass, so the pass
	// ends on a cancelled attempt.
	rebuild := smallConfig()
	rebuild.PrefillInstances = 2
	rebuild.KV = kv.Config{Policy: kv.Recompute, Blocks: 68791}
	rebuild.Client = ClientConfig{Default: ClientBehavior{Timeout: 250}}

	// An elastic colocated fleet whose watermarks sit close together, so
	// the autoscaler drains busy instances, reclaims draining ones when
	// load returns, and parks a drained engine at its next step.
	drain := smallConfig()
	drain.Scheduler = ContinuousBatching
	drain.Instances = 4
	drain.MaxDecodeBatch = 16
	drain.Autoscale = AutoscaleConfig{
		Enabled: true, Interval: 1, HighWater: 5, LowWater: 3, MinInstances: 1, WarmUp: 5,
	}

	// Lite instances, one node each, behind a slow fabric: two-second
	// clients time out while their KV handoff is on the wire, so the
	// deadline cancels the transfer.
	handoffTimeout := l70Config()
	handoffTimeout.Network = pluggablePacket()
	handoffTimeout.Network.LatencyScale = 2.5e6
	handoffTimeout.Client = ClientConfig{Default: ClientBehavior{Timeout: 2, Retries: 1, BackoffBase: 1}}

	// The same fabric with scarce swapped KV: clients time out while a
	// preempted sequence's swap round trip is on the wire.
	swapTimeout := l70Config()
	swapTimeout.Network = pluggablePacket()
	swapTimeout.Network.LatencyScale = 2e6
	swapTimeout.KV = kv.Config{Policy: kv.Swap, Blocks: 600}
	swapTimeout.Client = ClientConfig{Default: ClientBehavior{Timeout: 3, Retries: 1, BackoffBase: 1}}

	return []goldenScenario{
		{name: "ol-closed-loop-conv", cluster: clusterOf(closed), reqs: convTrace(t, 90, 7, 120), horizon: 240},
		{name: "ol-shed-priority", cluster: clusterOf(shedPrio), reqs: tenants, horizon: 240},
		{name: "ol-shed-adaptive", cluster: clusterOf(shedAdpt), reqs: tenants, horizon: 240},
		{name: "ol-autoscale-flash", cluster: clusterOf(scale), reqs: codingTrace(t, 24, 13, 120), horizon: 300},
		{name: "ol-straggler", cluster: clusterOf(slow), reqs: codingTrace(t, 2, 11, 150), horizon: 240},
		{name: "ol-chaos", cluster: chaosCluster, reqs: tenants, horizon: 240},
		{name: "ol-continuous-closed-loop-conv", cluster: clusterOf(closedCont), reqs: convTrace(t, 60, 7, 120), horizon: 240},
		{name: "ol-autoscale-jsq-failures", cluster: elasticCluster, reqs: overloadTenants(t, 25, 75, 90), horizon: 240},
		{name: "ol-shed-abandon", cluster: clusterOf(shedAbandon), reqs: tenants, horizon: 240},
		{name: "ol-ingress-timeout", cluster: numberedPools(clusterOf(ingress, ingress)), reqs: overloadTenants(t, 3, 3, 30), horizon: 90},
		{name: "ol-rebuild-timeout", cluster: clusterOf(rebuild), reqs: longContextPair(), horizon: 2000},
		{name: "ol-autoscale-drain", cluster: clusterOf(drain), reqs: codingTrace(t, 24, 13, 120), horizon: 300},
		{name: "ol-handoff-timeout", cluster: clusterOf(handoffTimeout), reqs: codingTrace(t, 2, 11, 60), horizon: 200},
		{name: "ol-swap-timeout", cluster: clusterOf(swapTimeout), reqs: codingTrace(t, 4, 11, 60), horizon: 200},
	}
}

// TestOverloadGoldens pins the closed-loop simulator byte-for-byte.
// Regenerate (only when knowingly changing overload semantics) with:
//
//	LITEGPU_UPDATE_GOLDENS=1 go test ./internal/serve -run Golden
func TestOverloadGoldens(t *testing.T) {
	compareGoldens(t, overloadGoldenFile, goldenReport(t, overloadGoldenScenarios(t)))
}
