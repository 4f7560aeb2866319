package serve

import (
	"testing"

	"litegpu/internal/failure"
)

// networkGoldenFile extends the byte-identity corpus to
// network-in-the-loop runs. Unlike the static and scheduler corpora
// (captured at pre-refactor commits), this one pins the fabric
// simulator from its first commit: every Metrics leaf, transfer
// summaries included, so any future rework of netsim or the handoff
// wiring must reproduce these runs bit-for-bit or knowingly regenerate.
const networkGoldenFile = "testdata/network_goldens.txt"

func networkGoldenScenarios(t *testing.T) []goldenScenario {
	lite := l70Config()
	lite.PrefillInstances = 2

	packet := lite
	packet.Network = pluggablePacket()

	circuit := lite
	circuit.Network = cpoCircuit()

	stressed := lite
	stressed.Network = pluggablePacket()
	stressed.Network.LatencyScale = 1e4

	// Heterogeneous cluster behind join-shortest-queue: the 2-GPU H100
	// pool stays intra-node (ingress transfers only), the Lite pool
	// pays KV handoffs too, and both contend on the same fabric.
	hetero := clusterOf(smallConfig(), l70Config())
	hetero.Router = JoinShortestQueue
	hetero.Network = pluggablePacket()

	// The accelerated failure clock with the fabric in the loop. Its
	// four failures (t ≈ 17.7, 20.0, 28.9 and 92.9 s) each find the
	// dead instance idle with no transfer in flight, so nothing is
	// requeued; the TestTransfer*Failure tests cover the handoff
	// retarget and retransmit paths.
	failCluster := clusterOf(packet)
	p := failure.DefaultParams()
	p.MTTR = 300
	p.RecoveryTime = 5
	failCluster.Failures = FailureConfig{
		Enabled:   true,
		Params:    p,
		Spares:    1,
		TimeScale: 8e6,
		Seed:      99,
	}

	return []goldenScenario{
		{name: "lite70-clos-pluggable-packet", cluster: clusterOf(packet), reqs: codingTrace(t, 1.2, 42, 300), horizon: 420},
		{name: "lite70-flatcircuit-cpo", cluster: clusterOf(circuit), reqs: codingTrace(t, 1.2, 42, 300), horizon: 420},
		{name: "lite70-latency-x1e4", cluster: clusterOf(stressed), reqs: codingTrace(t, 1.2, 42, 300), horizon: 420},
		{name: "hetero-jsq-fabric", cluster: hetero, reqs: codingTrace(t, 2.0, 17, 300), horizon: 500},
		{name: "lite70-fabric-fail-nodrain", cluster: failCluster, reqs: convTrace(t, 1.2, 11, 300), horizon: 300},
	}
}

// TestNetworkGoldens pins the fabric-enabled simulator byte-for-byte.
// Regenerate (only when knowingly changing network semantics) with:
//
//	LITEGPU_UPDATE_GOLDENS=1 go test ./internal/serve -run Golden
func TestNetworkGoldens(t *testing.T) {
	compareGoldens(t, networkGoldenFile, goldenReport(t, networkGoldenScenarios(t)))
}
