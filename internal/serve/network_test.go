package serve

import (
	"fmt"
	"math"
	"testing"

	"litegpu/internal/hw"
	"litegpu/internal/inference"
	"litegpu/internal/model"
	"litegpu/internal/trace"
	"litegpu/internal/units"
)

// h70Config is the equal-silicon big side of the fabric studies: one
// prefill and one decode instance of 2×H100 each serving Llama3-70B —
// 4 packages, comfortably inside one scale-up node.
func h70Config() Config {
	return Config{
		GPU:              hw.H100(),
		Model:            model.Llama3_70B(),
		Opts:             inference.DefaultOptions(),
		PrefillInstances: 1,
		PrefillGPUs:      2,
		DecodeInstances:  1,
		DecodeGPUs:       2,
		MaxPrefillBatch:  4,
		MaxDecodeBatch:   64,
	}
}

// l70Config is the Lite replacement at identical silicon: the same 4
// H100s' worth of area as 16 quarter-size Lite-GPUs, which no longer
// fit one 8-package node — each TP-8 instance fills its own node, so
// every KV handoff crosses the fabric.
func l70Config() Config {
	cfg := h70Config()
	cfg.GPU = hw.Lite()
	cfg.PrefillGPUs = 8
	cfg.DecodeGPUs = 8
	return cfg
}

func pluggablePacket() NetworkConfig {
	return NetworkConfig{Fabric: FabricClos, Link: LinkPluggable, Switch: SwitchPacket}
}

func cpoCircuit() NetworkConfig {
	return NetworkConfig{Fabric: FabricFlatCircuit, Link: LinkCPO, Switch: SwitchCircuit}
}

func mustRun(t *testing.T, cfg Config, reqs []trace.Request, horizon units.Seconds) Metrics {
	t.Helper()
	m, err := Run(cfg, reqs, horizon)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestParseNetworkConfig covers the CLI spec grammar round-trip.
func TestParseNetworkConfig(t *testing.T) {
	cases := map[string]NetworkConfig{
		"off":                      {},
		"":                         {},
		"clos":                     {Fabric: FabricClos},
		"clos:pluggable":           {Fabric: FabricClos, Link: LinkPluggable},
		"flat-circuit:cpo:circuit": {Fabric: FabricFlatCircuit, Link: LinkCPO, Switch: SwitchCircuit},
		"leaf-spine:copper:packet": {Fabric: FabricLeafSpine, Link: LinkCopper, Switch: SwitchPacket},
	}
	for spec, want := range cases {
		got, err := ParseNetworkConfig(spec)
		if err != nil || got != want {
			t.Errorf("ParseNetworkConfig(%q) = %+v, %v; want %+v", spec, got, err, want)
		}
	}
	for _, bad := range []string{"mesh", "clos:fiber", "clos:cpo:quantum", "clos:cpo:packet:extra"} {
		if _, err := ParseNetworkConfig(bad); err == nil {
			t.Errorf("ParseNetworkConfig(%q) did not fail", bad)
		}
	}
}

// TestNetworkOffEquivalence is the explicit network-off guard: with
// Config.Network zeroed, and equally with a fabric enabled but every
// instance inside one scale-up node (so no transfer ever crosses the
// fabric), every legacy metric is byte-identical to the historical
// simulator, and the transfer metrics are zero.
func TestNetworkOffEquivalence(t *testing.T) {
	gen := trace.CodingWorkload(1.5, 21)
	reqs, err := gen.Generate(150)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range SchedulerPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := smallConfig()
			cfg.Scheduler = pol
			base := mustRun(t, cfg, reqs, 300)

			// Fabric enabled, but the 2-GPU deployment shares one node:
			// the event stream must not change at all.
			onNet := cfg
			onNet.Network = pluggablePacket()
			withFab := mustRun(t, onNet, reqs, 300)

			if got, want := fmt.Sprintf("%x", withFab), fmt.Sprintf("%x", base); got != want {
				t.Fatalf("intra-node fabric diverged from network-off:\n got %s\nwant %s", got, want)
			}
			if base.NetTransfers != 0 || base.TransferTime.N != 0 || base.NetworkBoundFraction != 0 {
				t.Fatalf("network-off run reported transfers: %+v", base)
			}
		})
	}
}

// TestKVHandoffCharged pins the KV handoff arithmetic on a single
// request: the transfer carries the model's full KV bytes for the
// prompt, takes serialization + path latency on the configured link,
// and TTFT includes exactly that.
func TestKVHandoffCharged(t *testing.T) {
	cfg := l70Config()
	reqs := oneRequest(1000, 8)

	off := mustRun(t, cfg, reqs, 600)

	cfg.Network = pluggablePacket()
	on := mustRun(t, cfg, reqs, 600)

	if on.NetTransfers != 1 || on.TransferTime.N != 1 {
		t.Fatalf("NetTransfers = %d (TransferTime.N %d), want 1", on.NetTransfers, on.TransferTime.N)
	}
	wantBytes := float64(model.Llama3_70B().KVBytesPerToken(model.FP8())) * 1000
	if on.TransferBytes.Mean != wantBytes {
		t.Fatalf("TransferBytes = %v, want %v", on.TransferBytes.Mean, wantBytes)
	}
	// Pluggable optics attach one 100 GB/s NIC per instance; the Clos
	// fabric at 16 endpoints is one tier, so one 600 ns hop.
	wantDur := wantBytes/100e9 + 600e-9
	if math.Abs(on.TransferTime.Mean-wantDur) > 1e-9 {
		t.Fatalf("TransferTime = %v, want %v", on.TransferTime.Mean, wantDur)
	}
	dTTFT := on.TTFT.Mean - off.TTFT.Mean
	if math.Abs(dTTFT-wantDur) > 1e-9 {
		t.Fatalf("TTFT grew by %v, want the transfer duration %v", dTTFT, wantDur)
	}
	if on.Completed != 1 || on.NetworkBoundFraction <= 0 {
		t.Fatalf("completed %d, network-bound fraction %v", on.Completed, on.NetworkBoundFraction)
	}
}

// TestIngressCharged: in a multi-pool cluster every routed arrival
// pays an ingress transfer from the router to its pool, on top of any
// KV handoffs.
func TestIngressCharged(t *testing.T) {
	gen := trace.CodingWorkload(1.0, 5)
	reqs, err := gen.Generate(60)
	if err != nil {
		t.Fatal(err)
	}
	cc := clusterOf(smallConfig(), smallConfig())
	cc.Network = pluggablePacket()
	cm, err := RunCluster(cc, reqs, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Both 2-GPU pools are intra-node (no KV transfers), so the
	// transfer count is exactly the routed arrivals.
	if cm.Total.NetTransfers != cm.Total.Arrived || cm.Total.Arrived != len(reqs) {
		t.Fatalf("NetTransfers = %d, Arrived = %d, trace %d",
			cm.Total.NetTransfers, cm.Total.Arrived, len(reqs))
	}
	if cm.Total.Completed == 0 {
		t.Fatal("nothing completed through the ingress path")
	}
}

// failAt injects a deterministic instance failure at a chosen time —
// the white-box hook the transfer-failure edge cases need, since
// stochastic injection cannot guarantee a mid-transfer hit.
func failAt(cs *clusterSim, pool, id int, at float64) {
	cs.eng.Schedule(at, prioFailure, func(now float64) {
		cs.failInstance(cs.pools[pool], id, now)
	})
}

// TestTransferDstFailure covers the "transfer in flight when the
// destination instance fails" edge case under both in-flight policies:
// requeue retargets the handoff to a live decode instance and
// retransmits (the request still completes, with the retry visible in
// transfer time), drop abandons it.
func TestTransferDstFailure(t *testing.T) {
	base := l70Config()
	base.DecodeInstances = 2 // a live retarget destination exists
	// Stretch the path latency so the handoff is in flight for ~6000 s:
	// the failure at t=3000 is guaranteed mid-transfer.
	net := pluggablePacket()
	net.LatencyScale = 1e10 // 600 ns hop → 6000 s
	base.Network = net
	reqs := oneRequest(1500, 4)

	run := func(policy FailurePolicy) Metrics {
		cc := clusterOf(base)
		cc.Failures.Policy = policy
		cs, err := newClusterSim(cc, 20000)
		if err != nil {
			t.Fatal(err)
		}
		// Pool-local instance 1 = first decode engine, the rotation's
		// first pick.
		failAt(cs, 0, 1, 3000)
		return mustRunSim(t, cs, reqs).Pools[0].Metrics
	}

	req := run(RequeueOnFailure)
	if req.Requeued != 1 {
		t.Fatalf("requeue: Requeued = %d, want 1", req.Requeued)
	}
	if req.Completed != 1 {
		t.Fatalf("requeue: Completed = %d, want 1 (retargeted handoff must deliver)", req.Completed)
	}
	// The sample spans original start (just after prefill, t ≈ 0.07)
	// to retried delivery (t = 3000 + 6000 + serialization): far above
	// the 6000 s a clean single flight would measure.
	if req.TransferTime.Max < 8900 {
		t.Fatalf("requeue: transfer time %v must include the retry (restart at t=3000 + 6000 s latency)",
			req.TransferTime.Max)
	}

	drop := run(DropOnFailure)
	if drop.DroppedOnFailure != 1 || drop.Completed != 0 {
		t.Fatalf("drop: DroppedOnFailure = %d, Completed = %d, want 1, 0",
			drop.DroppedOnFailure, drop.Completed)
	}
	if drop.NetTransfers != 0 {
		t.Fatalf("drop: cancelled transfer still delivered (NetTransfers %d)", drop.NetTransfers)
	}
}

// TestTransferDstFailureRetargetSameNode: a retargeted handoff whose
// new destination shares the source's scale-up node gets the same
// intra-node bypass finishPass applies — delivered immediately over
// the node interconnect, not retransmitted on the fabric.
func TestTransferDstFailureRetargetSameNode(t *testing.T) {
	// TP-4 Lite instances: prefill + decode 0 fill node 0, decode 1
	// sits alone on node 1.
	base := l70Config()
	base.PrefillGPUs, base.DecodeGPUs = 4, 4
	base.DecodeInstances = 2
	net := pluggablePacket()
	net.LatencyScale = 1e10 // cross-node transfers take ~6000 s
	base.Network = net
	reqs := oneRequest(1500, 4)

	cs, err := newClusterSim(clusterOf(base), 20000)
	if err != nil {
		t.Fatal(err)
	}
	// Down decode 0 before prefill completes, so the handoff targets
	// the cross-node decode 1; bring decode 0 back, then kill decode 1
	// mid-transfer — the retarget lands back on decode 0, same node as
	// the source.
	failAt(cs, 0, 1, 0.001)
	cs.eng.Schedule(100, prioFailure, func(now float64) { cs.recoverInstance(cs.pools[0], 1, now) })
	failAt(cs, 0, 2, 3000)
	m := mustRunSim(t, cs, reqs).Pools[0].Metrics
	if m.Requeued != 1 {
		t.Fatalf("Requeued = %d, want 1", m.Requeued)
	}
	if m.Completed != 1 {
		t.Fatalf("Completed = %d, want 1 (same-node retarget must deliver)", m.Completed)
	}
	if m.NetTransfers != 0 {
		t.Fatalf("NetTransfers = %d; the retargeted handoff must bypass the fabric inside the node", m.NetTransfers)
	}
	// Delivery happened at the failure instant, not 6000 s later.
	if m.TTFT.Max >= 6000 {
		t.Fatalf("TTFT %v: same-node retarget paid the fabric anyway", m.TTFT.Max)
	}
}

// TestTransferSrcFailure: when the *source* prefill instance dies
// mid-handoff its KV is gone — requeue sends the prompt back through
// prefill, drop abandons it.
func TestTransferSrcFailure(t *testing.T) {
	base := l70Config()
	net := pluggablePacket()
	net.LatencyScale = 1e10
	base.Network = net
	reqs := oneRequest(1500, 4)

	cc := clusterOf(base)
	cs, err := newClusterSim(cc, 20000)
	if err != nil {
		t.Fatal(err)
	}
	failAt(cs, 0, 0, 3000) // the only prefill engine
	m := mustRunSim(t, cs, reqs).Pools[0].Metrics
	if m.Requeued != 1 {
		t.Fatalf("Requeued = %d, want 1 (prompt back to prefill queue)", m.Requeued)
	}
	if m.NetTransfers != 0 {
		t.Fatalf("the dead source's transfer delivered anyway (NetTransfers %d)", m.NetTransfers)
	}
}

// TestNetworkDeterminism: identical inputs, byte-identical metrics,
// fabric enabled — the contract the CI -count=2 job relies on.
func TestNetworkDeterminism(t *testing.T) {
	gen := trace.CodingWorkload(2.0, 33)
	reqs, err := gen.Generate(120)
	if err != nil {
		t.Fatal(err)
	}
	cfg := l70Config()
	cfg.PrefillInstances = 2
	cfg.Network = pluggablePacket()
	a := mustRun(t, cfg, reqs, 300)
	b := mustRun(t, cfg, reqs, 300)
	if fmt.Sprintf("%x", a) != fmt.Sprintf("%x", b) {
		t.Fatal("two identical fabric-enabled runs diverged")
	}
}

// TestFabricSensitivityLiteVsBig is the acceptance test for the
// paper's fabric-pressure claim, in simulation: on an equal-silicon
// H100-vs-Lite disaggregated pair serving the identical trace, the
// Lite deployment's TTFT degrades as fabric path latency and
// contention grow — because its instances outgrow the scale-up node
// and push every KV handoff onto the fabric, while the big-GPU
// deployment's phase pools share a node and degrade not at all — and
// a circuit-switched CPO fabric recovers most of that gap.
func TestFabricSensitivityLiteVsBig(t *testing.T) {
	gen := trace.CodingWorkload(1.2, 42)
	reqs, err := gen.Generate(120)
	if err != nil {
		t.Fatal(err)
	}
	meanTTFT := func(cfg Config, net NetworkConfig, scale float64) float64 {
		net.LatencyScale = scale
		cfg.Network = net
		return mustRun(t, cfg, reqs, 300).TTFT.Mean
	}
	h100, lite := h70Config(), l70Config()
	h100Off := mustRun(t, h100, reqs, 300).TTFT.Mean
	liteOff := mustRun(t, lite, reqs, 300).TTFT.Mean

	scales := []float64{1, 1e3, 1e4}
	var dLite []float64
	for _, s := range scales {
		dBig := meanTTFT(h100, pluggablePacket(), s) - h100Off
		if dBig != 0 {
			t.Fatalf("scale %g: the intra-node H100 deployment degraded by %v; it must not touch the fabric at all", s, dBig)
		}
		dLite = append(dLite, meanTTFT(lite, pluggablePacket(), s)-liteOff)
	}
	// The Lite deployment pays the fabric, and pays more as the
	// latency axis grows.
	if dLite[0] < 1e-3 {
		t.Fatalf("Lite degradation %v at physical latency; a 246 MB KV handoff over a 100 GB/s NIC must cost ≥ 1 ms", dLite[0])
	}
	for i := 1; i < len(dLite); i++ {
		if dLite[i] <= dLite[i-1] {
			t.Fatalf("Lite TTFT degradation not increasing in path latency: %v", dLite)
		}
	}
	// Contention axis: a burstier trace puts concurrent handoffs on
	// the same NIC, so the per-request fabric cost grows with load.
	busy, err := trace.CodingWorkload(3.6, 42).Generate(120)
	if err != nil {
		t.Fatal(err)
	}
	runTTFT := func(cfg Config, net NetworkConfig, rs []trace.Request) float64 {
		cfg.Network = net
		return mustRun(t, cfg, rs, 300).TTFT.Mean
	}
	liteBusyOff := runTTFT(lite, NetworkConfig{}, busy)
	dBusy := runTTFT(lite, pluggablePacket(), busy) - liteBusyOff
	if dBusy <= dLite[0] {
		t.Fatalf("Lite fabric cost at 3× load (%v) not above the light-load cost (%v); contention must bite", dBusy, dLite[0])
	}
	// The paper's remedy: co-packaged optics (per-GPU ports, 2× port
	// bandwidth) on a flat circuit-switched fabric recovers most of
	// the gap at the stressed latency point.
	dCircuit := meanTTFT(lite, cpoCircuit(), 1e4) - liteOff
	if dCircuit > 0.5*dLite[2] {
		t.Fatalf("circuit-switched CPO recovers too little: degradation %v vs packet-pluggable %v", dCircuit, dLite[2])
	}
}

// TestPlanCapacityFabricAxis is the planner's acceptance test: with
// the fabric as a search axis, different deployment scales select
// different fabrics at different $/Mtok. The economics under
// DefaultCosts: a flat circuit-switched CPO fabric has the cheapest
// small-cluster capex ($250/port + $5000/switch), but the $80 copper
// port undercuts it once enough endpoints amortize the packet switch
// box — and copper drops out entirely once the cluster outgrows its
// 3 m reach.
func TestPlanCapacityFabricAxis(t *testing.T) {
	plan := func(rate float64) Plan {
		p, err := PlanCapacity(PlanRequest{
			GPU: hw.Lite(), Model: model.Llama3_70B(), Opts: inference.DefaultOptions(),
			Workload: trace.CodingWorkload(rate, 7),
			Horizon:  120, Drain: 60,
			Fabrics: DefaultFabricCandidates(),
		}, SLO{})
		if err != nil {
			t.Fatalf("rate %v: %v", rate, err)
		}
		return p
	}
	small := plan(1.5) // 8 GPUs
	large := plan(20)  // 20 GPUs
	if small.TotalGPUs >= large.TotalGPUs {
		t.Fatalf("premise: scales did not separate (%d vs %d GPUs)", small.TotalGPUs, large.TotalGPUs)
	}
	if small.Config.Network == large.Config.Network {
		t.Fatalf("both scales chose fabric %s; the axis must discriminate by scale", small.Config.Network)
	}
	if small.Config.Network != cpoCircuit() {
		t.Errorf("small scale chose %s, want flat-circuit:cpo:circuit", small.Config.Network)
	}
	if want := (NetworkConfig{Fabric: FabricClos, Link: LinkCopper, Switch: SwitchPacket}); large.Config.Network != want {
		t.Errorf("large scale chose %s, want clos:copper:packet", large.Config.Network)
	}
	if small.Fabric == "" || large.Fabric == "" || small.Fabric == large.Fabric {
		t.Errorf("plans must name their priced topologies, got %q and %q", small.Fabric, large.Fabric)
	}
	if small.Cost.CostPerMTokens == large.Cost.CostPerMTokens {
		t.Error("the two scales report identical $/Mtok")
	}
}

// TestPlanDefaultFabricUnchanged: with no fabric axis and no network,
// the planner prices the historical default (folded Clos over CPO and
// packet switches) — now as an explicit PlanRequest default rather
// than a hard-coded constant.
func TestPlanDefaultFabricUnchanged(t *testing.T) {
	p, err := PlanCapacity(PlanRequest{
		GPU: hw.H100(), Model: model.Llama3_8B(), Opts: inference.DefaultOptions(),
		Workload: trace.CodingWorkload(20, 7),
		Horizon:  60, Drain: 30,
	}, SLO{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Config.Network.Enabled() {
		t.Errorf("default plan enabled an in-loop fabric: %s", p.Config.Network)
	}
	want := (NetworkConfig{}).TCOTopology(p.TotalGPUs)
	if p.Fabric != want.Name {
		t.Errorf("default plan priced fabric %q, want %q", p.Fabric, want.Name)
	}
	if p.Cost.FabricCapex != want.Cost() {
		t.Errorf("fabric capex %v, want %v", p.Cost.FabricCapex, want.Cost())
	}
}

// TestCopperReachInfeasible: the physical constraint that retires
// copper at scale — a 96-package cluster needs more reach than 3 m of
// copper offers, so a copper-fabric candidate is rejected rather than
// priced.
func TestCopperReachInfeasible(t *testing.T) {
	copper := NetworkConfig{Fabric: FabricClos, Link: LinkCopper}
	if topo := copper.TCOTopology(64); !topo.Feasible() {
		t.Errorf("copper at 64 endpoints (2 racks) should be cableable")
	}
	if topo := copper.TCOTopology(96); topo.Feasible() {
		t.Errorf("copper at 96 endpoints (3 racks, 3.6 m) must not be cableable")
	}
	if err := (NetworkConfig{Fabric: FabricClos, Link: LinkCopper, Switch: SwitchCircuit}).Validate(); err == nil {
		t.Error("copper into an optical circuit switch must not validate")
	}
}

// TestNetworkAllocationsDoNotScaleWithRequests extends the PR-4
// allocation pin to the fabric path: with transfers in the loop, a 4×
// trace must still cost only config-bounded extra allocations.
func TestNetworkAllocationsDoNotScaleWithRequests(t *testing.T) {
	cfg := l70Config()
	cfg.Network = pluggablePacket()
	gen := trace.CodingWorkload(1.0, 7)
	short, err := gen.Generate(100)
	if err != nil {
		t.Fatal(err)
	}
	long, err := gen.Generate(400)
	if err != nil {
		t.Fatal(err)
	}
	aShort := allocsForTrace(t, cfg, short, 200)
	aLong := allocsForTrace(t, cfg, long, 500)
	extraReqs := len(long) - len(short)
	extra := aLong - aShort
	if extra > 160 || extra > 0.5*float64(extraReqs) {
		t.Errorf("simulating %d extra requests with the fabric cost %.0f extra allocations (short %.0f, long %.0f)",
			extraReqs, extra, aShort, aLong)
	}
}
