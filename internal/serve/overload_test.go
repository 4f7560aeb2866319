package serve

import (
	"fmt"
	"testing"

	"litegpu/internal/hw"
	"litegpu/internal/kv"
	"litegpu/internal/trace"
	"litegpu/internal/units"
)

// lite4Of rebuilds a config on the paper's Lite-GPU at equal silicon:
// four Lite dies stand in for each H100 per instance.
func lite4Of(cfg Config) Config {
	cfg.GPU = hw.Lite()
	cfg.PrefillGPUs = 4
	cfg.DecodeGPUs = 4
	return cfg
}

// overloadTenants is the acceptance trace: a paid tier (priority 1) at
// a quarter of the total rate, a free tier at the rest, and a flash
// crowd doubling arrivals mid-run.
func overloadTenants(t *testing.T, paid, free float64, span units.Seconds) []trace.Request {
	t.Helper()
	mg := trace.MultiGenerator{
		Classes: []trace.TenantClass{
			{Name: "paid", Gen: trace.ConversationWorkload(paid, 0), Priority: 1},
			{Name: "free", Gen: trace.ConversationWorkload(free, 0), Priority: 0},
		},
		Envelope: trace.Envelope{Flash: []trace.FlashCrowd{{At: 30, Duration: 60, Factor: 2}}},
		Seed:     5,
	}
	reqs, err := mg.Generate(span)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// TestOverloadZeroValueEquivalence pins the contract that every PR-9
// knob is inert at its zero value: a config whose client loop,
// admission gate, autoscaler, and straggler model are all off — even
// with their inactive parameters set to junk — must produce metrics
// byte-identical to the plain config, under all three schedulers.
func TestOverloadZeroValueEquivalence(t *testing.T) {
	reqs := codingTrace(t, 30, 17, 60)
	for _, pol := range SchedulerPolicies() {
		base := smallConfig()
		base.Scheduler = pol
		if pol == ChunkedPrefill {
			base.PrefillChunk = 256
		}
		want, err := Run(base, reqs, 200)
		if err != nil {
			t.Fatal(err)
		}
		wantHex := fmt.Sprintf("%x", want)

		variants := map[string]func(*Config){
			"client-seed-only": func(c *Config) {
				c.Client = ClientConfig{Seed: 42}
			},
			"admit-all-with-params": func(c *Config) {
				c.Admission = AdmissionConfig{Policy: AdmitAll, QueueLimit: 8, MinPriority: 5, Levels: 3}
			},
			"autoscale-disabled-with-params": func(c *Config) {
				c.Autoscale = AutoscaleConfig{Interval: 1, HighWater: 2, LowWater: 1, Step: 3, WarmUp: 100}
			},
			"straggler-zero-cv": func(c *Config) {
				c.Straggler = StragglerConfig{Seed: 7}
			},
		}
		for name, mut := range variants {
			cfg := base
			mut(&cfg)
			got, err := Run(cfg, reqs, 200)
			if err != nil {
				t.Fatalf("%v/%s: %v", pol, name, err)
			}
			if fmt.Sprintf("%x", got) != wantHex {
				t.Errorf("%v/%s: inert knob changed metrics", pol, name)
			}
		}
	}
}

// TestClosedLoopLeaksNothing is the leak property test: when every
// request has resolved — served, timed out, abandoned, or shed — the
// pool must have freed every client track and hold no KV blocks, no
// scheduler-outstanding work, and no in-flight handoffs, and every
// request handle must be back on the free list exactly once: a lost
// handle leaves the list short of whole arenas, a double free puts one
// pointer on it twice. Cancellation reclaims everything, under every
// scheduler, without failures and under both failure policies.
func TestClosedLoopLeaksNothing(t *testing.T) {
	reqs := overloadTenants(t, 15, 45, 60)
	for _, pol := range SchedulerPolicies() {
		for _, failures := range []string{"off", "requeue", "drop"} {
			name := fmt.Sprintf("%v/failures=%s", pol, failures)
			cfg := smallConfig()
			cfg.Scheduler = pol
			if pol == ChunkedPrefill {
				cfg.PrefillChunk = 256
			}
			cfg.Client = ClientConfig{
				Default: ClientBehavior{Timeout: 5, Retries: 2, BackoffBase: 1, Jitter: 0.5},
				Seed:    11,
			}
			cfg.Admission = AdmissionConfig{Policy: AdmitAdaptive, QueueLimit: 16, Levels: 2}
			cfg.KV = kv.Config{Policy: kv.Recompute, Blocks: 500}
			cc := clusterOf(cfg)
			if failures != "off" {
				cc.Failures = acceleratedFailures(0)
				if failures == "drop" {
					cc.Failures.Policy = DropOnFailure
				}
			}
			// A long horizon so every deadline, backoff retry, and repair
			// resolves before the run ends.
			s, err := newClusterSim(cc, 400)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			m := mustRunSim(t, s, reqs)
			if m.Total.Arrived == 0 {
				t.Fatalf("%s: empty run", name)
			}
			for _, p := range s.pools {
				seen := make(map[*activeReq]bool, len(p.freeReqs))
				for _, a := range p.freeReqs {
					if seen[a] {
						t.Errorf("%s: request handle %d freed twice", name, a.req.ID)
						break
					}
					seen[a] = true
				}
				if n := len(p.freeReqs); n%activeChunk != 0 {
					t.Errorf("%s: the free list holds %d request handles, not whole %d-handle arenas", name, n, activeChunk)
				}
				if n := len(p.trackArena) - len(p.freeTracks); n != 0 {
					t.Errorf("%s: %d of %d client tracks never freed", name, n, len(p.trackArena))
				}
				if p.kvInUse != 0 {
					t.Errorf("%s: %d KV blocks leaked", name, p.kvInUse)
				}
				if n := p.sched.outstanding(); n != 0 {
					t.Errorf("%s: scheduler reports %d outstanding", name, n)
				}
				if n := len(p.liveXfers); n != 0 {
					t.Errorf("%s: %d KV handoffs still in flight", name, n)
				}
			}
		}
	}
}

// TestGracefulDegradationUnderFlashCrowd is the acceptance test: a
// flash crowd at roughly twice the sustainable rate, on both the
// big-GPU and equal-silicon Lite deployments. Three runs on identical
// hardware and trace:
//
//   - open: clients with the same deadlines but no feedback
//     (ObserveOnly) — the open-loop infinite-queueing baseline;
//   - closed: deadlines, abandonment, and capped-exponential backoff,
//     but no admission control — the queue still collapses, just with
//     retries;
//   - shed: closed loop plus adaptive admission — the free tier sheds
//     first and the paid tier keeps its TTFT SLO.
//
// The claims under test: closed-loop abandonment+backoff beats
// open-loop queueing on deadline-qualified goodput; adaptive shedding
// keeps paid-tier TTFT attainment high while the ungated run
// collapses; and the ungated tail (TTFT p99) grows without bound while
// the gated one stays near the SLO.
func TestGracefulDegradationUnderFlashCrowd(t *testing.T) {
	clients := ClientConfig{
		Classes: []ClientBehavior{
			{Timeout: 15, Retries: 2, BackoffBase: 2, BackoffCap: 8, Jitter: 0.5, TTFTSLO: 2},
			{Timeout: 15, Retries: 2, BackoffBase: 2, BackoffCap: 8, Jitter: 0.5},
		},
		Seed: 7,
	}
	reqs := overloadTenants(t, 20, 60, 120)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"h100", smallConfig()},
		{"lite-equal-silicon", lite4Of(smallConfig())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := tc.cfg
			base.KV = kv.Config{Policy: kv.Recompute, Blocks: 2000}

			openCfg := base
			openCfg.Client = clients
			openCfg.Client.ObserveOnly = true
			open, err := Run(openCfg, reqs, 300)
			if err != nil {
				t.Fatal(err)
			}

			closedCfg := base
			closedCfg.Client = clients
			closed, err := Run(closedCfg, reqs, 300)
			if err != nil {
				t.Fatal(err)
			}

			shedCfg := closedCfg
			shedCfg.Admission = AdmissionConfig{Policy: AdmitAdaptive, QueueLimit: 48, Levels: 4}
			shed, err := Run(shedCfg, reqs, 300)
			if err != nil {
				t.Fatal(err)
			}

			// Closed-loop clients waste capacity on retried prefills, but
			// abandonment stops the simulator burning decode on requests
			// nobody is waiting for: deadline-qualified goodput must be
			// strictly higher than open-loop infinite queueing.
			if closed.UsefulGoodput <= open.UsefulGoodput {
				t.Errorf("closed-loop useful goodput %.1f not above open-loop %.1f",
					closed.UsefulGoodput, open.UsefulGoodput)
			}
			if shed.UsefulGoodput <= closed.UsefulGoodput {
				t.Errorf("shedding useful goodput %.1f not above closed-loop %.1f",
					shed.UsefulGoodput, closed.UsefulGoodput)
			}

			// The paid tier survives the crowd only behind the gate.
			paidShed := shed.Classes[0].TTFTAttainment
			paidClosed := closed.Classes[0].TTFTAttainment
			if paidShed < 0.7 {
				t.Errorf("paid-tier TTFT attainment %.3f under shedding, want >= 0.7", paidShed)
			}
			if paidClosed > 0.3 {
				t.Errorf("paid-tier TTFT attainment %.3f without admission control, want collapse (<= 0.3)", paidClosed)
			}
			if paidShed <= paidClosed {
				t.Errorf("shedding attainment %.3f not above ungated %.3f", paidShed, paidClosed)
			}

			// Ungated, the TTFT tail grows to the client timeout; gated it
			// stays near the SLO.
			if closed.TTFT.P99 < 5 {
				t.Errorf("ungated TTFT p99 %.2fs, want unbounded growth (>= 5s)", closed.TTFT.P99)
			}
			if shed.TTFT.P99 > 2 {
				t.Errorf("gated TTFT p99 %.2fs, want within SLO reach (<= 2s)", shed.TTFT.P99)
			}
			t.Logf("%s: useful goodput open=%.0f closed=%.0f shed=%.0f; paid attainment closed=%.3f shed=%.3f; ttft p99 closed=%.1fs shed=%.1fs",
				tc.name, open.UsefulGoodput, closed.UsefulGoodput, shed.UsefulGoodput,
				paidClosed, paidShed, closed.TTFT.P99, shed.TTFT.P99)
		})
	}
}

// TestAutoscalerShardDeterminism runs the elastic, failure-injected,
// closed-loop four-pool JSQ cluster of the overload golden corpus with
// the per-pool dispatch pass and with one that runs every pool, and
// requires byte-identical metrics: the autoscaler's control loop,
// cold-start warm-ups (including instances that die mid-warm-up under
// the accelerated failure clock) and drain-first scale-downs all
// request their own pool's dispatch, so skipping the other pools must
// not be observable. A repeated run must match too.
func TestAutoscalerShardDeterminism(t *testing.T) {
	sc := goldenScenarioNamed(t, overloadGoldenScenarios(t), "ol-autoscale-jsq-failures")
	cm, err := RunCluster(sc.cluster, sc.reqs, sc.horizon)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Total.ScaleUps == 0 {
		t.Fatal("scenario never scaled up — not exercising the autoscaler")
	}
	if cm.Total.FailureEvents == 0 {
		t.Fatal("scenario saw no failures — not exercising warm-up/failure interaction")
	}
	want := keyedCluster(t, "", cm)
	ref := runDispatchingEveryPool(t, sc.cluster, sc.reqs, sc.horizon)
	if got := keyedCluster(t, "", ref); got != want {
		t.Errorf("every-pool dispatch diverges from per-pool dispatch at %s", firstDiff(got, want))
	}
	again, err := RunCluster(sc.cluster, sc.reqs, sc.horizon)
	if err != nil {
		t.Fatal(err)
	}
	if got := keyedCluster(t, "", again); got != want {
		t.Errorf("repeated run diverges at %s", firstDiff(got, want))
	}
}

// TestWarmupAbortsWhenInstanceDies pins the cold-start/failure
// interaction directly: an instance that dies while warming must stay
// parked when its warm-up completes, rather than unparking dead
// capacity.
func TestWarmupAbortsWhenInstanceDies(t *testing.T) {
	cfg := smallConfig()
	cfg.DecodeInstances = 2
	cfg.Autoscale = AutoscaleConfig{
		Enabled: true, Interval: 5, HighWater: 2, LowWater: 1, MinInstances: 1, WarmUp: 10,
	}
	s, err := newClusterSim(clusterOf(cfg), 100)
	if err != nil {
		t.Fatal(err)
	}
	p := s.pools[0]
	parked := -1
	for id := p.scaleLo; id < p.scaleHi; id++ {
		if p.inst(id).parked {
			parked = id
			break
		}
	}
	if parked < 0 {
		t.Fatal("no instance starts parked above the floor")
	}
	if !s.scaleUpOne(p, 0) {
		t.Fatal("scale-up found no target")
	}
	st := p.inst(parked)
	if !st.warming {
		t.Fatal("scale-up did not start a warm-up")
	}
	st.up = false // the instance fails mid-warm-up
	s.onWarm(float64(cfg.Autoscale.WarmUp), packArg(0, parked))
	if st.warming {
		t.Error("warming flag not cleared")
	}
	if !st.parked {
		t.Error("dead instance unparked at warm-up completion")
	}
	// When it was alive, the same warm-up completes normally.
	st.up = true
	st.warming = true
	s.onWarm(2*float64(cfg.Autoscale.WarmUp), packArg(0, parked))
	if st.parked {
		t.Error("live instance failed to unpark at warm-up completion")
	}
}
