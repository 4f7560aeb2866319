package serve

import (
	"fmt"
	"testing"

	"litegpu/internal/obs"
	"litegpu/internal/straggler"
	"litegpu/internal/trace"
	"litegpu/internal/units"
)

// runTwins runs cc over reqs to the horizon twice: bare, and with an
// observer attached. The observer records no probes, so its only effect
// on the calendar is to keep every decode step its own event: the
// observed twin fires the events a simulator without decode runs
// fires. arm, when set, runs on each fresh simulation before it
// starts. The twins' keyed Metrics must be byte-identical; runTwins
// returns both fired-event counts.
func runTwins(t *testing.T, name string, cc ClusterConfig, reqs []trace.Request, horizon units.Seconds, arm func(*clusterSim)) (bare, observed uint64) {
	t.Helper()
	run := func(rec *obs.Recorder) (string, uint64) {
		cc := cc
		cc.Observer = rec
		if err := cc.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s, err := newClusterSim(cc, float64(horizon))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if arm != nil {
			arm(s)
		}
		return keyedCluster(t, name, mustRunSim(t, s, reqs)), s.eng.EventsFired()
	}
	b, bare := run(nil)
	o, observed := run(obs.New(obs.Options{Seed: 1}))
	if b != o {
		t.Errorf("%s: decode runs diverged from single steps at %s", name, firstDiff(b, o))
	}
	if bare > observed {
		t.Errorf("%s: bare run fired %d events, more than the %d of its observed twin", name, bare, observed)
	}
	return bare, observed
}

// firstRun steps a bare run of cc until an engine of its first pool
// starts a decode run of at least three steps, and returns that
// engine's instance id and the run's first two interior boundaries.
func firstRun(t *testing.T, cc ClusterConfig, reqs []trace.Request) (id int, b1, b2 float64) {
	t.Helper()
	s, err := newClusterSim(cc, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	c := s.pools[0].core
	s.start(&sliceSource{reqs: reqs})
	for s.eng.Step() {
		for j := range c.engines {
			if e := &c.engines[j]; e.runLeft >= 2 {
				return c.base + j, e.stepEnd, e.stepEnd + e.stepDec
			}
		}
	}
	t.Fatal("no decode run of three steps or more")
	return 0, 0, 0
}

// TestDecodeRunsMatchSteps checks that a decode run is invisible in
// the metrics: every static, scheduler and network golden scenario, and
// targeted cases for each place a run is cut short or caught up, render
// byte-identical to their observed twins, whose decode steps are each
// their own event. Runs must also save work: no bare run fires more
// events than its twin, and all of them together fire fewer.
func TestDecodeRunsMatchSteps(t *testing.T) {
	var bareSum, observedSum uint64
	twins := func(name string, cc ClusterConfig, reqs []trace.Request, horizon units.Seconds, arm func(*clusterSim)) {
		t.Helper()
		b, o := runTwins(t, name, cc, reqs, horizon, arm)
		bareSum += b
		observedSum += o
	}
	for _, scenarios := range [][]goldenScenario{goldenScenarios(t), schedulerGoldenScenarios(t), networkGoldenScenarios(t)} {
		for _, sc := range scenarios {
			twins(sc.name, sc.cluster, sc.reqs, sc.horizon, nil)
		}
	}

	// An arrival lands in the middle of a long generation's run on the
	// only colocated instance: the run must be cut at the end of its
	// in-flight step so the next step admits the newcomer.
	longThenShort := []trace.Request{
		{ID: 0, Arrival: 0, PromptTokens: 512, OutputTokens: 300},
		{ID: 1, Arrival: 0.5, PromptTokens: 1200, OutputTokens: 40},
		{ID: 2, Arrival: 0.9, PromptTokens: 64, OutputTokens: 90},
	}
	for _, pol := range []SchedulerPolicy{ContinuousBatching, ChunkedPrefill} {
		cfg := smallConfig()
		cfg.Scheduler = pol
		cfg.Instances = 1
		cfg.PrefillChunk = 256
		twins("arrival-cut-"+pol.String(), clusterOf(cfg), longThenShort, 30, nil)
	}

	// A KV handoff crosses the fabric and lands in the decode queue
	// while the decode engine is in a run.
	handoff := l70Config()
	handoff.Network = pluggablePacket()
	handoffReqs := []trace.Request{
		{ID: 0, Arrival: 0, PromptTokens: 1000, OutputTokens: 400},
		{ID: 1, Arrival: 2, PromptTokens: 800, OutputTokens: 30},
	}
	twins("handoff-cut", clusterOf(handoff), handoffReqs, 60, nil)
	if m, err := RunCluster(clusterOf(handoff), handoffReqs, 60); err != nil || m.Total.NetTransfers == 0 {
		t.Errorf("handoff-cut: %d fabric transfers (err %v), want the KV handoffs to cross it", m.Total.NetTransfers, err)
	}

	// Failures in the middle of a run's interior step (the static exact
	// tail and the colocated proportional un-count) and exactly on an
	// interior boundary; a dispatch pass on a boundary; horizons
	// mid-step and on a boundary.
	cont := smallConfig()
	cont.Scheduler = ContinuousBatching
	reqs := codingTrace(t, 1.0, 7, 60)
	for _, cfg := range []Config{smallConfig(), cont} {
		cc := clusterOf(cfg)
		pol := cfg.Scheduler.String()
		id, b1, b2 := firstRun(t, cc, reqs)
		mid := (b1 + b2) / 2
		twins("fail-mid-step-"+pol, cc, reqs, 120, func(s *clusterSim) { failAt(s, 0, id, mid) })
		twins("fail-on-boundary-"+pol, cc, reqs, 120, func(s *clusterSim) { failAt(s, 0, id, b1) })
		// A dispatch pass exactly on an interior boundary restarts the
		// engine there, in index order.
		twins("pass-on-boundary-"+pol, cc, reqs, 120, func(s *clusterSim) {
			s.eng.ScheduleCall(b1, prioArrival, func(now float64, _ uint64) { s.requestDispatch(s.pools[0], now) }, 0)
		})
		twins("horizon-mid-step-"+pol, cc, reqs, units.Seconds(mid), nil)
		twins("horizon-on-boundary-"+pol, cc, reqs, units.Seconds(b1), nil)
		// A run that settles exactly on an interior boundary: an event
		// before the decode band leaves the boundary unfired, one between
		// the decode band and the dispatch pass fires only its tokens,
		// and one after the pass also starts the next step.
		for _, prio := range []int{prioPrefill, prioTransfer, prioProbe} {
			twins(fmt.Sprintf("settle-on-boundary-%s-%x", pol, prio), cc, reqs, 120, func(s *clusterSim) {
				s.eng.ScheduleCall(b1, prio, func(float64, uint64) { s.pools[0].settle() }, 0)
			})
		}
	}

	// A planner sizing run that settles while decode engines are in
	// runs: the boundaries before the settling event apply, none after.
	overloaded := codingTrace(t, 80, 3, 60)
	slo := SLO{}.withDefaults()
	settled := 0
	twins("settled-sizing-run", clusterOf(smallConfig()), overloaded, 90, func(s *clusterSim) {
		s.pools[0].armBudget(overloaded, 90, slo)
		settled++
	})
	if settled != 2 {
		t.Fatalf("budget armed on %d runs, want 2", settled)
	}
	if bareSum >= observedSum {
		t.Errorf("bare runs fired %d events in all, not fewer than the %d of their observed twins", bareSum, observedSum)
	}
}

// TestSettledSizingRunStopsMidRun pins that the settled case above
// really settles, with a decode run in flight at the settle time.
func TestSettledSizingRunStopsMidRun(t *testing.T) {
	reqs := codingTrace(t, 80, 3, 60)
	cc := clusterOf(smallConfig())
	s, err := newClusterSim(cc, 90)
	if err != nil {
		t.Fatal(err)
	}
	p := s.pools[0]
	p.armBudget(reqs, 90, SLO{}.withDefaults())
	s.start(&sliceSource{reqs: reqs})
	s.eng.Run(90)
	if !p.settled {
		t.Fatal("sizing run did not settle")
	}
	inRun := false
	for _, e := range p.core.engines {
		inRun = inRun || e.runLeft > 0
	}
	if !inRun {
		t.Error("no decode run in flight when the sizing run settled")
	}
}

// FuzzDecodeRuns checks the decode-run equivalence of
// TestDecodeRunsMatchSteps over scheduler × fabric × failures ×
// straggler spread × rate × horizon: the bare run and its observed
// twin must render byte-identical Metrics.
func FuzzDecodeRuns(f *testing.F) {
	f.Add(uint8(0), false, false, uint8(0), uint8(2), uint16(60), uint64(7))
	f.Add(uint8(1), true, true, uint8(3), uint8(6), uint16(90), uint64(11))
	f.Add(uint8(2), false, true, uint8(5), uint8(12), uint16(45), uint64(3))
	f.Add(uint8(0), true, false, uint8(1), uint8(9), uint16(120), uint64(5))
	f.Fuzz(func(t *testing.T, sched uint8, fabric, failures bool, cv, rate uint8, horizon uint16, seed uint64) {
		cfg := l70Config()
		cfg.PrefillInstances = 2
		cfg.Scheduler = SchedulerPolicies()[int(sched)%3]
		if fabric {
			cfg.Network = pluggablePacket()
		}
		if c := float64(cv%6) / 10; c > 0 {
			cfg.Straggler = StragglerConfig{Jitter: straggler.Jitter{CV: c}, Seed: seed}
		}
		cc := clusterOf(cfg)
		if failures {
			cc.Failures = acceleratedFailures(int(seed % 2))
			cc.Failures.Seed = seed
		}
		h := units.Seconds(5 + horizon%120)
		reqs, err := trace.CodingWorkload(0.5+float64(rate%16)/2, seed).Generate(h)
		if err != nil {
			t.Fatal(err)
		}
		runTwins(t, "fuzz", cc, reqs, h+30, nil)
	})
}
