package serve

import (
	"fmt"
	"slices"
	"testing"

	"litegpu/internal/kv"
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
// the metrics: every static, scheduler, network and KV golden scenario,
// and targeted cases for each place a run is cut short or caught up,
// render byte-identical to their observed twins, whose decode steps are
// each their own event. Runs must also save work: no bare run fires
// more events than its twin, and all of them together fire fewer.
func TestDecodeRunsMatchSteps(t *testing.T) {
	var bareSum, observedSum uint64
	twins := func(name string, cc ClusterConfig, reqs []trace.Request, horizon units.Seconds, arm func(*clusterSim)) {
		t.Helper()
		b, o := runTwins(t, name, cc, reqs, horizon, arm)
		bareSum += b
		observedSum += o
	}
	for _, scenarios := range [][]goldenScenario{goldenScenarios(t), schedulerGoldenScenarios(t), networkGoldenScenarios(t), kvGoldenScenarios(t)} {
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

	kvRunCases(t, twins)
	if bareSum >= observedSum {
		t.Errorf("bare runs fired %d events in all, not fewer than the %d of their observed twins", bareSum, observedSum)
	}
}

// kvRunCases adds TestDecodeRunsMatchSteps' cases for runs under paged
// KV, which go on past block boundaries while the engine's free blocks
// cover their claims, owe those claims to the pool's occupancy integral
// until a flush counts them, and catch their members' sequences up on
// the growth at their end.
func kvRunCases(t *testing.T, twins func(string, ClusterConfig, []trace.Request, units.Seconds, func(*clusterSim))) {
	t.Helper()
	// A 30-token prompt fills its second block on the second decode
	// step. With HBM-derived blocks the run after the first step crosses
	// every later boundary and lasts the generation; four blocks cover
	// two claims, so the run ends before the third, whose step finds
	// the allocator dry and drops the sole sequence.
	boundary := smallConfig()
	boundary.Scheduler = ContinuousBatching
	boundary.KV = kv.Config{Policy: kv.Recompute}
	boundaryReqs := []trace.Request{{ID: 0, PromptTokens: 30, OutputTokens: 50}}
	twins("kv-run-crosses-blocks", clusterOf(boundary), boundaryReqs, 30, nil)
	if got, want := decodeRunLengths(t, clusterOf(boundary), boundaryReqs), []int{1, 49}; !slices.Equal(got, want) {
		t.Errorf("kv-run-crosses-blocks: decode runs of %v steps, want %v", got, want)
	}
	partly := boundary
	partly.KV.Blocks = 4
	twins("kv-run-partly-covered", clusterOf(partly), boundaryReqs, 30, nil)
	if got, want := decodeRunLengths(t, clusterOf(partly), boundaryReqs), []int{1, 33}; !slices.Equal(got, want) {
		t.Errorf("kv-run-partly-covered: decode runs of %v steps, want %v", got, want)
	}

	// Two sequences share six blocks: the run covers the two claims the
	// free blocks hold, and the step after it preempts the newer one.
	squeeze := boundary
	squeeze.KV.Blocks = 6
	pairReqs := []trace.Request{
		{ID: 0, PromptTokens: 30, OutputTokens: 120},
		{ID: 1, PromptTokens: 30, OutputTokens: 120},
	}
	twins("kv-preempt-after-covered-run", clusterOf(squeeze), pairReqs, 60, nil)
	wantPreemptions(t, "kv-preempt-after-covered-run", clusterOf(squeeze), pairReqs, 60)

	// A prompt no pass fits and no free blocks hold lands at the head of
	// the queue while a long generation runs on the only instance: the
	// run is cut so that its next step drops the prompt.
	oversized := []trace.Request{
		{ID: 0, PromptTokens: 512, OutputTokens: 3000},
		{ID: 1, Arrival: 0.5, PromptTokens: 4_000_000, OutputTokens: 40},
		{ID: 2, Arrival: 0.9, PromptTokens: 64, OutputTokens: 90},
	}
	lone := boundary
	lone.Instances = 1
	twins("kv-oversized-head-cut", clusterOf(lone), oversized, 30, nil)
	if m, err := RunCluster(clusterOf(lone), oversized, 30); err != nil || m.Total.Dropped != 1 {
		t.Errorf("kv-oversized-head-cut: %d dropped (err %v), want the oversized prompt dropped", m.Total.Dropped, err)
	}

	// Ample HBM-derived blocks under every scheduler, and prefix caching
	// on a prefixed coding workload, ample and scarce.
	convReqs := convTrace(t, 4.0, 5, 60)
	for _, pol := range SchedulerPolicies() {
		cfg := smallConfig()
		cfg.Scheduler = pol
		cfg.PrefillChunk = 256
		cfg.KV = kv.Config{Policy: kv.Recompute}
		twins("kv-ample-"+pol.String(), clusterOf(cfg), convReqs, 90, nil)
	}
	gen := trace.CodingWorkload(6, 13)
	gen.PrefixTokens, gen.PrefixGroups = 512, 3
	prefixReqs, err := gen.Generate(60)
	if err != nil {
		t.Fatal(err)
	}
	for _, blocks := range []int{0, 300} {
		cfg := smallConfig()
		cfg.Scheduler = ContinuousBatching
		cfg.KV = kv.Config{Policy: kv.Recompute, PrefixCache: true, Blocks: blocks}
		twins(fmt.Sprintf("kv-prefix-blocks-%d", blocks), clusterOf(cfg), prefixReqs, 90, nil)
	}

	// Failures, horizons and settles at a claim a run owes: a failure
	// between the claim's boundary and the next, so the claim is owed
	// when the allocator resets, and a horizon and settles exactly on
	// the claim's boundary.
	for _, pol := range []SchedulerPolicy{StaticDisaggregated, ContinuousBatching} {
		cfg := smallConfig()
		cfg.Scheduler = pol
		cfg.KV = kv.Config{Policy: kv.Recompute}
		cc := clusterOf(cfg)
		id, claim, after := firstClaim(t, cc, convReqs)
		name := pol.String()
		twins("kv-fail-owing-claim-"+name, cc, convReqs, 120, func(s *clusterSim) { failAt(s, 0, id, (claim+after)/2) })
		twins("kv-horizon-on-claim-"+name, cc, convReqs, units.Seconds(claim), nil)
		for _, prio := range []int{prioPrefill, prioTransfer, prioProbe} {
			twins(fmt.Sprintf("kv-settle-on-claim-%s-%x", name, prio), cc, convReqs, 120, func(s *clusterSim) {
				s.eng.ScheduleCall(claim, prio, func(float64, uint64) { s.pools[0].settle() }, 0)
			})
		}
	}

	// Three engines start identical runs at one instant; the third's
	// request completes on a boundary where the other two claim a block,
	// so a release and two claims share that instant.
	three := smallConfig()
	three.Scheduler = ContinuousBatching
	three.Instances = 3
	three.MaxDecodeBatch = 1
	three.KV = kv.Config{Policy: kv.Recompute}
	threeReqs := []trace.Request{
		{ID: 0, PromptTokens: 30, OutputTokens: 100},
		{ID: 1, PromptTokens: 30, OutputTokens: 100},
		{ID: 2, PromptTokens: 30, OutputTokens: 34},
	}
	twins("kv-claims-meet-release", clusterOf(three), threeReqs, 30, nil)
	if !claimsMeetRelease(t, clusterOf(three), threeReqs) {
		t.Error("kv-claims-meet-release: no release shares its instant with two engines' claims")
	}

	// Failures strike a KV run after an interior boundary, so growth is
	// owed when the allocator resets; horizons and a settle land in the
	// middle of a KV run.
	kvCont := smallConfig()
	kvCont.Scheduler = ContinuousBatching
	kvCont.KV = kv.Config{Policy: kv.Recompute, Blocks: 600}
	kvStatic := smallConfig()
	kvStatic.DecodeInstances = 2
	kvStatic.KV = kv.Config{Policy: kv.Swap, Blocks: 600, BlockTokens: 8}
	reqs := convTrace(t, 4.0, 5, 60)
	for _, cfg := range []Config{kvStatic, kvCont} {
		cc := clusterOf(cfg)
		name := cfg.Scheduler.String() + "-" + cfg.KV.String()
		id, b1, b2 := firstRun(t, cc, reqs)
		mid := (b1 + b2) / 2
		twins("kv-fail-mid-run-"+name, cc, reqs, 120, func(s *clusterSim) { failAt(s, 0, id, mid) })
		// A pass exactly on an interior boundary ends the run there with
		// one more token emitted than steps started.
		twins("kv-pass-on-boundary-"+name, cc, reqs, 120, func(s *clusterSim) {
			s.eng.ScheduleCall(b1, prioArrival, func(now float64, _ uint64) { s.requestDispatch(s.pools[0], now) }, 0)
		})
		twins("kv-horizon-mid-run-"+name, cc, reqs, units.Seconds(mid), nil)
		twins("kv-settle-mid-run-"+name, cc, reqs, 120, func(s *clusterSim) {
			s.eng.ScheduleCall(mid, prioTransfer, func(float64, uint64) { s.pools[0].settle() }, 0)
		})
	}

	// A static decode engine's growth preempts a recompute victim while
	// the prefill engine is idle: the survivor's run must stop at its
	// in-flight step so the next pass starts the rebuild.
	rebuild := smallConfig()
	rebuild.KV = kv.Config{Policy: kv.Recompute, Blocks: 16}
	pair := []trace.Request{
		{ID: 0, PromptTokens: 40, OutputTokens: 200},
		{ID: 1, Arrival: 0.05, PromptTokens: 40, OutputTokens: 200},
	}
	twins("kv-static-rebuild-cut", clusterOf(rebuild), pair, 60, nil)
	wantPreemptions(t, "kv-static-rebuild-cut", clusterOf(rebuild), pair, 60)

	// Swap with no fabric: the victim returns to the head of the queue
	// in the middle of the pass that preempted it, while the other
	// engine is in a run with a free slot.
	swap := smallConfig()
	swap.Scheduler = ContinuousBatching
	swap.Instances = 2
	swap.KV = kv.Config{Policy: kv.Swap, Blocks: 16}
	trio := []trace.Request{
		{ID: 0, PromptTokens: 40, OutputTokens: 300},
		{ID: 1, Arrival: 0.05, PromptTokens: 20, OutputTokens: 100},
		{ID: 2, Arrival: 0.1, PromptTokens: 40, OutputTokens: 300},
	}
	twins("kv-swap-no-fabric-cut", clusterOf(swap), trio, 60, nil)
	wantPreemptions(t, "kv-swap-no-fabric-cut", clusterOf(swap), trio, 60)
}

// wantPreemptions fails t unless a run of cc over reqs preempts.
func wantPreemptions(t *testing.T, name string, cc ClusterConfig, reqs []trace.Request, horizon units.Seconds) {
	t.Helper()
	if m, err := RunCluster(cc, reqs, horizon); err != nil || m.Total.KVPreemptions == 0 {
		t.Errorf("%s: %d preemptions (err %v), want the case to preempt", name, m.Total.KVPreemptions, err)
	}
}

// firstClaim steps a bare run of cc until an engine of its first pool
// starts a decode run that claims a block at an interior boundary with
// another boundary after it, and returns that engine's instance id, the
// claim's time and the next boundary's.
func firstClaim(t *testing.T, cc ClusterConfig, reqs []trace.Request) (id int, claim, next float64) {
	t.Helper()
	s, err := newClusterSim(cc, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	c := s.pools[0].core
	s.start(&sliceSource{reqs: reqs})
	for s.eng.Step() {
		for j := range c.engines {
			if e := &c.engines[j]; e.claimNext > 0 && e.claimNext < e.runGrow+e.runLeft {
				return c.base + j, e.claimAt, e.claimAt + e.stepDec
			}
		}
	}
	t.Fatal("no decode run claims a block before its last boundary")
	return 0, 0, 0
}

// claimsMeetRelease steps a bare run of cc over reqs and reports
// whether some engine of its first pool goes idle at an instant on
// which two other engines' runs have a boundary with a block claim.
func claimsMeetRelease(t *testing.T, cc ClusterConfig, reqs []trace.Request) bool {
	t.Helper()
	s, err := newClusterSim(cc, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	c := s.pools[0].core
	busy := make([]bool, len(c.engines))
	s.start(&sliceSource{reqs: reqs})
	for s.eng.Step() {
		now := s.eng.Now()
		for j := range c.engines {
			idle := len(c.engines[j].active) == 0 && busy[j]
			busy[j] = len(c.engines[j].active) > 0
			if !idle {
				continue
			}
			claiming := 0
			for k := range c.engines {
				e := c.engines[k] // a copy: walking its chain changes nothing
				if e.runLeft == 0 {
					continue
				}
				b := e.runGrow + 1
				for ; e.stepEnd < now; b++ {
					e.stepEnd += e.stepDec
				}
				if e.stepEnd == now && b <= e.runGrow+e.runLeft && e.claimsAt(b) > 0 {
					claiming++
				}
			}
			if claiming >= 2 {
				return true
			}
		}
	}
	return false
}

// decodeRunLengths runs cc over reqs bare and returns the length of
// every decode step or run its first pool's engines start, in order.
func decodeRunLengths(t *testing.T, cc ClusterConfig, reqs []trace.Request) []int {
	t.Helper()
	s, err := newClusterSim(cc, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	c := s.pools[0].core
	ends := make([]float64, len(c.engines))
	var runs []int
	s.start(&sliceSource{reqs: reqs})
	for s.eng.Step() {
		for j := range c.engines {
			e := &c.engines[j]
			if e.stepEnd > 0 && e.stepDec > 0 && e.stepPrefill == 0 && e.stepEnd != ends[j] {
				runs = append(runs, 1+e.runLeft)
			}
			ends[j] = e.stepEnd
		}
	}
	return runs
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

// fuzzKV is FuzzDecodeRuns' KV axis: off, Recompute, Swap, and
// Recompute with prefix caching.
var fuzzKV = []kv.Config{{}, {Policy: kv.Recompute}, {Policy: kv.Swap}, {Policy: kv.Recompute, PrefixCache: true}}

// FuzzDecodeRuns checks the decode-run equivalence of
// TestDecodeRunsMatchSteps over scheduler × fabric × failures ×
// straggler spread × rate × horizon × KV policy, block size and
// budget: the bare run and its observed twin must render
// byte-identical Metrics. A scarce budget holds 9,600 tokens per
// instance; an ample one is derived from HBM.
func FuzzDecodeRuns(f *testing.F) {
	f.Add(uint8(0), false, false, uint8(0), uint8(2), uint16(60), uint64(7), uint8(0), false, uint8(0))
	f.Add(uint8(1), true, true, uint8(3), uint8(6), uint16(90), uint64(11), uint8(0), false, uint8(0))
	f.Add(uint8(2), false, true, uint8(5), uint8(12), uint16(45), uint64(3), uint8(0), false, uint8(0))
	f.Add(uint8(0), true, false, uint8(1), uint8(9), uint16(120), uint64(5), uint8(0), false, uint8(0))
	f.Add(uint8(0), false, false, uint8(0), uint8(9), uint16(60), uint64(7), uint8(1), true, uint8(12))
	f.Add(uint8(1), false, true, uint8(2), uint8(12), uint16(90), uint64(11), uint8(2), true, uint8(4))
	f.Add(uint8(2), true, false, uint8(0), uint8(6), uint16(45), uint64(3), uint8(3), false, uint8(0))
	f.Add(uint8(0), true, true, uint8(4), uint8(15), uint16(120), uint64(9), uint8(3), true, uint8(8))
	// Static recompute victims that need the rebuild-queue cut.
	f.Add(uint8(0), true, false, uint8(2), uint8(7), uint16(46), uint64(31), uint8(1), true, uint8(0))
	// Runs that cross block boundaries: HBM-derived blocks under each
	// scheduler, with failures, prefix caching and swap over a fabric.
	f.Add(uint8(0), false, true, uint8(0), uint8(10), uint16(100), uint64(17), uint8(1), false, uint8(0))
	f.Add(uint8(1), false, false, uint8(3), uint8(14), uint16(80), uint64(19), uint8(3), false, uint8(2))
	f.Add(uint8(2), true, true, uint8(1), uint8(8), uint16(110), uint64(23), uint8(2), false, uint8(6))
	// A growth preemption requeues a victim after an idle engine's turn
	// in the pass, while the running engines cannot take it: every run
	// must be cut so the next pass comes at the first step end.
	f.Add(uint8(17), false, false, uint8(9), uint8(171), uint16(38), uint64(10), uint8(3), true, uint8(87))
	f.Fuzz(func(t *testing.T, sched uint8, fabric, failures bool, cv, rate uint8, horizon uint16, seed uint64, kvMode uint8, scarce bool, blockTokens uint8) {
		cfg := l70Config()
		cfg.PrefillInstances = 2
		cfg.Scheduler = SchedulerPolicies()[int(sched)%3]
		if fabric {
			cfg.Network = pluggablePacket()
		}
		if cfg.KV = fuzzKV[int(kvMode)%len(fuzzKV)]; cfg.KV.Enabled() {
			cfg.KV.BlockTokens = 4 + int(blockTokens%13)
			if scarce {
				cfg.KV.Blocks = 9600 / cfg.KV.BlockTokens
			}
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
		gen := trace.CodingWorkload(0.5+float64(rate%16)/2, seed)
		if cfg.KV.PrefixCache {
			gen.PrefixTokens, gen.PrefixGroups = 512, 3
		}
		reqs, err := gen.Generate(h)
		if err != nil {
			t.Fatal(err)
		}
		runTwins(t, "fuzz", cc, reqs, h+30, nil)
	})
}
