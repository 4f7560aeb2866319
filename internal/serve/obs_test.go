package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"litegpu/internal/kv"
	"litegpu/internal/obs"
	"litegpu/internal/trace"
	"litegpu/internal/units"
)

// observedChaosCluster builds the ol-chaos deployment from the overload
// corpus under the given scheduler: closed-loop clients, adaptive
// admission, an elastic decode fleet, persistent stragglers, KV
// scarcity and accelerated failures all at once — the regime where a
// read-only observer has the most state to watch and the most ways to
// accidentally perturb it.
func observedChaosCluster(t *testing.T, pol SchedulerPolicy) (ClusterConfig, []trace.Request, units.Seconds) {
	t.Helper()
	cfg := smallConfig()
	cfg.Scheduler = pol
	cfg.DecodeInstances = 3
	cfg.Client = ClientConfig{
		Default: ClientBehavior{Timeout: 30, Retries: 1, BackoffBase: 2},
		Classes: []ClientBehavior{
			{Timeout: 30, Retries: 2, BackoffBase: 1, Jitter: 0.25, TTFTSLO: 2},
			{Timeout: 15, Retries: 1, BackoffBase: 4},
		},
		Seed: 7,
	}
	cfg.Admission = AdmissionConfig{Policy: AdmitAdaptive, QueueLimit: 24, Levels: 2}
	cfg.Autoscale = AutoscaleConfig{
		Enabled: true, Interval: 5, HighWater: 6, LowWater: 1, MinInstances: 1, WarmUp: 10,
	}
	cfg.KV = kv.Config{Policy: kv.Recompute, Blocks: 600}
	cc := clusterOf(cfg)
	cc.Failures = acceleratedFailures(0)
	return cc, twoTenantTrace(t, 10.0, 30.0, 150), 240
}

// runObserved attaches a fresh recorder (fixed seed, probes every 5 s)
// to the cluster, runs it, and returns the metrics plus the two export
// artifacts as strings.
func runObserved(t *testing.T, cc ClusterConfig, reqs []trace.Request, horizon units.Seconds) (ClusterMetrics, string, string) {
	t.Helper()
	rec := obs.New(obs.Options{Seed: 42, SampleTargets: 256, ProbeInterval: 5})
	cc.Observer = rec
	cm, err := RunCluster(cc, reqs, horizon)
	if err != nil {
		t.Fatal(err)
	}
	var tr, pb bytes.Buffer
	if err := rec.WriteTrace(&tr); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteProbesCSV(&pb); err != nil {
		t.Fatal(err)
	}
	return cm, tr.String(), pb.String()
}

// TestObservedRunsAreDeterministic pins the observer's own outputs:
// the same seed and config must export byte-identical timeline JSON and
// probe CSV under every scheduler, with failures, KV scarcity, and
// closed-loop clients all active. The reservoir RNG rides its own
// DeriveSeed stream, so sampling decisions replay exactly.
func TestObservedRunsAreDeterministic(t *testing.T) {
	for _, pol := range SchedulerPolicies() {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			cc, reqs, horizon := observedChaosCluster(t, pol)
			_, trace1, probes1 := runObserved(t, cc, reqs, horizon)
			_, trace2, probes2 := runObserved(t, cc, reqs, horizon)
			if trace1 != trace2 {
				t.Errorf("timeline JSON differs between identical runs (%d vs %d bytes)", len(trace1), len(trace2))
			}
			if probes1 != probes2 {
				t.Errorf("probe CSV differs between identical runs (%d vs %d bytes)", len(probes1), len(probes2))
			}
			if !strings.Contains(trace1, `"ph"`) {
				t.Error("timeline export contains no trace events")
			}
			// One probe row per pool per interval across the horizon,
			// plus the header.
			rows := strings.Count(probes1, "\n") - 1
			want := int(float64(horizon)/5) * len(cc.Pools)
			if rows != want {
				t.Errorf("probe CSV has %d rows, want %d (horizon %v / interval 5 × %d pools)",
					rows, want, horizon, len(cc.Pools))
			}
		})
	}
}

// TestObserverDoesNotPerturbSimulation is the read-only contract: a
// live observer must leave every simulated metric byte-identical to the
// unobserved run, under every scheduler, in the chaos regime. Renders
// the full Metrics through the same keyed renderer the golden corpora
// use, so any drift the goldens would catch is caught here with the
// observer live.
func TestObserverDoesNotPerturbSimulation(t *testing.T) {
	for _, pol := range SchedulerPolicies() {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			cc, reqs, horizon := observedChaosCluster(t, pol)
			bare, err := RunCluster(cc, reqs, horizon)
			if err != nil {
				t.Fatal(err)
			}
			observed, _, _ := runObserved(t, cc, reqs, horizon)
			if got, want := keyedCluster(t, "chaos", observed), keyedCluster(t, "chaos", bare); got != want {
				t.Errorf("observer perturbed the simulation at %s", firstDiff(got, want))
			}
		})
	}
}

// TestObserverHeartbeatCountsEveryCompletion pins the -progress
// mechanism end to end: the heartbeat callback fires once per completed
// request — before reservoir sampling, so the count is exact — with
// non-decreasing simulated time, and its final count matches the
// metrics the run reports.
func TestObserverHeartbeatCountsEveryCompletion(t *testing.T) {
	cc, reqs, horizon := observedChaosCluster(t, StaticDisaggregated)
	var calls int64
	lastT := -1.0
	rec := obs.New(obs.Options{
		Seed:          42,
		SampleTargets: 4, // tiny reservoir: the count must not depend on sampling
		Heartbeat: func(now float64, completed int64) {
			calls++
			if completed != calls {
				t.Fatalf("heartbeat completed=%d on call %d; must increment by exactly one", completed, calls)
			}
			if now < lastT {
				t.Fatalf("heartbeat time went backwards: %v after %v", now, lastT)
			}
			lastT = now
		},
	})
	cc.Observer = rec
	cm, err := RunCluster(cc, reqs, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("heartbeat never fired")
	}
	if calls != int64(cm.Total.Completed) {
		t.Errorf("heartbeat fired %d times, metrics report %d completions", calls, cm.Total.Completed)
	}
}

// TestObserverDisabledAllocationFree pins the dormant-hook cost at
// zero: with Observer nil (the default) the nil-guarded hooks threaded
// through the cluster path must not allocate per request, so cluster
// allocations stay flat as the trace grows — same contract and budget
// as TestServeAllocationsDoNotScaleWithRequests, measured through
// RunCluster so the engine-level hooks (ingress, probes) are on the
// measured path too.
func TestObserverDisabledAllocationFree(t *testing.T) {
	for _, pol := range SchedulerPolicies() {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			cfg := smallConfig()
			cfg.Scheduler = pol
			gen := trace.CodingWorkload(1.0, 7)
			short, err := gen.Generate(100)
			if err != nil {
				t.Fatal(err)
			}
			long, err := gen.Generate(400)
			if err != nil {
				t.Fatal(err)
			}
			allocs := func(reqs []trace.Request, horizon units.Seconds) float64 {
				return testing.AllocsPerRun(3, func() {
					if _, err := RunCluster(clusterOf(cfg), reqs, horizon); err != nil {
						t.Fatal(err)
					}
				})
			}
			aShort := allocs(short, 200)
			aLong := allocs(long, 500)
			extraReqs := len(long) - len(short)
			extra := aLong - aShort
			if extra > 160 || extra > 0.5*float64(extraReqs) {
				t.Errorf("%s: %d extra requests cost %.0f extra allocations with observer disabled (short %.0f, long %.0f)",
					pol, extraReqs, extra, aShort, aLong)
			}
		})
	}
}

// retryCluster is two KV-on pools held to six decode slots each, so
// both fall behind and their clients time out and retry throughout.
func retryCluster(t *testing.T) (ClusterConfig, []trace.Request, units.Seconds) {
	t.Helper()
	cfg := smallConfig()
	cfg.MaxDecodeBatch = 6
	cfg.KV = kv.Config{Policy: kv.Recompute}
	cfg.Client = ClientConfig{Default: ClientBehavior{Timeout: 10, Retries: 2}}
	reqs, err := trace.ConversationWorkload(24, 5).Generate(120)
	if err != nil {
		t.Fatal(err)
	}
	return clusterOf(cfg, cfg), reqs, 120
}

// TestRetryIDsAreClusterUnique pins retry IDs as unique across pools.
// The observer keys its live timelines by request ID alone, so two
// pools handing out the same retry ID would splice one pool's retries
// into the other's timeline. Two KV-on pools held to six decode slots
// each fall behind, so both time out and retry throughout; in the
// exported timeline JSON every request ID must stay under one pool.
func TestRetryIDsAreClusterUnique(t *testing.T) {
	cc, reqs, horizon := retryCluster(t)
	cm, timeline, _ := runObserved(t, cc, reqs, horizon)
	for _, pm := range cm.Pools {
		if pm.Metrics.ClientRetries == 0 {
			t.Fatalf("pool %s made no retries; the scenario no longer exercises them", pm.Name)
		}
	}
	var doc struct {
		TraceEvents []struct {
			Cat  string
			Pid  int
			Args struct{ Req int64 }
		}
	}
	if err := json.Unmarshal([]byte(timeline), &doc); err != nil {
		t.Fatal(err)
	}
	poolOf := map[int64]int{}
	for _, e := range doc.TraceEvents {
		if e.Cat != "lifecycle" {
			continue
		}
		if pid, ok := poolOf[e.Args.Req]; ok && pid != e.Pid {
			t.Fatalf("request %d has events under pools %d and %d", e.Args.Req, pid-1, e.Pid-1)
		}
		poolOf[e.Args.Req] = e.Pid
	}
	if len(poolOf) == 0 {
		t.Fatal("the timeline holds no lifecycle events")
	}
}

// observerGoldenFile pins the observer's exports across revisions: one
// SHA-256 line each for the timeline JSON and the probe CSV of every
// observed scenario. TestObservedRunsAreDeterministic compares two runs
// of one build; this file compares a build against the exports of the
// build that captured it, so a change to how the Recorder stores its
// timelines must leave it byte-identical. Regenerate (only when
// knowingly changing what the observer exports) with:
//
//	LITEGPU_UPDATE_GOLDENS=1 go test ./internal/serve -run Golden
const observerGoldenFile = "testdata/observer_goldens.txt"

// oversizedCluster is one continuous-batching pool fed a coding trace
// with two prompts longer than any prefill pass fits: admission drops
// them, each with a drop event on its timeline.
func oversizedCluster(t *testing.T) (ClusterConfig, []trace.Request, units.Seconds) {
	t.Helper()
	cfg := smallConfig()
	cfg.Scheduler = ContinuousBatching
	reqs := codingTrace(t, 1.0, 7, 60)
	for _, i := range []int{3, len(reqs) / 2} {
		reqs[i].PromptTokens = 2 * longContextTokens
	}
	return clusterOf(cfg), reqs, 90
}

// fabricCluster is two static Lite pools on a pluggable packet fabric,
// with swapped KV held to 600 blocks and failures covered by one spare.
// Every arrival rides an ingress transfer to its pool, every prefill
// pass hands its KV across nodes, preempted sequences swap over the
// fabric, and downed instances come back on the spare: the transfer,
// swap and recovery events no other observed scenario records.
func fabricCluster(t *testing.T) (ClusterConfig, []trace.Request, units.Seconds) {
	t.Helper()
	cfg := l70Config()
	cfg.Scheduler = StaticDisaggregated
	cfg.Network = pluggablePacket()
	cfg.KV = kv.Config{Policy: kv.Swap, Blocks: 600}
	cc := clusterOf(cfg, cfg)
	cc.Failures = acceleratedFailures(1)
	return cc, convTrace(t, 3.0, 11, 120), 120
}

// TestFabricClusterRecordsTransfers pins what fabricCluster is for: its
// timeline must hold ingress transfers (on the frontend thread), static
// KV handoffs (on an instance thread), their deliveries and the
// enqueues that follow them, swap-outs, and spare takeovers.
func TestFabricClusterRecordsTransfers(t *testing.T) {
	cc, reqs, horizon := fabricCluster(t)
	_, timeline, _ := runObserved(t, cc, reqs, horizon)
	var doc struct {
		TraceEvents []struct {
			Name string
			Tid  int
		}
	}
	if err := json.Unmarshal([]byte(timeline), &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range doc.TraceEvents {
		switch {
		case e.Name == obs.XferStart.String() && e.Tid == 0:
			seen["ingress "+e.Name] = true
		case e.Name == obs.XferStart.String():
			seen["handoff "+e.Name] = true
		default:
			seen[e.Name] = true
		}
	}
	for _, want := range []string{
		"ingress xfer_start", "handoff xfer_start", obs.XferDeliver.String(),
		obs.Enqueue.String(), obs.KVSwapOut.String(), obs.InstanceUp.String(),
	} {
		if !seen[want] {
			t.Errorf("the timeline holds no %s event; the scenario no longer exercises it", want)
		}
	}
}

// TestObserverExportGoldens hashes the exports of the chaos cluster
// under every scheduler, of the two-pool retry cluster, whose retries
// re-key sampled timelines through Adopt, of a pool that drops
// oversized prompts at admission, and of the two-pool fabric cluster.
func TestObserverExportGoldens(t *testing.T) {
	var b strings.Builder
	hash := func(name, timeline, probes string) {
		fmt.Fprintf(&b, "%s.timeline_json=%x\n", name, sha256.Sum256([]byte(timeline)))
		fmt.Fprintf(&b, "%s.probe_csv=%x\n", name, sha256.Sum256([]byte(probes)))
	}
	for _, pol := range SchedulerPolicies() {
		cc, reqs, horizon := observedChaosCluster(t, pol)
		_, timeline, probes := runObserved(t, cc, reqs, horizon)
		hash("chaos/"+pol.String(), timeline, probes)
	}
	cc, reqs, horizon := retryCluster(t)
	_, timeline, probes := runObserved(t, cc, reqs, horizon)
	hash("retry-two-pool", timeline, probes)
	cc, reqs, horizon = oversizedCluster(t)
	_, timeline, probes = runObserved(t, cc, reqs, horizon)
	hash("oversized-continuous", timeline, probes)
	cc, reqs, horizon = fabricCluster(t)
	_, timeline, probes = runObserved(t, cc, reqs, horizon)
	hash("fabric-two-pool", timeline, probes)
	compareGoldens(t, observerGoldenFile, b.String())
}
