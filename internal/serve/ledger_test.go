package serve

import (
	"bytes"
	"fmt"
	"testing"

	"litegpu/internal/kv"
	"litegpu/internal/obs"
	"litegpu/internal/trace"
	"litegpu/internal/units"
)

// ledgerCase is one run the ledger test audits: a cluster, its trace
// and horizon, and instance failures placed by hand at fixed times.
type ledgerCase struct {
	name    string
	cluster ClusterConfig
	reqs    []trace.Request
	horizon units.Seconds
	fails   []ledgerFailure
}

// ledgerFailure downs pool-local instance id of pool at time at.
type ledgerFailure struct {
	pool, id int
	at       float64
}

// ledgerCases crosses the three schedulers with KV recompute and swap
// over a slow fabric, under both failure policies, with closed-loop
// clients and an admission gate; adds the handoff-failure setups of
// the TestTransfer*Failure tests; and takes every golden scenario and
// the observed clusters as they are.
func ledgerCases(t *testing.T) []ledgerCase {
	t.Helper()
	var cases []ledgerCase
	for _, pol := range SchedulerPolicies() {
		for _, kvPol := range []kv.Policy{kv.Recompute, kv.Swap} {
			for fp, fpName := range []string{"requeue", "drop"} {
				cfg := l70Config()
				cfg.Scheduler = pol
				cfg.PrefillInstances = 2
				cfg.DecodeInstances = 2
				cfg.Network = pluggablePacket()
				cfg.Network.LatencyScale = 1e5
				cfg.KV = kv.Config{Policy: kvPol, Blocks: 600}
				cfg.Client = ClientConfig{Default: ClientBehavior{Timeout: 30, Retries: 1, BackoffBase: 2}, Seed: 5}
				cfg.Admission = AdmissionConfig{Policy: AdmitAdaptive, QueueLimit: 24, Levels: 2}
				cc := clusterOf(cfg)
				cc.Failures = acceleratedFailures(1)
				cc.Failures.TimeScale = 8e7
				cc.Failures.Params.MTTR = 10
				cc.Failures.Params.RecoveryTime = 1
				cc.Failures.Policy = FailurePolicy(fp)
				cases = append(cases, ledgerCase{
					name:    fmt.Sprintf("%s-%s-%s", pol, kvPol, fpName),
					cluster: cc, reqs: convTrace(t, 8.0, 11, 150), horizon: 150,
				})
			}
		}
	}

	// TestTransferDstFailure's and TestTransferSrcFailure's setups: one
	// handoff in flight for ~6000 s when its destination (instance 1)
	// or its source (instance 0) dies at t=3000.
	handoff := l70Config()
	handoff.DecodeInstances = 2
	handoff.Network = pluggablePacket()
	handoff.Network.LatencyScale = 1e10
	for fp, fpName := range []string{"requeue", "drop"} {
		for id, end := range []string{"src", "dst"} {
			cc := clusterOf(handoff)
			cc.Failures.Policy = FailurePolicy(fp)
			cases = append(cases, ledgerCase{
				name:    fmt.Sprintf("transfer-%s-failure-%s", end, fpName),
				cluster: cc, reqs: oneRequest(1500, 4), horizon: 20000,
				fails: []ledgerFailure{{pool: 0, id: id, at: 3000}},
			})
		}
	}

	for _, scs := range goldenCorpora(t) {
		for _, sc := range scs {
			cases = append(cases, ledgerCase{name: sc.name, cluster: sc.cluster, reqs: sc.reqs, horizon: sc.horizon})
		}
	}
	for _, pol := range SchedulerPolicies() {
		cc, reqs, horizon := observedChaosCluster(t, pol)
		cases = append(cases, ledgerCase{name: "chaos-" + pol.String(), cluster: cc, reqs: reqs, horizon: horizon})
	}
	cc, reqs, horizon := retryCluster(t)
	cases = append(cases, ledgerCase{name: "retry-two-pool", cluster: cc, reqs: reqs, horizon: horizon})
	cc, reqs, horizon = oversizedCluster(t)
	cases = append(cases, ledgerCase{name: "oversized-continuous", cluster: cc, reqs: reqs, horizon: horizon})
	cc, reqs, horizon = fabricCluster(t)
	cases = append(cases, ledgerCase{name: "fabric-two-pool", cluster: cc, reqs: reqs, horizon: horizon})
	return cases
}

// lifecycleEvents runs c with an observer whose reservoir holds every
// request, and returns the timeline export.
func lifecycleEvents(t *testing.T, c ledgerCase) (Metrics, []byte) {
	t.Helper()
	rec := obs.New(obs.Options{Seed: 1, SampleTargets: len(c.reqs)})
	cc := c.cluster
	cc.Observer = rec
	if err := cc.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := newClusterSim(cc, float64(c.horizon))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range c.fails {
		failAt(s, f.pool, f.id, f.at)
	}
	cm := mustRunSim(t, s, c.reqs)
	if held, seen := rec.Sampled(); held != seen {
		t.Fatalf("the reservoir held %d of %d requests", held, seen)
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return cm.Total, buf.Bytes()
}

// TestLedgerMatchesObserverEvents checks that every request exit the
// metrics count leaves exactly one event on the request's timeline:
// with a reservoir that holds every request, the timelines' event
// counts must equal the counters. A retry booked past the horizon is
// counted but never fires, so retries are compared with backoff
// events, which are recorded when the retry is booked.
func TestLedgerMatchesObserverEvents(t *testing.T) {
	for _, c := range ledgerCases(t) {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			m, timeline := lifecycleEvents(t, c)
			for _, row := range []struct {
				kind   obs.Kind
				metric string
				want   int
			}{
				{obs.Drop, "Dropped+DroppedOnFailure", m.Dropped + m.DroppedOnFailure},
				{obs.Requeue, "Requeued", m.Requeued},
				{obs.Abandon, "Abandoned", m.Abandoned},
				{obs.Shed, "Shed", m.Shed},
				{obs.Timeout, "ClientTimeouts", m.ClientTimeouts},
				{obs.Backoff, "ClientRetries", m.ClientRetries},
				{obs.Complete, "Completed", m.Completed},
			} {
				// Request events render as lifecycle instants named by kind.
				name := fmt.Sprintf(`"name":%q,"cat":"lifecycle"`, row.kind)
				if got := bytes.Count(timeline, []byte(name)); got != row.want {
					t.Errorf("%d %s events, %s = %d", got, row.kind, row.metric, row.want)
				}
			}
		})
	}
}
