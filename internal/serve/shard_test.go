package serve

import (
	"fmt"
	"strings"
	"testing"

	"litegpu/internal/hw"
)

// hexCluster renders a ClusterMetrics in full-precision hex-float form,
// one line per pool plus the aggregate — the same byte-identity framing
// the golden corpus uses, so "equal strings" means "equal bits".
func hexCluster(cm ClusterMetrics) string {
	var b strings.Builder
	for _, pm := range cm.Pools {
		fmt.Fprintf(&b, "pool %s: %x\n", pm.Name, pm.Metrics)
	}
	fmt.Fprintf(&b, "total: %x\n", cm.Total)
	return b.String()
}

// shardScenarios covers both routers, heterogeneous pools, pool counts
// that do and do not divide evenly across shards, and failure injection
// (which exercises the global instance-index seed offsets).
func shardScenarios() []struct {
	name string
	cc   ClusterConfig
	rate float64
	seed uint64
} {
	small := smallConfig()
	lite4 := small
	lite4.GPU = hw.Lite()
	lite4.PrefillGPUs = 4
	lite4.DecodeGPUs = 4

	jsq := clusterOf(small, lite4)
	jsq.Router = JoinShortestQueue

	quad := clusterOf(small, lite4, small, lite4)

	trio := clusterOf(small, lite4, small)
	trio.Failures = acceleratedFailures(1)

	trioJSQ := trio
	trioJSQ.Router = JoinShortestQueue

	return []struct {
		name string
		cc   ClusterConfig
		rate float64
		seed uint64
	}{
		{name: "rr-hetero", cc: clusterOf(small, lite4), rate: 2.0, seed: 17},
		{name: "jsq-hetero", cc: jsq, rate: 2.0, seed: 17},
		{name: "rr-quad", cc: quad, rate: 3.0, seed: 23},
		{name: "rr-failures", cc: trio, rate: 2.0, seed: 31},
		{name: "jsq-failures", cc: trioJSQ, rate: 2.0, seed: 31},
	}
}

// TestShardCountInvariance is the sharding contract: RunCluster must
// produce byte-identical ClusterMetrics at every shard count, routers
// and failure injection included. Shard counts above the pool count
// clamp, so 4 and 8 also cover the clamping path.
func TestShardCountInvariance(t *testing.T) {
	for _, sc := range shardScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			reqs := codingTrace(t, sc.rate, sc.seed, 300)
			base, err := RunCluster(sc.cc, reqs, 500)
			if err != nil {
				t.Fatal(err)
			}
			want := hexCluster(base)
			for _, shards := range []int{1, 2, 4, 8} {
				cc := sc.cc
				cc.Shards = shards
				cm, err := RunCluster(cc, reqs, 500)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if got := hexCluster(cm); got != want {
					t.Errorf("shards=%d diverges from sequential:\ngot:\n%s\nwant:\n%s", shards, got, want)
				}
			}
		})
	}
}

// TestShardedClusterUnsortedInput pins that the parallel path applies
// the same arrival sort (including tie handling) as the sequential one.
func TestShardedClusterUnsortedInput(t *testing.T) {
	small := smallConfig()
	cc := clusterOf(small, small, small)
	reqs := codingTrace(t, 2.0, 41, 200)
	// Reverse the trace so both paths must sort it.
	for i, j := 0, len(reqs)-1; i < j; i, j = i+1, j-1 {
		reqs[i], reqs[j] = reqs[j], reqs[i]
	}
	base, err := RunCluster(cc, reqs, 400)
	if err != nil {
		t.Fatal(err)
	}
	cc.Shards = 3
	cm, err := RunCluster(cc, reqs, 400)
	if err != nil {
		t.Fatal(err)
	}
	if hexCluster(cm) != hexCluster(base) {
		t.Error("sharded run over unsorted input diverges from sequential")
	}
}
