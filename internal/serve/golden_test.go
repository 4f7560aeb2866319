package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"litegpu/internal/hw"
	"litegpu/internal/inference"
	"litegpu/internal/model"
	"litegpu/internal/trace"
	"litegpu/internal/units"
)

// goldenFile pins the static scheduler to the exact Metrics the
// pre-scheduler-interface engine produced: it was first captured at the
// commit before the Scheduler extraction. Every corpus is in the keyed
// format of renderKeyed — one "key=%x" line per Metrics leaf, floats
// in hex (full precision) — so a match is byte-identity, not
// approximate equality: the repo's determinism contract for simulator
// refactors. A new Metrics field shows up as added keys on
// regeneration; a changed value is a behaviour change.
const goldenFile = "testdata/static_goldens.txt"

// goldenScenario is one (deployment, materialized trace) pair of a
// golden corpus. It carries its requests directly, so single-workload
// and multi-tenant traces go through the same report.
type goldenScenario struct {
	name    string
	cluster ClusterConfig
	reqs    []trace.Request
	horizon units.Seconds
}

// goldenScenarios covers both workload shapes, single- and
// multi-instance pools, both GPU types, a decode-heavy no-drain regime,
// a heterogeneous two-pool cluster behind each router, a four-pool
// cluster, and a three-pool cluster with failure injection behind each
// router (per-instance failure seeds run over global instance indices).
func goldenScenarios(t *testing.T) []goldenScenario {
	small := Config{
		GPU:              hw.H100(),
		Model:            model.Llama3_8B(),
		Opts:             inference.DefaultOptions(),
		PrefillInstances: 1,
		PrefillGPUs:      1,
		DecodeInstances:  1,
		DecodeGPUs:       1,
		MaxPrefillBatch:  4,
		MaxDecodeBatch:   64,
	}
	h70 := Config{
		GPU:              hw.H100(),
		Model:            model.Llama3_70B(),
		Opts:             inference.DefaultOptions(),
		PrefillInstances: 2,
		PrefillGPUs:      2,
		DecodeInstances:  1,
		DecodeGPUs:       2,
		MaxPrefillBatch:  4,
		MaxDecodeBatch:   64,
	}
	l70 := h70
	l70.GPU = hw.Lite()
	l70.PrefillGPUs = 8
	l70.DecodeGPUs = 8
	wide := small
	wide.PrefillInstances = 2
	wide.DecodeInstances = 3
	wide.MaxDecodeBatch = 8
	lite4 := small
	lite4.GPU = hw.Lite()
	lite4.PrefillGPUs = 4
	lite4.DecodeGPUs = 4

	jsq := clusterOf(small, lite4)
	jsq.Router = JoinShortestQueue
	trio := numberedPools(clusterOf(small, lite4, small))
	trio.Failures = acceleratedFailures(1)
	trioJSQ := trio
	trioJSQ.Router = JoinShortestQueue
	return []goldenScenario{
		{name: "small-coding", cluster: clusterOf(small), reqs: codingTrace(t, 1.0, 7, 200), horizon: 400},
		{name: "h100-70b-coding", cluster: clusterOf(h70), reqs: codingTrace(t, 1.2, 42, 300), horizon: 420},
		{name: "lite-70b-coding", cluster: clusterOf(l70), reqs: codingTrace(t, 1.2, 42, 300), horizon: 420},
		{name: "small-conv-nodrain", cluster: clusterOf(small), reqs: convTrace(t, 4.0, 11, 300), horizon: 300},
		{name: "wide-coding", cluster: clusterOf(wide), reqs: codingTrace(t, 4.0, 13, 200), horizon: 400},
		{name: "hetero-rr", cluster: clusterOf(small, lite4), reqs: codingTrace(t, 2.0, 17, 300), horizon: 500},
		{name: "hetero-jsq", cluster: jsq, reqs: codingTrace(t, 2.0, 17, 300), horizon: 500},
		{name: "rr-quad", cluster: numberedPools(clusterOf(small, lite4, small, lite4)), reqs: codingTrace(t, 3.0, 23, 300), horizon: 500},
		{name: "rr-failures", cluster: trio, reqs: codingTrace(t, 2.0, 31, 300), horizon: 500},
		{name: "jsq-failures", cluster: trioJSQ, reqs: codingTrace(t, 2.0, 31, 300), horizon: 500},
	}
}

// numberedPools names each pool by its index and GPU ("1-Lite"), so a
// cluster that repeats a GPU type still renders unique keys. Names
// only label metrics; they never change a simulation.
func numberedPools(cc ClusterConfig) ClusterConfig {
	pools := make([]Pool, len(cc.Pools))
	for i, p := range cc.Pools {
		p.Name = fmt.Sprintf("%d-%s", i, p.Config.GPU.Name)
		pools[i] = p
	}
	cc.Pools = pools
	return cc
}

// goldenReport runs every scenario and renders its ClusterMetrics
// keyed (see renderKeyed): each pool's Metrics under
// "<scenario>/pool <name>", the aggregate under "<scenario>/total".
func goldenReport(t *testing.T, scenarios []goldenScenario) string {
	t.Helper()
	var b strings.Builder
	for _, sc := range scenarios {
		cm, err := RunCluster(sc.cluster, sc.reqs, sc.horizon)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		b.WriteString(keyedCluster(t, sc.name, cm))
	}
	return b.String()
}

// keyedCluster renders one run's per-pool and aggregate Metrics under
// prefix, as goldenReport does for a scenario.
func keyedCluster(t *testing.T, prefix string, cm ClusterMetrics) string {
	t.Helper()
	var b strings.Builder
	for _, pm := range cm.Pools {
		b.WriteString(keyed(t, prefix+"/pool "+pm.Name, pm.Metrics))
	}
	b.WriteString(keyed(t, prefix+"/total", cm.Total))
	return b.String()
}

// renderKeyed writes one "key=%x" line per numeric leaf of v. A key is
// prefix plus the leaf's path: a struct field appends ".Name", a slice
// appends ".len" (its length) and "[i]" per element. Only struct,
// slice, int and float64 are rendered; any other kind is an error, so
// a new Metrics field either shows up as added keys or breaks the
// corpus build — it is never silently dropped.
func renderKeyed(b *strings.Builder, prefix string, v reflect.Value) error {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if err := renderKeyed(b, prefix+"."+v.Type().Field(i).Name, v.Field(i)); err != nil {
				return err
			}
		}
	case reflect.Slice:
		fmt.Fprintf(b, "%s.len=%x\n", prefix, v.Len())
		for i := 0; i < v.Len(); i++ {
			if err := renderKeyed(b, fmt.Sprintf("%s[%d]", prefix, i), v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Int:
		fmt.Fprintf(b, "%s=%x\n", prefix, v.Int())
	case reflect.Float64:
		fmt.Fprintf(b, "%s=%x\n", prefix, v.Float())
	default:
		return fmt.Errorf("%s: cannot render a %s leaf", prefix, v.Kind())
	}
	return nil
}

// keyed renders v under prefix (see renderKeyed), failing the test on a
// leaf the format cannot hold.
func keyed(t *testing.T, prefix string, v any) string {
	t.Helper()
	var b strings.Builder
	if err := renderKeyed(&b, prefix, reflect.ValueOf(v)); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestGoldenRenderCoversEveryLeaf pins the keyed renderer on a Metrics
// whose every numeric leaf holds a distinct value: one line per leaf
// plus one per slice length, no key or value repeated, and a leaf kind
// the format cannot hold fails instead of vanishing.
func TestGoldenRenderCoversEveryLeaf(t *testing.T) {
	m := Metrics{Classes: make([]ClassMetrics, 2)}
	leaves, slices := 0, 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Slice:
			slices++
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i))
			}
		case reflect.Int:
			leaves++
			v.SetInt(int64(1000 + leaves))
		case reflect.Float64:
			leaves++
			v.SetFloat(float64(leaves) + 0.5)
		default:
			t.Fatalf("Metrics has a %s leaf", v.Kind())
		}
	}
	fill(reflect.ValueOf(&m).Elem())

	lines := strings.Split(strings.TrimSuffix(keyed(t, "x", m), "\n"), "\n")
	if len(lines) != leaves+slices {
		t.Errorf("rendered %d lines for %d leaves and %d slices", len(lines), leaves, slices)
	}
	keys, values := map[string]bool{}, map[string]bool{}
	for _, line := range lines {
		k, v, ok := strings.Cut(line, "=")
		if !ok || keys[k] || values[v] {
			t.Errorf("line %q: malformed, or its key or value repeats", line)
		}
		keys[k], values[v] = true, true
	}
	for _, k := range []string{"x.Arrived", "x.TTFT.P999", "x.Classes.len", "x.Classes[1].Goodput"} {
		if !keys[k] {
			t.Errorf("no %s line", k)
		}
	}

	type withMap struct {
		N int
		M map[string]int
	}
	if err := renderKeyed(&strings.Builder{}, "x", reflect.ValueOf(withMap{})); err == nil || !strings.Contains(err.Error(), "x.M") {
		t.Errorf("rendering a map field: err %v, want an error naming x.M", err)
	}
}

// TestStaticSchedulerMatchesPreRefactorGoldens proves the extracted
// StaticDisaggregated policy is byte-identical to the engine it was
// extracted from: the golden values predate the Scheduler interface,
// and hex floats leave no room for float drift. Regenerate (only when
// knowingly changing simulator semantics) with:
//
//	LITEGPU_UPDATE_GOLDENS=1 go test ./internal/serve -run Golden
func TestStaticSchedulerMatchesPreRefactorGoldens(t *testing.T) {
	compareGoldens(t, goldenFile, goldenReport(t, goldenScenarios(t)))
}

// TestStreamedRunsMatchMaterialized runs every single-pool scenario of
// the five golden corpora a second time, pulling its arrivals from a
// RequestSource through RunClusterFrom, and requires the keyed lines
// of the RunCluster run: the streamed path is the one behind ServeFrom
// and the benchmark's million-request run.
func TestStreamedRunsMatchMaterialized(t *testing.T) {
	runs := 0
	for _, scenarios := range goldenCorpora(t) {
		for _, sc := range scenarios {
			if len(sc.cluster.Pools) != 1 {
				continue
			}
			if !sortedByArrival(sc.reqs) {
				t.Fatalf("%s: trace is not in arrival order, so it cannot be streamed as is", sc.name)
			}
			want, err := RunCluster(sc.cluster, sc.reqs, sc.horizon)
			if err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
			got, err := RunClusterFrom(sc.cluster, &sliceSource{reqs: sc.reqs}, sc.horizon)
			if err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
			if g, w := keyedCluster(t, sc.name, got), keyedCluster(t, sc.name, want); g != w {
				t.Errorf("%s: streamed run diverged at %s", sc.name, firstDiff(g, w))
			}
			runs++
		}
	}
	if runs == 0 {
		t.Fatal("no single-pool golden scenario to stream")
	}
}

// compareGoldens checks (or, under LITEGPU_UPDATE_GOLDENS, rewrites) one
// golden corpus file against the freshly rendered report.
func compareGoldens(t *testing.T, file, got string) {
	t.Helper()
	if os.Getenv("LITEGPU_UPDATE_GOLDENS") != "" {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", file, len(got))
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("missing golden corpus (run with LITEGPU_UPDATE_GOLDENS=1 to capture): %v", err)
	}
	if got != string(want) {
		t.Fatalf("simulator diverged from %s at %s", file, firstDiff(got, string(want)))
	}
}

// firstDiff names the first line at which got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "no line"
}
