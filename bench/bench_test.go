package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"litegpu"
	"litegpu/internal/units"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.txt from the current simulator")

// TestPinnedDigests runs every workload once at full size and seed 42
// and compares its output digest with testdata/digests.txt, so any
// change to simulated output fails here. stream_1m is skipped under the
// race detector, which slows it past the test budget.
func TestPinnedDigests(t *testing.T) {
	var lines []string
	for _, w := range workloads {
		if w.name == "stream_1m" && raceEnabled && !*update {
			t.Logf("skipping %s under -race", w.name)
			continue
		}
		inst, err := w.setup(pinnedSeed, false)
		if err != nil {
			t.Fatalf("%s setup: %v", w.name, err)
		}
		out, err := inst.op(nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		lines = append(lines, w.name+" "+out.digest)
		if *update {
			continue
		}
		want, err := pinnedDigest(w.name)
		if err != nil {
			t.Fatal(err)
		}
		if out.digest != want {
			t.Errorf("%s digest %s, pinned %s: simulated output changed (rerun with -update if intended)",
				w.name, out.digest, want)
		}
	}
	if *update {
		if err := os.WriteFile("testdata/digests.txt", []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the function must sort
		}
		return xs
	}
	for _, c := range []struct {
		xs       []float64
		p50, p90 float64
	}{
		{[]float64{7}, 7, 7},
		{[]float64{3, 1}, 1, 3},
		{seq(10), 5, 9},
		{seq(30), 15, 27}, // 0.9·30 rounds above 27 in floating point
		{seq(100), 50, 90},
		{seq(101), 51, 91},
	} {
		if got := nearestRank(c.xs, 0.5); got != c.p50 {
			t.Errorf("p50 of %d samples = %v, want %v", len(c.xs), got, c.p50)
		}
		if got := nearestRank(c.xs, 0.9); got != c.p90 {
			t.Errorf("p90 of %d samples = %v, want %v", len(c.xs), got, c.p90)
		}
	}
}

// TestParseTraces parses a captured `go tool pprof -traces` excerpt and
// checks each sample's value, frames and layer.
func TestParseTraces(t *testing.T) {
	text, err := os.ReadFile("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := parseTraces(string(text))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		value  time.Duration
		leaf   string
		frames int
		layer  string
	}{
		{10 * time.Millisecond, "slices.partitionOrdered[go.shape.float64]", 27, "mathx"}, // sort inside mathx.Summarize
		{10 * time.Millisecond, "litegpu/internal/trace.(*Stream).Next", 21, "trace"},
		{40 * time.Millisecond, "runtime.memmove", 23, "serve"},
		{20 * time.Millisecond, "runtime.madvise", 10, "runtime"},
		{80 * time.Millisecond, "runtime.nanotime", 23, "other"}, // the benchmark's own boundary span
		{10 * time.Millisecond, "litegpu/internal/sim.(*Engine).ScheduleCall", 21, "sim"},
		{10 * time.Millisecond, "math.archExp", 25, "mathx"}, // RNG draw inside trace.Stream.Next
	}
	if len(samples) != len(want) {
		t.Fatalf("parsed %d samples, want %d", len(samples), len(want))
	}
	for i, w := range want {
		s := samples[i]
		if s.value != w.value || s.frames[0] != w.leaf || len(s.frames) != w.frames {
			t.Errorf("sample %d = %v %q (%d frames), want %v %q (%d frames)",
				i, s.value, s.frames[0], len(s.frames), w.value, w.leaf, w.frames)
		}
		if got := layerOf(s.frames); got != w.layer {
			t.Errorf("sample %d (%s) attributed to %s, want %s", i, w.leaf, got, w.layer)
		}
	}
	shares := layerShares(samples)
	var sum float64
	for _, l := range layers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-12 || math.Abs(shares["runtime"]-20.0/180) > 1e-12 {
		t.Errorf("shares sum to %v with runtime %v, want 1 and 20/180", sum, shares["runtime"])
	}

	for frames, want := range map[string]string{
		"runtime.mallocgc litegpu/internal/roofline.Analyze litegpu/internal/inference.Run": "inference",
		"litegpu/internal/hw.GPU.Validate litegpu/internal/serve.Run":                       "other",
		"fmt.Errorf litegpu.Sweep.func1 litegpu/internal/sweep.RunN.func1":                  "other",
		"runtime.gcBgMarkWorker runtime.goexit":                                             "runtime",
	} {
		if got := layerOf(strings.Fields(frames)); got != want {
			t.Errorf("layerOf(%s) = %s, want %s", frames, got, want)
		}
	}
}

func TestDigestSensitivity(t *testing.T) {
	var m litegpu.ServeMetrics
	m.TTFT.P99 = 0.25
	base := digest(m)
	m.TTFT.P99 = math.Nextafter(0.25, 1)
	if digest(m) == base {
		t.Error("a one-ulp change in TTFT.P99 left the digest unchanged")
	}
	// A rounded display format must not hide a change either.
	var a, b planResult
	a.Cost.GPUCapex = 1.5e6
	b.Cost.GPUCapex = units.Dollars(math.Nextafter(1.5e6, 2e6))
	if digest(a) == digest(b) {
		t.Error("a one-ulp change in Cost.GPUCapex left the digest unchanged")
	}
}

// TestDigestInputsPlain checks that no digested type holds a pointer,
// map, func, channel or interface: their renderings would not be a
// function of the simulated values alone.
func TestDigestInputsPlain(t *testing.T) {
	var walk func(t reflect.Type, path string) error
	walk = func(t reflect.Type, path string) error {
		switch t.Kind() {
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				if err := walk(t.Field(i).Type, path+"."+t.Field(i).Name); err != nil {
					return err
				}
			}
		case reflect.Slice, reflect.Array:
			return walk(t.Elem(), path+"[]")
		case reflect.Pointer, reflect.Map, reflect.Func, reflect.Chan, reflect.Interface, reflect.UnsafePointer:
			return fmt.Errorf("%s is a %s", path, t.Kind())
		}
		return nil
	}
	for _, v := range []any{litegpu.ServeMetrics{}, []litegpu.ServeMetrics{}, planResult{}} {
		if err := walk(reflect.TypeOf(v), reflect.TypeOf(v).String()); err != nil {
			t.Error(err)
		}
	}
}

func TestInvariantChecksFail(t *testing.T) {
	good := litegpu.ServeMetrics{Arrived: 10, Completed: 10, Shed: 1, ClientRetries: 1, KVPreemptions: 1, NetTransfers: 1}
	if err := checkOverload(good); err != nil {
		t.Fatalf("valid metrics rejected: %v", err)
	}
	bad := map[string]error{}
	m := good
	m.Completed = 11
	bad["completed > arrived"] = checkMetrics(m)
	m = good
	m.Dropped = -1
	bad["negative count"] = checkMetrics(m)
	m = good
	m.Completed = 8
	bad["stream fell behind"] = checkStream(m)
	m = good
	m.KVPreemptions = 0
	bad["overload without preemption"] = checkOverload(m)
	bad["plan without winner"] = checkPlan(litegpu.CapacityPlan{Metrics: good, TotalGPUs: 8},
		&litegpu.PlanTrace{Candidates: []litegpu.PlanCandidate{{Feasible: true}}})
	cells := make([]litegpu.SweepCell, 96)
	cells[3].Err = "does not fit"
	bad["infeasible sweep cell"] = checkSweep(cells, 96)
	bad["short sweep"] = checkSweep(cells[:5], 96)
	for name, err := range bad {
		if err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

// TestSmoke runs every workload at reduced size for two ops per phase,
// plain and traced, through the path the command uses, and checks that
// no op failed and every metric BENCHMARK.json names is reported.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, err := findWorkload(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			res, _, err := runWorkload(w, runOpts{seed: 7, ops: 2, small: true, traced: traced, workDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed", w.name, traced, res.Failed, res.Attempted)
			}
			names := spec.EndToEnd
			if traced {
				names = spec.PerLayer
			}
			for _, m := range names {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
				}
			}
			if len(res.Metrics) != len(names) {
				t.Errorf("%s traced=%v: %d metrics reported, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(names))
			}
		}
	}
}
