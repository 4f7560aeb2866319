package litegpu

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

func TestCatalog(t *testing.T) {
	if H100().Name != "H100" || Lite().Name != "Lite" {
		t.Error("catalog names wrong")
	}
	if len(Table1()) != 6 {
		t.Errorf("Table1 rows = %d, want 6", len(Table1()))
	}
	if len(Models()) != 3 {
		t.Errorf("Models = %d, want 3", len(Models()))
	}
	if _, ok := GPUByName("Lite+NetBW"); !ok {
		t.Error("GPUByName failed")
	}
	if _, ok := ModelByName("Llama3-8B"); !ok {
		t.Error("ModelByName failed")
	}
}

func TestDesignCluster(t *testing.T) {
	d := DesignCluster(H100(), 4)
	if d.Split != 4 {
		t.Errorf("split = %d", d.Split)
	}
	if d.ShorelineGain != 2 {
		t.Errorf("shoreline gain = %v, want 2", d.ShorelineGain)
	}
	if d.YieldGain < 1.7 || d.YieldGain > 1.95 {
		t.Errorf("yield gain = %v, want ≈1.8", d.YieldGain)
	}
	if d.SiliconCostSaving < 0.4 {
		t.Errorf("silicon saving = %v, want ≥0.4", d.SiliconCostSaving)
	}
	if d.Cooling.String() != "air" {
		t.Errorf("Lite cooling = %v, want air", d.Cooling)
	}
	if d.OverclockHeadroom < 1.1 {
		t.Errorf("overclock headroom = %v, want ≥1.1", d.OverclockHeadroom)
	}
	if d.AvailabilityGain <= 0 {
		t.Errorf("availability gain = %v, want > 0", d.AvailabilityGain)
	}
	if d.CircuitEnergyAdvantage < 0.5 {
		t.Errorf("circuit advantage = %v, want ≥0.5", d.CircuitEnergyAdvantage)
	}
}

func TestDesignClusterPanicsOnBadSplit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("DesignCluster(1) did not panic")
		}
	}()
	DesignCluster(H100(), 1)
}

func TestEstimateAndSearch(t *testing.T) {
	opts := DefaultOptions()
	est, err := EstimateConfig(H100(), Models()[0], Prefill, 2, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if est.Latency <= 0 {
		t.Error("zero latency estimate")
	}
	best, err := SearchBest(Lite(), Models()[0], Decode, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !best.MeetsSLO {
		t.Error("search returned SLO violation")
	}
}

func TestStudies(t *testing.T) {
	opts := DefaultOptions()
	fa, err := PrefillStudy(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fa) != 12 { // 3 models × 4 configs
		t.Errorf("prefill study rows = %d, want 12", len(fa))
	}
	fb, err := DecodeStudy(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fb) != 12 {
		t.Errorf("decode study rows = %d, want 12", len(fb))
	}
	// Every H100 bar normalizes to exactly 1.
	for i := 0; i < 12; i += 4 {
		if fa[i].Normalized != 1 || fb[i].Normalized != 1 {
			t.Error("H100 normalization broken")
		}
	}
}

func TestServeViaFacade(t *testing.T) {
	cfg := ServeConfig{
		GPU:              H100(),
		Model:            mustModel(t, "Llama3-8B"),
		Opts:             DefaultOptions(),
		PrefillInstances: 1, PrefillGPUs: 1,
		DecodeInstances: 1, DecodeGPUs: 1,
		MaxPrefillBatch: 2, MaxDecodeBatch: 16,
	}
	gen := CodingWorkload(0.5, 3)
	reqs, err := gen.Generate(60)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Serve(cfg, reqs, 120)
	if err != nil {
		t.Fatal(err)
	}
	if m.Arrived == 0 {
		t.Error("no arrivals in façade serve run")
	}
}

// TestStreamedServeAllocationPerRequest pins what a streamed run
// allocates per arrival: about 10⁵ requests of the stream_1m workload
// through ServeFrom. Three latency samples per request live in chunks
// that are never re-copied (24 B) and are summarized in one shared
// array (8 B), so 48 B per request leaves room for the run's fixed
// set-up but not for a sample buffer that is re-copied as it grows.
// Bytes allocated do not depend on the host, unlike time per op.
func TestStreamedServeAllocationPerRequest(t *testing.T) {
	cfg := stream1MConfig(t)
	s, err := stream1MWorkload().Stream(50)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := ServeFrom(cfg, s, 50)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if m.Arrived < 90_000 {
		t.Fatalf("arrived %d, want about 10⁵", m.Arrived)
	}
	perReq := float64(after.TotalAlloc-before.TotalAlloc) / float64(m.Arrived)
	if perReq > 48 {
		t.Errorf("streamed run allocated %.1f B per arrived request, want ≤ 48", perReq)
	}
	t.Logf("%.1f B per arrived request over %d arrivals", perReq, m.Arrived)
}

func TestWorkloads(t *testing.T) {
	for _, g := range []Workload{CodingWorkload(1, 1), ConversationWorkload(1, 1)} {
		reqs, err := g.Generate(30)
		if err != nil {
			t.Fatal(err)
		}
		if len(reqs) == 0 {
			t.Error("no requests generated")
		}
	}
}

func TestWriteReport(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteReport(&buf, 42); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table 1", "Figure 1", "Figure 2", "Figure 3a", "Figure 3b",
		"yield", "shoreline", "fabric", "power", "blast radius",
		"granularity", "serving",
	} {
		if !strings.Contains(strings.ToLower(out), strings.ToLower(want)) {
			t.Errorf("report missing %q section", want)
		}
	}
	// Reports are deterministic.
	var buf2 bytes.Buffer
	if err := WriteReport(&buf2, 42); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("report is not deterministic at fixed seed")
	}
}

func mustModel(t *testing.T, name string) Transformer {
	t.Helper()
	m, ok := ModelByName(name)
	if !ok {
		t.Fatalf("model %s missing", name)
	}
	return m
}
