// Benchmark harness: one benchmark per paper table/figure/claim, each
// regenerating the artifact end-to-end. Run with
//
//	go test -bench=. -benchmem
//
// The benchmarks print the artifact once (so `go test -bench` output is
// also the reproduction report) and then measure regeneration cost.
package litegpu

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"testing"

	"litegpu/internal/experiments"
	"litegpu/internal/hw"
	"litegpu/internal/inference"
	"litegpu/internal/kv"
	"litegpu/internal/mathx"
	"litegpu/internal/netsim"
	"litegpu/internal/sim"
)

// printOnce gates the one-time artifact printouts so repeated benchmark
// iterations do not flood the output.
var printOnce sync.Map

func once(name string, f func(w io.Writer)) {
	if _, done := printOnce.LoadOrStore(name, true); done {
		return
	}
	fmt.Fprintf(os.Stdout, "\n===== %s =====\n", name)
	f(os.Stdout)
}

// BenchmarkTable1 regenerates Table 1 (E-T1).
func BenchmarkTable1(b *testing.B) {
	once("Table 1", experiments.RenderTable1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := experiments.Table1(); len(rows) != 6 {
			b.Fatal("Table 1 must have 6 rows")
		}
	}
}

// BenchmarkFigure1 regenerates the GPU-evolution timeline (E-F1).
func BenchmarkFigure1(b *testing.B) {
	once("Figure 1", experiments.RenderFigure1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := experiments.Figure1(); len(rows) < 5 {
			b.Fatal("Figure 1 timeline too short")
		}
	}
}

// BenchmarkFigure2 regenerates the deployment-example derivation (E-F2).
func BenchmarkFigure2(b *testing.B) {
	once("Figure 2", experiments.RenderFigure2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure2()
		if r.ShorelineGain != 2 {
			b.Fatalf("shoreline gain = %v", r.ShorelineGain)
		}
	}
}

// BenchmarkFigure3a regenerates the prefill study (E-F3a).
func BenchmarkFigure3a(b *testing.B) {
	opts := inference.DefaultOptions()
	once("Figure 3a", func(w io.Writer) {
		rows, err := experiments.Figure3a(opts)
		if err != nil {
			b.Fatal(err)
		}
		experiments.RenderFigure3(w, "Figure 3a: prompt prefill (normalized tokens/s/SM)", rows)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3a(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3aSequentialBaseline runs the prefill study pinned to
// one worker — the baseline against which BenchmarkFigure3a (which fans
// the 12-bar grid over the sweep pool) shows its speedup. On a ≥4-core
// machine the parallel variant is expected to run ≥2× faster; the two
// produce byte-identical rows (see TestFigure3ParallelMatchesSequential).
func BenchmarkFigure3aSequentialBaseline(b *testing.B) {
	opts := inference.DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3Sequential(inference.Prefill, hw.PrefillConfigs(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3b regenerates the decode study (E-F3b).
func BenchmarkFigure3b(b *testing.B) {
	opts := inference.DefaultOptions()
	once("Figure 3b", func(w io.Writer) {
		rows, err := experiments.Figure3b(opts)
		if err != nil {
			b.Fatal(err)
		}
		experiments.RenderFigure3(w, "Figure 3b: decode (normalized tokens/s/SM)", rows)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3b(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3bKVReplicationAblation regenerates Figure 3b under
// Megatron-style KV-head replication instead of the paper's implicit
// ideal sharding — quantifying that model assumption.
func BenchmarkFigure3bKVReplicationAblation(b *testing.B) {
	opts := inference.DefaultOptions()
	opts.KVReplication = true
	once("Figure 3b (KV-replication ablation)", func(w io.Writer) {
		rows, err := experiments.Figure3b(opts)
		if err != nil {
			b.Fatal(err)
		}
		experiments.RenderFigure3(w, "Figure 3b under KV-head replication (ablation)", rows)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3b(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3bNoOverlapAblation regenerates Figure 3b with engines
// serialized — quantifying the paper's overlap assumption.
func BenchmarkFigure3bNoOverlapAblation(b *testing.B) {
	opts := inference.DefaultOptions()
	opts.NoOverlap = true
	once("Figure 3b (no-overlap ablation)", func(w io.Writer) {
		rows, err := experiments.Figure3b(opts)
		if err != nil {
			b.Fatal(err)
		}
		experiments.RenderFigure3(w, "Figure 3b without stage overlap (ablation)", rows)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3b(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkYieldClaim regenerates the Section 2 yield/cost claim (E-Y1).
func BenchmarkYieldClaim(b *testing.B) {
	once("Yield/cost claim", experiments.RenderYieldStudy)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.YieldStudy()
		quarter := rows[2]
		if quarter.YieldGain < 1.7 || quarter.YieldGain > 1.95 {
			b.Fatalf("quarter-die yield gain = %v", quarter.YieldGain)
		}
	}
}

// BenchmarkShorelineClaim regenerates the Section 2 shoreline claim (E-S1).
func BenchmarkShorelineClaim(b *testing.B) {
	once("Shoreline claim", experiments.RenderShorelineStudy)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.ShorelineStudy()
		if rows[2].Gain != 2 {
			b.Fatalf("4-way shoreline gain = %v", rows[2].Gain)
		}
	}
}

// BenchmarkNetworkEnergy regenerates the Section 3 fabric study (E-N1).
func BenchmarkNetworkEnergy(b *testing.B) {
	once("Network study", func(w io.Writer) { experiments.RenderNetworkStudy(w, 512) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if adv := experiments.CircuitAdvantage(512); adv < 0.5 {
			b.Fatalf("circuit advantage = %v", adv)
		}
	}
}

// BenchmarkPowerGranularity regenerates the Section 3 power study (E-P1).
func BenchmarkPowerGranularity(b *testing.B) {
	once("Power study", experiments.RenderPowerStudy)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.PowerStudy()
		if len(rows) == 0 || rows[0].Result.Saving <= 0 {
			b.Fatal("low-load saving missing")
		}
	}
}

// BenchmarkBlastRadius regenerates the Section 3 fault-tolerance study
// (E-FT1), Monte Carlo included.
func BenchmarkBlastRadius(b *testing.B) {
	once("Blast radius study", func(w io.Writer) { experiments.RenderBlastRadiusStudy(w, 42) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.BlastRadiusStudy(42)
		if len(rows) != 6 {
			b.Fatal("blast study row count")
		}
	}
}

// BenchmarkGranularity regenerates the Section 3 allocation study (E-R1).
func BenchmarkGranularity(b *testing.B) {
	once("Granularity study", func(w io.Writer) { experiments.RenderGranularity(w, 42) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Granularity(42)
		if r.Lite.MeanStranded >= r.Big.MeanStranded {
			b.Fatal("granularity inversion")
		}
	}
}

// BenchmarkServingSim regenerates the Section 4 discrete-event
// validation (E-SV1).
func BenchmarkServingSim(b *testing.B) {
	once("Serving simulation", func(w io.Writer) {
		if err := experiments.RenderServingStudy(w, 42); err != nil {
			b.Fatal(err)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ServingStudy(42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3bSequentialBaseline is the one-worker baseline for
// BenchmarkFigure3b.
func BenchmarkFigure3bSequentialBaseline(b *testing.B) {
	opts := inference.DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3Sequential(inference.Decode, hw.DecodeConfigs(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSweepSpec is the grid the sweep benchmarks run: 6 GPU types × 1
// model × 1 workload × 2 rates = 12 independent serving simulations.
func benchSweepSpec(workers int) SweepSpec {
	m, _ := ModelByName("Llama3-8B")
	return SweepSpec{
		Models:    []Transformer{m},
		Workloads: []SweepWorkload{{Name: "coding", Make: CodingWorkload}},
		Rates:     []float64{1, 4},
		Horizon:   120,
		Drain:     60,
		Seed:      42,
		Workers:   workers,
	}
}

// BenchmarkSweepGrid measures the public serving sweep fanned over the
// GOMAXPROCS worker pool.
func BenchmarkSweepGrid(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells, err := Sweep(context.Background(), benchSweepSpec(0))
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 12 {
			b.Fatalf("cells = %d", len(cells))
		}
	}
}

// BenchmarkSweepGridSequentialBaseline is the one-worker baseline for
// BenchmarkSweepGrid; on ≥4 cores the pooled variant should be ≥2×
// faster while returning byte-identical cells.
func BenchmarkSweepGridSequentialBaseline(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(context.Background(), benchSweepSpec(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServingGrid measures the experiments-layer deployment × rate
// grid over the worker pool, with its sequential baseline below.
func BenchmarkServingGrid(b *testing.B) {
	once("Serving grid", func(w io.Writer) {
		if err := experiments.RenderServingGrid(w, 42); err != nil {
			b.Fatal(err)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ServingGrid(42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServingGridSequentialBaseline is the one-worker baseline for
// BenchmarkServingGrid.
func BenchmarkServingGridSequentialBaseline(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ServingGridSequential(42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCapacity measures one full capacity-planning search
// (doubling + two bisections over the serving simulator).
func BenchmarkPlanCapacity(b *testing.B) {
	m, _ := ModelByName("Llama3-8B")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanCapacity(H100(), m, CodingWorkload(0, 7), 20, CapacitySLO{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchSingle measures one configuration search (the paper's
// inner loop).
func BenchmarkSearchSingle(b *testing.B) {
	opts := inference.DefaultOptions()
	g := H100()
	m := Models()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SearchBest(g, m, Decode, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateSingle measures one roofline evaluation (the unit of
// work inside the search).
func BenchmarkEstimateSingle(b *testing.B) {
	opts := inference.DefaultOptions()
	g := H100()
	m := Models()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateConfig(g, m, Decode, 8, 64, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCO regenerates the Section 4 performance-per-dollar study
// (E-C1).
func BenchmarkTCO(b *testing.B) {
	once("TCO study", experiments.RenderTCOStudy)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.TCOStudy()
		if r.PerfPerDollarGain <= 1 {
			b.Fatalf("perf/$ gain = %v", r.PerfPerDollarGain)
		}
	}
}

// BenchmarkStraggler regenerates the Section 3 synchronization study
// (E-SD1).
func BenchmarkStraggler(b *testing.B) {
	once("Straggler study", func(w io.Writer) { experiments.RenderStragglerStudy(w, 42) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.StragglerStudy(42)
		if len(rows) != 8 {
			b.Fatal("straggler row count")
		}
	}
}

// BenchmarkMemoryPool regenerates the Section 3 disaggregated-memory
// study (E-M1).
func BenchmarkMemoryPool(b *testing.B) {
	once("Memory pool study", experiments.RenderMemoryStudy)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.MemoryStudy()
		if len(rows) != 4 {
			b.Fatal("memory row count")
		}
	}
}

// BenchmarkTraining regenerates the training-scale extension study
// (E-TR1).
func BenchmarkTraining(b *testing.B) {
	once("Training study", func(w io.Writer) {
		if err := experiments.RenderTrainingStudy(w); err != nil {
			b.Fatal(err)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TrainingStudy()
		if err != nil || len(rows) != 4 {
			b.Fatalf("training study: %v (%d rows)", err, len(rows))
		}
	}
}

// stream1MWorkload is a ~10⁶-request workload (2000 req/s over a 500 s
// horizon, short prompts and outputs so a small deployment keeps up):
// the scale regime the streaming trace path exists for.
func stream1MWorkload() Workload {
	return Workload{
		Rate:         2000,
		PromptMedian: 32, PromptP99: 64,
		OutputMedian: 2, OutputP99: 4,
		MaxTokens: 128,
		Seed:      42,
	}
}

func stream1MConfig(tb testing.TB) ServeConfig {
	m, ok := ModelByName("Llama3-8B")
	if !ok {
		tb.Fatal("model catalog missing Llama3-8B")
	}
	return ServeConfig{
		GPU:              H100(),
		Model:            m,
		Opts:             DefaultOptions(),
		PrefillInstances: 1, PrefillGPUs: 1,
		DecodeInstances: 1, DecodeGPUs: 1,
		MaxPrefillBatch: 8, MaxDecodeBatch: 64,
	}
}

// BenchmarkTraceStream1M measures lazily iterating a ~10⁶-request
// trace: B/op is O(1) — the stream holds generator state only, never
// the trace.
func BenchmarkTraceStream1M(b *testing.B) {
	gen := stream1MWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := gen.Stream(500)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			if _, ok := s.Next(); !ok {
				break
			}
			n++
		}
		if n < 900_000 {
			b.Fatalf("stream yielded %d requests, want ~10⁶", n)
		}
	}
}

// BenchmarkTraceGenerate1M is the materialized counterpart of
// BenchmarkTraceStream1M: the identical request sequence built as a
// slice. The B/op gap between the two is the trace-memory reduction
// streaming buys (≥10×: tens of MB down to constant).
func BenchmarkTraceGenerate1M(b *testing.B) {
	gen := stream1MWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqs, err := gen.Generate(500)
		if err != nil {
			b.Fatal(err)
		}
		if len(reqs) < 900_000 {
			b.Fatalf("generated %d requests, want ~10⁶", len(reqs))
		}
	}
}

// BenchmarkServingSimStream1M runs the full serving simulator over a
// ~10⁶-request streaming trace (E-SV1 at production scale): arrivals
// are synthesized on demand, so the trace itself costs no memory —
// B/op is the in-flight working set plus the latency-sample buffers
// the exact percentile summaries require.
func BenchmarkServingSimStream1M(b *testing.B) {
	gen := stream1MWorkload()
	cfg := stream1MConfig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := gen.Stream(500)
		if err != nil {
			b.Fatal(err)
		}
		m, err := ServeFrom(cfg, s, 560)
		if err != nil {
			b.Fatal(err)
		}
		if m.Arrived < 900_000 || m.Completed < m.Arrived*9/10 {
			b.Fatalf("arrived %d completed %d: deployment fell behind", m.Arrived, m.Completed)
		}
	}
}

// BenchmarkServingSimMaterialized1M is BenchmarkServingSimStream1M
// with the trace materialized up front — the pre-streaming way to run
// the same simulation, kept as the memory baseline.
func BenchmarkServingSimMaterialized1M(b *testing.B) {
	gen := stream1MWorkload()
	cfg := stream1MConfig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqs, err := gen.Generate(500)
		if err != nil {
			b.Fatal(err)
		}
		m, err := Serve(cfg, reqs, 560)
		if err != nil {
			b.Fatal(err)
		}
		if m.Arrived < 900_000 {
			b.Fatalf("arrived %d", m.Arrived)
		}
	}
}

// BenchmarkNetsimFabric measures the raw fabric hot path: waves of
// overlapping transfers through an 8-endpoint fabric, every start and
// finish triggering the max-min reshare (packet) or the circuit drain.
// Steady state is allocation-free (the slab, id slices, and waterfill
// scratch all recycle), so allocs/op is setup only.
func BenchmarkNetsimFabric(b *testing.B) {
	for _, discipline := range []struct {
		name    string
		circuit bool
	}{{"packet", false}, {"circuit", true}} {
		b.Run(discipline.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := sim.New(1)
				ports := make([]float64, 8)
				for j := range ports {
					ports[j] = 100e9
				}
				f, err := netsim.New(eng, netsim.Params{
					Ports: ports, PathLatency: 1e-6,
					Circuit: discipline.circuit, ReconfigTime: 1e-5,
				})
				if err != nil {
					b.Fatal(err)
				}
				done := 0
				h := func(now float64, arg uint64) { done++ }
				for wave := 0; wave < 64; wave++ {
					for t := 0; t < 16; t++ {
						f.Start(t%8, (t+1+t%3)%8, float64(1e6+t*1000), 0, h, uint64(t))
					}
					eng.Run(math.Inf(1))
				}
				if done != 64*16 {
					b.Fatalf("delivered %d transfers", done)
				}
			}
		})
	}
}

// benchFabricConfig is a Lite-GPU phase-split deployment whose TP-8
// instances each fill a scale-up node, so every KV handoff crosses the
// simulated fabric — the network-in-the-loop counterpart of the
// ServingSim benchmark.
func benchFabricConfig(b *testing.B) ServeConfig {
	m, ok := ModelByName("Llama3-70B")
	if !ok {
		b.Fatal("model catalog missing Llama3-70B")
	}
	return ServeConfig{
		GPU:              Lite(),
		Model:            m,
		Opts:             DefaultOptions(),
		PrefillInstances: 2, PrefillGPUs: 8,
		DecodeInstances: 1, DecodeGPUs: 8,
		MaxPrefillBatch: 4, MaxDecodeBatch: 64,
	}
}

// BenchmarkServingSimFabric measures the serving simulator with the
// fabric in the loop: every prefill completion becomes a ~250 MB KV
// handoff over a pluggable-optics Clos. Compare against
// BenchmarkServingSimFabricOff for the event-loop cost of netsim.
func BenchmarkServingSimFabric(b *testing.B) {
	cfg := benchFabricConfig(b)
	cfg.Network = ServeNetworkConfig{Fabric: FabricClos, Link: LinkPluggable}
	reqs, err := CodingWorkload(1.2, 42).Generate(300)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Serve(cfg, reqs, 420)
		if err != nil {
			b.Fatal(err)
		}
		if m.NetTransfers == 0 {
			b.Fatal("fabric benchmark moved no bytes")
		}
	}
}

// BenchmarkServingSimFabricOff is the identical simulation with the
// infinite fabric — the baseline the netsim overhead is judged against.
func BenchmarkServingSimFabricOff(b *testing.B) {
	cfg := benchFabricConfig(b)
	reqs, err := CodingWorkload(1.2, 42).Generate(300)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Serve(cfg, reqs, 420); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCapacityFabricAxis measures the planner searching the
// default four-fabric axis (each candidate simulated with its fabric
// in the loop and priced at the winning scale).
func BenchmarkPlanCapacityFabricAxis(b *testing.B) {
	m, _ := ModelByName("Llama3-70B")
	req := CapacityRequest{
		GPU:      Lite(),
		Model:    m,
		Opts:     DefaultOptions(),
		Workload: CodingWorkload(4, 7),
		Horizon:  120,
		Drain:    60,
		Fabrics:  DefaultFabricCandidates(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanCapacityRequest(req, CapacitySLO{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCapacityAuto measures the policy-parallel capacity
// search: all three scheduling policies sized concurrently over the
// worker pool (with speculative doubling probes within each), cheapest
// plan kept.
func BenchmarkPlanCapacityAuto(b *testing.B) {
	m, _ := ModelByName("Llama3-8B")
	req := CapacityRequest{
		GPU:        H100(),
		Model:      m,
		Opts:       DefaultOptions(),
		Workload:   CodingWorkload(20, 7),
		Horizon:    120,
		Drain:      60,
		Schedulers: SchedulerPolicies(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanCapacityRequest(req, CapacitySLO{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCapacityAutoSequentialBaseline pins the same search to
// one worker — the baseline against which BenchmarkPlanCapacityAuto
// shows the planner's parallel speedup on multi-core machines (the two
// return byte-identical plans; see
// TestPlanCapacityWorkerCountInvariant).
func BenchmarkPlanCapacityAutoSequentialBaseline(b *testing.B) {
	m, _ := ModelByName("Llama3-8B")
	req := CapacityRequest{
		GPU:        H100(),
		Model:      m,
		Opts:       DefaultOptions(),
		Workload:   CodingWorkload(20, 7),
		Horizon:    120,
		Drain:      60,
		Schedulers: SchedulerPolicies(),
		Workers:    1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanCapacityRequest(req, CapacitySLO{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterFourPool measures a four-pool heterogeneous cluster,
// two H100 pools and two Lite-GPU pools behind one round-robin router,
// on RunCluster's single event engine, where each dispatch pass runs
// only the pools that requested it.
func BenchmarkClusterFourPool(b *testing.B) {
	m, ok := ModelByName("Llama3-8B")
	if !ok {
		b.Fatal("model catalog missing Llama3-8B")
	}
	small := ServeConfig{
		GPU:              H100(),
		Model:            m,
		Opts:             DefaultOptions(),
		PrefillInstances: 1, PrefillGPUs: 1,
		DecodeInstances: 1, DecodeGPUs: 1,
		MaxPrefillBatch: 4, MaxDecodeBatch: 64,
	}
	lite4 := small
	lite4.GPU = Lite()
	lite4.PrefillGPUs = 4
	lite4.DecodeGPUs = 4
	cc := ServeClusterConfig{Pools: []ServePool{
		{Config: small}, {Config: lite4}, {Config: small}, {Config: lite4},
	}}
	reqs, err := CodingWorkload(6, 17).Generate(300)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ServeCluster(cc, reqs, 500); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCapacityFailures measures the availability-aware planner
// at paper AFRs, where no failure fires inside the horizon: the winning
// sizing run's FailureEvents is 0, so its metrics are kept and the
// five-nines spare count costs no re-simulation.
func BenchmarkPlanCapacityFailures(b *testing.B) {
	m, ok := ModelByName("Llama3-8B")
	if !ok {
		b.Fatal("model catalog missing Llama3-8B")
	}
	req := CapacityRequest{
		GPU:      H100(),
		Model:    m,
		Opts:     DefaultOptions(),
		Workload: CodingWorkload(20, 7),
		Horizon:  120,
		Drain:    60,
		Failures: ServeFailureConfig{Enabled: true, Seed: 5},
	}
	slo := CapacitySLO{MinAvailability: 0.99999}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanCapacityRequest(req, slo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKVAllocator measures steady-state paged-allocator churn:
// admit with a shared prefix, grow across block boundaries, free —
// the per-sequence lifecycle every memory-enabled decode step drives.
// Allocs/op must stay 0: the allocator is sized once and recycled.
func BenchmarkKVAllocator(b *testing.B) {
	a := kv.NewAllocator(4096, 16, true)
	churn := func() {
		var ids [32]kv.SeqID
		for j := range ids {
			id, _, _, ok := a.Alloc(512, uint64(j%4+1), 256)
			if !ok {
				b.Fatal("admission failed with ample blocks")
			}
			ids[j] = id
		}
		for _, id := range ids {
			for g := 0; g < 4; g++ {
				if !a.Grow(id) {
					b.Fatal("grow failed with ample blocks")
				}
			}
		}
		for _, id := range ids {
			a.Free(id)
		}
	}
	churn() // warm the sequence table so b.N=1 already measures steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn()
	}
}

// BenchmarkKVAllocatorBuild measures an allocator's set-up cost at a
// real HBM-derived budget — 68,635 blocks, one H100 running Llama3-8B —
// with the prefix cache on, plus one short admit/grow/free lifecycle.
// A sweep builds one allocator per instance per cell, so B/op here is
// what per-cell set-up pays for KV bookkeeping; it should follow the
// blocks the lifecycle touches, not the budget.
func BenchmarkKVAllocatorBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := kv.NewAllocator(68635, 16, true)
		var ids [8]kv.SeqID
		for j := range ids {
			id, _, _, ok := a.Alloc(700, uint64(j%3+1), 512)
			if !ok {
				b.Fatal("admission failed with ample blocks")
			}
			ids[j] = id
		}
		for _, id := range ids {
			for g := 0; g < 32; g++ {
				if !a.Grow(id) {
					b.Fatal("grow failed with ample blocks")
				}
			}
			a.Free(id)
		}
	}
}

// benchPagedConfig is the memory-scarce deployment the paged serving
// benchmark runs: a single H100 prefill + decode pair on Llama3-8B with
// a 600-block budget — the regime where admission gating, prefix
// caching, and preemption all fire every run.
func benchPagedConfig(b *testing.B) ServeConfig {
	m, ok := ModelByName("Llama3-8B")
	if !ok {
		b.Fatal("model catalog missing Llama3-8B")
	}
	return ServeConfig{
		GPU:              H100(),
		Model:            m,
		Opts:             DefaultOptions(),
		PrefillInstances: 1, PrefillGPUs: 1,
		DecodeInstances: 1, DecodeGPUs: 1,
		MaxPrefillBatch: 4, MaxDecodeBatch: 64,
		KV: ServeKVConfig{Policy: KVRecompute, PrefixCache: true, Blocks: 600},
	}
}

// BenchmarkServingSimPaged measures the serving simulator with the KV
// memory model in the loop under genuine scarcity. Compare against
// BenchmarkServingSim for the event-loop cost of block accounting.
func BenchmarkServingSimPaged(b *testing.B) {
	cfg := benchPagedConfig(b)
	reqs, err := ConversationWorkload(8, 3).Generate(120)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Serve(cfg, reqs, 240)
		if err != nil {
			b.Fatal(err)
		}
		if m.KVPreemptions == 0 {
			b.Fatal("paged benchmark never preempted")
		}
	}
}

// BenchmarkServingSimClosedLoop measures the serving simulator with the
// full overload loop live: two tenant classes under a flash crowd,
// closed-loop clients timing out and retrying with seeded backoff, the
// adaptive admission gate shedding, and KV scarcity preempting. Compare
// against BenchmarkServingSimPaged for the event-loop cost of the
// client/admission machinery.
func BenchmarkServingSimClosedLoop(b *testing.B) {
	cfg := benchPagedConfig(b)
	cfg.KV.PrefixCache = false
	cfg.Client = ServeClientConfig{
		Default: ClientBehavior{Timeout: 10, Retries: 2, BackoffBase: 1, Jitter: 0.5},
		Seed:    11,
	}
	cfg.Admission = ServeAdmissionConfig{Policy: AdmitAdaptive, QueueLimit: 32, Levels: 2}
	workload := MultiWorkload{
		Classes: []TenantClass{
			{Name: "paid", Gen: ConversationWorkload(6, 0), Priority: 1},
			{Name: "free", Gen: ConversationWorkload(18, 0), Priority: 0},
		},
		Envelope: WorkloadEnvelope{Flash: []FlashCrowd{{At: 30, Duration: 60, Factor: 2}}},
		Seed:     5,
	}
	reqs, err := workload.Generate(120)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Serve(cfg, reqs, 240)
		if err != nil {
			b.Fatal(err)
		}
		if m.Shed == 0 || m.ClientRetries == 0 {
			b.Fatal("closed-loop benchmark never shed or retried")
		}
	}
}

// BenchmarkServingSimObserved runs the identical closed-loop scenario
// with a live observer: timeline sampling on every request event plus
// 5-second probe ticks. Compare against BenchmarkServingSimClosedLoop
// for the event-loop cost of telemetry capture — the observer-off cost
// is pinned at zero by TestObserverDisabledAllocationFree, so only the
// observed run pays.
func BenchmarkServingSimObserved(b *testing.B) {
	cfg := benchPagedConfig(b)
	cfg.KV.PrefixCache = false
	cfg.Client = ServeClientConfig{
		Default: ClientBehavior{Timeout: 10, Retries: 2, BackoffBase: 1, Jitter: 0.5},
		Seed:    11,
	}
	cfg.Admission = ServeAdmissionConfig{Policy: AdmitAdaptive, QueueLimit: 32, Levels: 2}
	workload := MultiWorkload{
		Classes: []TenantClass{
			{Name: "paid", Gen: ConversationWorkload(6, 0), Priority: 1},
			{Name: "free", Gen: ConversationWorkload(18, 0), Priority: 0},
		},
		Envelope: WorkloadEnvelope{Flash: []FlashCrowd{{At: 30, Duration: 60, Factor: 2}}},
		Seed:     5,
	}
	reqs, err := workload.Generate(120)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := NewObserver(ObserverOptions{Seed: 42, ProbeInterval: 5})
		cc := ServeClusterConfig{Pools: []ServePool{{Config: cfg}}, Observer: rec}
		if _, err := ServeCluster(cc, reqs, 240); err != nil {
			b.Fatal(err)
		}
		if held, seen := rec.Sampled(); held == 0 || seen == 0 {
			b.Fatal("observed benchmark sampled nothing")
		}
		if len(rec.Probes()) == 0 {
			b.Fatal("observed benchmark probed nothing")
		}
	}
}

// BenchmarkSummarize1M measures one end-of-run latency summary over
// 10⁶ lognormal samples — the size a 10⁶-request streamed run hands
// mathx.Summarize three times (TTFT, TBT, E2E).
func BenchmarkSummarize1M(b *testing.B) {
	r := mathx.NewRNG(1)
	xs := make([]float64, 1_000_000)
	for i := range xs {
		xs[i] = r.LogNormal(0, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := mathx.Summarize(xs); s.N != len(xs) {
			b.Fatalf("Summarize counted %d samples, want %d", s.N, len(xs))
		}
	}
}
