package serve

import (
	"testing"

	"litegpu/internal/kv"
	"litegpu/internal/trace"
	"litegpu/internal/units"
)

// allocsForTrace measures the allocations of one full simulation of the
// given pre-generated trace.
func allocsForTrace(t *testing.T, cfg Config, reqs []trace.Request, horizon units.Seconds) float64 {
	t.Helper()
	return testing.AllocsPerRun(3, func() {
		if _, err := Run(cfg, reqs, horizon); err != nil {
			t.Fatal(err)
		}
	})
}

// TestServeAllocationsDoNotScaleWithRequests pins the hot path's
// per-request bookkeeping at zero steady-state allocations: a
// simulation's allocation count is dominated by setup (timer caches,
// sample buffers, arena warm-up) and must stay essentially flat as the
// trace grows — before the allocation-free rework, every request cost
// hundreds of allocations (event nodes, closures, per-step slices), so
// a 4× trace meant roughly 4× the allocations.
func TestServeAllocationsDoNotScaleWithRequests(t *testing.T) {
	// Besides the open-memory run, paged KV under scarce blocks drives
	// the batch-engine core through growth, LIFO preemption, and both
	// recovery policies on every step.
	inputs := []struct {
		name string
		kv   kv.Config
		gen  trace.Generator
	}{
		{"no-kv", kv.Config{}, trace.CodingWorkload(1.0, 7)},
		{"kv-recompute", kv.Config{Policy: kv.Recompute, Blocks: 600}, trace.ConversationWorkload(4, 7)},
		{"kv-swap", kv.Config{Policy: kv.Swap, Blocks: 600}, trace.ConversationWorkload(4, 7)},
	}
	for _, pol := range SchedulerPolicies() {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			for _, in := range inputs {
				cfg := smallConfig()
				cfg.Scheduler = pol
				cfg.KV = in.kv
				short, err := in.gen.Generate(100)
				if err != nil {
					t.Fatal(err)
				}
				long, err := in.gen.Generate(400)
				if err != nil {
					t.Fatal(err)
				}
				if len(long) < 3*len(short) {
					t.Fatalf("%s: premise: long trace (%d) not ≥3× short trace (%d)", in.name, len(long), len(short))
				}
				aShort := allocsForTrace(t, cfg, short, 200)
				aLong := allocsForTrace(t, cfg, long, 500)
				extraReqs := len(long) - len(short)
				// The long run simulates hundreds of extra requests (and tens
				// of thousands of extra tokens, i.e. thousands of extra decode
				// steps). Allow a fixed budget for config-bounded growth —
				// step-cost table entries at batch sizes and prompt lengths
				// the short run never reached, deeper queues, arena chunks —
				// but nothing anywhere near per-request or per-step scale:
				// before the allocation-free rework this difference was
				// ~300 allocations per request.
				extra := aLong - aShort
				if extra > 160 || extra > 0.5*float64(extraReqs) {
					t.Errorf("%s/%s: simulating %d extra requests cost %.0f extra allocations (short %.0f, long %.0f); steady state must not allocate per request",
						pol, in.name, extraReqs, extra, aShort, aLong)
				}
			}
		})
	}
}
