package serve

import (
	"testing"

	"litegpu/internal/hw"
	"litegpu/internal/inference"
	"litegpu/internal/mathx"
)

// TestStepCostMatchesModel checks the memoized step-cost tables against
// the analytical model called directly. Descending prompt lengths meet
// the instance's memory limit from above, one 64-token bucket at a
// time, so a too-long bound set below the limit would misreport the
// longest pass that fits; random queries then revisit filled rows out
// of order, so a stale slot would misprice a pass.
func TestStepCostMatchesModel(t *testing.T) {
	cfg := smallConfig()
	cfg.GPU = hw.Lite()
	c := newStepCost(cfg, 1)
	feasible, infeasible := 0, 0
	check := func(b, tokens int) {
		t.Helper()
		got, ok := c.prefill(b, tokens)
		o := cfg.Opts
		o.PromptLen = (max(tokens/b, 1) + 63) / 64 * 64
		est, err := inference.Run(cfg.GPU, cfg.Model, inference.Prefill, 1, b, o)
		if ok != (err == nil) || ok && mathx.ExactNe(got, float64(est.Latency)) {
			t.Fatalf("prefill(%d, %d) = (%v, %v); model says (%v, %v)", b, tokens, got, ok, est.Latency, err)
		}
		if ok {
			feasible++
		} else {
			infeasible++
		}
	}
	for b := 1; b <= cfg.MaxPrefillBatch; b++ {
		for mean := 60_000; mean > 0; mean -= 64 {
			check(b, b*mean)
		}
	}
	rng := mathx.NewRNG(1)
	for i := 0; i < 2000; i++ {
		b := 1 + rng.Intn(cfg.MaxPrefillBatch)
		check(b, rng.Intn(b*60_000))
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("premise: %d feasible and %d infeasible passes, want both", feasible, infeasible)
	}

	whole := inference.MaxFeasibleBatch(cfg.GPU, cfg.Model, inference.Decode, 1, cfg.Opts)
	if got := c.decodeCap(4 * whole); got != whole {
		t.Fatalf("decodeCap(%d) = %d, want the whole-context cap %d", 4*whole, got, whole)
	}
	if _, err := inference.Run(cfg.GPU, cfg.Model, inference.Decode, 1, whole+1, cfg.Opts); err == nil {
		t.Fatalf("premise: decode batch %d above the cap fits", whole+1)
	}
	for b := whole; b >= 1; b-- {
		est, err := inference.Run(cfg.GPU, cfg.Model, inference.Decode, 1, b, cfg.Opts)
		if err != nil || mathx.ExactNe(c.decode(b), float64(est.Latency)) {
			t.Fatalf("decode(%d) = %v; model says (%v, %v)", b, c.decode(b), est.Latency, err)
		}
	}
}
