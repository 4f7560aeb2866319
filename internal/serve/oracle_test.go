package serve

import (
	"math"
	"testing"

	"litegpu/internal/mathx"
	"litegpu/internal/trace"
	"litegpu/internal/units"
)

// TestStaticPrefillMatchesMD1 checks the static prefill path against
// queueing theory. One prefill engine passing one equal prompt at a
// time is an M/D/1 queue under Poisson arrivals: every pass takes the
// lone request's TTFT S, so the mean TTFT less S is the queue's mean
// wait, which Pollaczek–Khinchine gives as ρS/(2(1−ρ)). A one-token
// output leaves the decode engine nothing to hold up the TTFT stamp.
func TestStaticPrefillMatchesMD1(t *testing.T) {
	const (
		prompt = 1024
		n      = 50000
	)
	cfg := smallConfig()
	cfg.MaxPrefillBatch = 1
	lone, err := Run(cfg, oneRequest(prompt, 1), 10)
	if err != nil {
		t.Fatal(err)
	}
	s := lone.TTFT.Mean
	for _, rho := range []float64{0.2, 0.5} {
		for _, seed := range []uint64{1, 2} {
			rng := mathx.NewRNG(seed)
			reqs := make([]trace.Request, n)
			at := 0.0
			for i := range reqs {
				at += rng.Exponential(rho / s)
				reqs[i] = trace.Request{ID: i, Arrival: units.Seconds(at), PromptTokens: prompt, OutputTokens: 1}
			}
			m, err := Run(cfg, reqs, units.Seconds(at+100))
			if err != nil {
				t.Fatal(err)
			}
			if m.Completed != n {
				t.Fatalf("rho %v seed %d: %d of %d completed", rho, seed, m.Completed, n)
			}
			wait, want := m.TTFT.Mean-s, rho*s/(2*(1-rho))
			t.Logf("rho %v seed %d: S %.4g s, mean wait %.4g s, M/D/1 %.4g s, error %+.2f%%", rho, seed, s, wait, want, 100*(wait-want)/want)
			if math.Abs(wait-want) > 0.05*want {
				t.Errorf("rho %v seed %d: mean wait %.4g s, want the M/D/1 %.4g s within 5%%", rho, seed, wait, want)
			}
		}
	}
}
