package serve

import (
	"fmt"

	"litegpu/internal/hw"
	"litegpu/internal/inference"
	"litegpu/internal/model"
)

// stepCost prices an instance's prefill passes and decode steps at one
// tensor-parallel degree from the analytical stage model
// (internal/inference). Prices are pure functions of their inputs, so
// they are memoized in slice-indexed tables on first use. A pass that
// cannot fit the instance's memory is reported as infeasible, not
// priced. This is the one seam between the schedulers and step timing:
// a batch-composition-aware roofline would replace the prices here.
type stepCost struct {
	gpu  hw.GPU
	mdl  model.Transformer
	opts inference.Options
	gpus int

	// dec[b] is the decode step's seconds at batch b (0 = not priced
	// yet); decodeCap sizes it to the largest batch that fits.
	dec []float64
	// pass[b-1] memoizes prefill passes of b prompts.
	pass []passRow
}

// passRow memoizes prefill passes of one batch size by mean prompt
// length, in 64-token buckets.
type passRow struct {
	dt []float64 // [bucket] seconds; 0 = not priced yet
	// tooLong is the smallest bucket found not to fit (0 = none yet).
	// Memory grows with prompt length, so every longer pass fails too
	// and needs no table slot.
	tooLong int
}

// newStepCost returns an empty table for cfg's model on gpus-GPU
// instances; prefill passes batch at most cfg.MaxPrefillBatch prompts.
func newStepCost(cfg Config, gpus int) stepCost {
	return stepCost{
		gpu: cfg.GPU, mdl: cfg.Model, opts: cfg.Opts, gpus: gpus,
		pass: make([]passRow, cfg.MaxPrefillBatch),
	}
}

// prefill prices one pass of b prompts totalling tokens prompt tokens,
// timed at their mean length rounded up to a 64-token bucket (stage
// costs are near-linear in total tokens). It reports false when the
// pass does not fit the instance's memory.
func (c *stepCost) prefill(b, tokens int) (float64, bool) {
	k := (max(tokens/b, 1) + 63) / 64
	row := &c.pass[b-1]
	if row.tooLong > 0 && k >= row.tooLong {
		return 0, false
	}
	if k < len(row.dt) && row.dt[k] > 0 {
		return row.dt[k], true
	}
	o := c.opts
	o.PromptLen = k * 64
	est, err := inference.Run(c.gpu, c.mdl, inference.Prefill, c.gpus, b, o)
	if err != nil {
		row.tooLong = k
		return 0, false
	}
	if k >= len(row.dt) {
		row.dt = append(row.dt, make([]float64, k+1-len(row.dt))...)
	}
	row.dt[k] = float64(est.Latency)
	return row.dt[k], true
}

// decodeCap returns the largest decode batch, at most want, that the
// table can price — the whole-context MaxFeasibleBatch, every sequence
// attending Opts.DecodeContext tokens — and sizes the decode table for
// it. Zero means not even one sequence fits.
func (c *stepCost) decodeCap(want int) int {
	b := min(want, inference.MaxFeasibleBatch(c.gpu, c.mdl, inference.Decode, c.gpus, c.opts))
	for ; b > 0; b-- {
		if est, err := inference.Run(c.gpu, c.mdl, inference.Decode, c.gpus, b, c.opts); err == nil {
			c.dec = make([]float64, b+1)
			c.dec[b] = float64(est.Latency)
			break
		}
	}
	return b
}

// decode prices one decode step of batch b, 1 ≤ b ≤ decodeCap. Memory
// grows with the batch and the cap fits, so every such step does too.
func (c *stepCost) decode(b int) float64 {
	if dt := c.dec[b]; dt > 0 {
		return dt
	}
	est, err := inference.Run(c.gpu, c.mdl, inference.Decode, c.gpus, b, c.opts)
	if err != nil {
		panic(fmt.Sprintf("serve: decode batch %d is under the priced cap but does not fit: %v", b, err))
	}
	c.dec[b] = float64(est.Latency)
	return c.dec[b]
}
