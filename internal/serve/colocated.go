package serve

import (
	"fmt"

	"litegpu/internal/inference"
)

// defaultPrefillChunk is the Sarathi-style chunk size (prompt tokens)
// when Config.PrefillChunk is zero: large enough to keep chunk passes
// compute-efficient, small enough to bound the decode stall each chunk
// adds to a fused step.
const defaultPrefillChunk = 512

// colocSched implements the two colocated policies on the batch-engine
// core, every instance running both phases. With a zero chunk it is
// ContinuousBatching: every iteration either prefills a batch of
// pending prompts in full (stalling ongoing decodes for the pass) or
// decodes one token for every active generation; finished requests free
// slots that are refilled from the queue at the next iteration. With a
// chunk it is ChunkedPrefill: each iteration fuses one PrefillChunk-token
// slice of the head-of-line pending prompt with one decode step of the
// running batch, so the decode stall per token is bounded by the chunk
// size rather than the prompt length.
type colocSched struct {
	batchCore
}

func newColocSched(cs *clusterSim, pool *poolSim) (*colocSched, error) {
	cfg := pool.cfg
	opts := cfg.Opts
	n, g := cfg.ColocatedShape()
	if inference.MaxFeasibleBatch(cfg.GPU, cfg.Model, inference.Decode, g, opts) <= 0 {
		return nil, fmt.Errorf("serve: %s does not fit on %d×%s for decode (%s scheduler)",
			cfg.Model.Name, g, cfg.GPU.Name, cfg.Scheduler)
	}
	if inference.MaxFeasibleBatch(cfg.GPU, cfg.Model, inference.Prefill, g, opts) < 1 {
		return nil, fmt.Errorf("serve: %s does not fit on %d×%s for prefill (%s scheduler)",
			cfg.Model.Name, g, cfg.GPU.Name, cfg.Scheduler)
	}
	c := &colocSched{}
	if cfg.Scheduler == ChunkedPrefill {
		c.chunk = cfg.PrefillChunk
		if c.chunk <= 0 {
			c.chunk = defaultPrefillChunk
		}
	}
	if err := c.init(cs, pool, n, g); err != nil {
		return nil, err
	}
	return c, nil
}

//litegpu:hotpath
func (c *colocSched) enqueue(a *activeReq) {
	a.promptLeft = a.req.PromptTokens
	c.q.PushBack(a)
}

// rebuild requeues a recompute victim at the head of the queue with its
// whole context left to prefill, so re-admission routes it through the
// pending prefill path.
//
//litegpu:hotpath
func (c *colocSched) rebuild(a *activeReq) {
	a.promptLeft = kvTokens(a)
	c.q.PushFront(a)
}

// fail un-counts the aborted step's busy tail proportionally from both
// phases, then tears the engine down.
//
//litegpu:hotpath
func (c *colocSched) fail(id int, now float64, drop bool) {
	c.runTo(id, now)
	e := &c.engines[id]
	if total := e.stepPfx + e.stepDec; e.stepEnd > 0 && total > 0 {
		frac := (e.stepEnd - now) / total
		e.pBusy -= e.stepPfx * frac
		e.dBusy -= e.stepDec * frac
	}
	c.batchCore.fail(id, now, drop)
}

// reclaimHandoff is unreachable: colocated instances run both phases,
// so no KV cache is ever handed off between them.
func (c *colocSched) reclaimHandoff(*xferRec, int32, int, float64) bool {
	panic("serve: KV handoff reclaimed by a colocated scheduler")
}
