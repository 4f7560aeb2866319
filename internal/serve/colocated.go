package serve

import (
	"fmt"

	"litegpu/internal/inference"
	"litegpu/internal/trace"
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
	perGPUs int
}

func newColocSched(cs *clusterSim, pool *poolSim) (*colocSched, error) {
	cfg := pool.cfg
	opts := cfg.Opts
	n, g := cfg.colocShape()
	if inference.MaxFeasibleBatch(cfg.GPU, cfg.Model, inference.Decode, g, opts) <= 0 {
		return nil, fmt.Errorf("serve: %s does not fit on %d×%s for decode (%s scheduler)",
			cfg.Model.Name, g, cfg.GPU.Name, cfg.Scheduler)
	}
	if inference.MaxFeasibleBatch(cfg.GPU, cfg.Model, inference.Prefill, g, opts) < 1 {
		return nil, fmt.Errorf("serve: %s does not fit on %d×%s for prefill (%s scheduler)",
			cfg.Model.Name, g, cfg.GPU.Name, cfg.Scheduler)
	}
	c := &colocSched{perGPUs: g}
	if cfg.Scheduler == ChunkedPrefill {
		c.chunk = cfg.PrefillChunk
		if c.chunk <= 0 {
			c.chunk = defaultPrefillChunk
		}
	}
	if err := c.init(cs, pool, c, n, g, 0); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *colocSched) numInstances() int           { return len(c.engines) }
func (c *colocSched) state(id int) *instanceState { return &c.engines[id].instanceState }
func (c *colocSched) gpus(int) int                { return c.perGPUs }
func (c *colocSched) totalGPUs() int              { return len(c.engines) * c.perGPUs }

// shape maps both metric phases onto the full instance set: a colocated
// pool's PrefillUtilization and DecodeUtilization are each the share of
// all-instance time spent in that phase (they sum to at most 1).
func (c *colocSched) shape() phaseShape {
	return phaseShape{
		prefillInstances: len(c.engines), prefillGPUs: c.perGPUs,
		decodeInstances: len(c.engines), decodeGPUs: c.perGPUs,
	}
}

//litegpu:hotpath
func (c *colocSched) enqueue(r trace.Request) {
	a := c.pool.newActive(r)
	a.promptLeft = r.PromptTokens
	c.q.PushBack(a)
}

// scalable exposes every colocated instance to the autoscaler.
func (c *colocSched) scalable() (lo, hi int) { return 0, len(c.engines) }

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

func (c *colocSched) recovered(int, float64) {
	// Nothing instance-local to restore: an idle engine (stepEnd 0)
	// picks up work at the dispatch pass that follows recovery.
}

// deliverKV and reclaimHandoff are unreachable: colocated instances run
// both phases, so no KV cache is ever handed off between them.
func (c *colocSched) deliverKV(*activeReq, float64) {
	panic("serve: KV handoff delivered to a colocated scheduler")
}

func (c *colocSched) reclaimHandoff(*xferRec, int32, int, float64) bool {
	panic("serve: KV handoff reclaimed by a colocated scheduler")
}
