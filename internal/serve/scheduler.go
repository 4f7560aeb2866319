package serve

import (
	"fmt"

	"litegpu/internal/trace"
)

// SchedulerPolicy selects the serving discipline a pool runs — how its
// GPUs are organized into instances and how requests move through the
// prefill and decode phases. The policies differ most on Lite-GPU
// clusters, where per-GPU capacity is smaller and the software's ability
// to keep every die busy decides whether the hardware story holds up.
type SchedulerPolicy int

const (
	// StaticDisaggregated is the paper's Splitwise-style phase split:
	// dedicated prefill instances batch incoming prompts, dedicated
	// decode instances run continuous batching over active generations,
	// and requests cross a queue between the two pools. The zero value,
	// and byte-identical to the engine that predated the Scheduler
	// interface.
	StaticDisaggregated SchedulerPolicy = iota
	// ContinuousBatching colocates both phases on every instance
	// (vLLM/Orca style): finished generations free batch slots that are
	// refilled from the queue every iteration, and pending prompts are
	// prefilled in full passes that stall ongoing decodes — high goodput,
	// but long prompts produce time-between-token spikes.
	ContinuousBatching
	// ChunkedPrefill is ContinuousBatching with Sarathi-style chunking:
	// long prompts are split into PrefillChunk-token chunks, each fused
	// with one decode step of the running batch, so decode stalls are
	// bounded by the chunk size instead of the prompt length.
	ChunkedPrefill
)

// String returns the policy's CLI name.
func (s SchedulerPolicy) String() string {
	switch s {
	case ContinuousBatching:
		return "continuous"
	case ChunkedPrefill:
		return "chunked"
	default:
		return "static"
	}
}

// ParseSchedulerPolicy maps a CLI name (static | continuous | chunked)
// to its policy.
func ParseSchedulerPolicy(name string) (SchedulerPolicy, error) {
	switch name {
	case "static", "disaggregated":
		return StaticDisaggregated, nil
	case "continuous", "continuous-batching":
		return ContinuousBatching, nil
	case "chunked", "chunked-prefill":
		return ChunkedPrefill, nil
	}
	return 0, fmt.Errorf("serve: unknown scheduler %q (want static, continuous, or chunked)", name)
}

// SchedulerPolicies returns all three policies in definition order —
// the axis the sweep and the planner cross.
func SchedulerPolicies() []SchedulerPolicy {
	return []SchedulerPolicy{StaticDisaggregated, ContinuousBatching, ChunkedPrefill}
}

// Colocated reports whether the policy runs both phases on every
// instance (ContinuousBatching and ChunkedPrefill) rather than on
// dedicated phase pools.
func (s SchedulerPolicy) Colocated() bool {
	return s == ContinuousBatching || s == ChunkedPrefill
}

// phaseShape is how a scheduler's instances map onto the two metric
// phases: the utilization denominators and the per-instance GPU degrees
// used to weight busy-time across heterogeneous pools. For a colocated
// scheduler both phases span the same instances.
type phaseShape struct {
	prefillInstances, prefillGPUs int
	decodeInstances, decodeGPUs   int
}

// scheduler is one pool's serving discipline on the shared event
// engine. The cluster simulation owns arrivals, failure processes, the
// spare shelf, and metric assembly; the scheduler owns the instances,
// the queues, and the decision of what work runs when. Implementations
// must be deterministic: same inputs, byte-identical Metrics.
type scheduler interface {
	// numInstances returns the count of failable units; instance ids are
	// 0..numInstances()-1 in a stable order.
	numInstances() int
	// state returns instance id's failure-facing state.
	state(id int) *instanceState
	// gpus returns the GPU count behind instance id.
	gpus(id int) int
	// shape returns the phase mapping for utilization accounting.
	shape() phaseShape
	// totalGPUs returns the pool's accelerator count (excluding spares).
	totalGPUs() int
	// enqueue accepts a routed arrival.
	enqueue(r trace.Request)
	// deliverKV accepts a request whose KV-cache handoff just crossed
	// the fabric: it joins the decode path. Only schedulers that move
	// KV between phase pools (the static policy) ever receive one;
	// colocated schedulers panic, because a handoff to them is a
	// simulator bug.
	deliverKV(a *activeReq, now float64)
	// dispatch hands queued work to idle instances; called exactly once
	// per event timestamp, after all completions at that time.
	dispatch(now float64)
	// swapReturn accepts a preempted sequence whose KV just finished its
	// swap round-trip or recompute handoff: it rejoins the decode path
	// at the head of the queue, holding no blocks and stamping no TTFT
	// (its first token was already served before preemption). Only
	// reachable with Config.KV enabled.
	swapReturn(a *activeReq, now float64)
	// fail reclaims instance id's in-flight work when it dies:
	// un-counting the unfinished busy tail and requeueing (or, when drop
	// is set, abandoning) the work. Generic down-marking, completion-
	// event cancellation, and spare logistics happen in the cluster.
	fail(id int, now float64, drop bool)
	// recovered restores instance-local state after id comes back up.
	recovered(id int, now float64)
	// outstanding returns queued plus in-flight request count — the
	// router's load figure.
	outstanding() int
	// scalable returns the [lo, hi) instance-id range the autoscaler may
	// park and unpark: every instance for colocated policies, decode
	// engines only for the static split (prefill capacity stays fixed).
	scalable() (lo, hi int)
	// idle reports whether instance id holds no in-flight work — the
	// condition for parking it immediately instead of draining.
	idle(id int) bool
	// busy returns accumulated (prefill, decode) busy-seconds, summed in
	// stable instance order so metric assembly stays byte-deterministic.
	busy() (prefill, decode float64)
}
