package serve

import "fmt"

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

// scheduler is one pool's serving discipline on the shared event
// engine: only what differs by policy. The pool owns the rest — the
// batch core every policy runs its instances on (poolSim.core), whose
// engines, laid out by Config and each carrying its own busy seconds,
// are the pool's instance table; the request ledger every exit passes
// through (dropOversized, failReq, retryOrAbandon), spares and metric
// assembly. Implementations must be deterministic: same inputs,
// byte-identical Metrics.
type scheduler interface {
	// enqueue accepts a submitted attempt.
	enqueue(a *activeReq)
	// dispatch hands queued work to idle instances and cuts a decode run
	// short when its engine could admit queued work, or when a rebuild
	// the pass queued waits for the next pass; called at most once
	// per event timestamp, after all completions at that time, and only
	// when something at that time asked for it.
	dispatch(now float64)
	// fail reclaims instance id's in-flight work when it dies:
	// un-counting the unfinished busy tail and requeueing (or, when drop
	// is set, abandoning) the work. Generic down-marking, completion-
	// event cancellation, and spare logistics happen in the cluster.
	fail(id int, now float64, drop bool)
	// outstanding returns queued plus in-flight request count — the
	// router's load figure.
	outstanding() int
	// prefilled takes a request whose prompt engine j has just finished
	// prefilling, in a whole-prompt pass or a chunked prompt's last
	// chunk, toward decode.
	prefilled(j int, a *activeReq, now float64)
	// rebuild queues a preempted sequence whose KV was discarded
	// (Recompute policy) for a prefill pass over its whole context.
	rebuild(a *activeReq)
	// reclaimHandoff settles an in-flight KV handoff into the batch core
	// that lost an endpoint when instance id died. It reports whether
	// the record stays live (retargeted and retransmitting); otherwise
	// the core frees it.
	reclaimHandoff(rec *xferRec, idx int32, id int, now float64) bool
}
