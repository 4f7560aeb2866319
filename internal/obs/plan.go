package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// PlanRung is one step of the capacity planner's doubling ladder for
// one candidate: the pool sizes tried and the SLO verdicts that sizing
// produced.
type PlanRung struct {
	Prefill int  `json:"prefill"`
	Decode  int  `json:"decode"`
	Refine  bool `json:"refine,omitempty"` // binary-refinement probe, not a doubling step

	TTFTAttainment float64 `json:"ttft_attainment"`
	TBTAttainment  float64 `json:"tbt_attainment"`
	Completed      int     `json:"completed"`
	Arrived        int     `json:"arrived"`
	Feasible       bool    `json:"feasible"`
	// SettledAt is the simulated time, in seconds, at which the sizing
	// run stopped because it could no longer meet the SLO; zero when it
	// ran to its horizon. A settled rung is never feasible, and its
	// attainments and counts are as of SettledAt.
	SettledAt float64 `json:"settled_at,omitempty"`
}

// PlanCandidate is the planner's full decision record for one
// (scheduler, fabric, kv, admission) combination: every rung it
// evaluated, the sizing it settled on, and why it won or lost.
type PlanCandidate struct {
	Scheduler string `json:"scheduler"`
	Fabric    string `json:"fabric,omitempty"`
	KV        string `json:"kv,omitempty"`
	Admission string `json:"admission,omitempty"`

	Rungs []PlanRung `json:"rungs,omitempty"`

	Feasible         bool    `json:"feasible"`
	Reason           string  `json:"reason"` // why rejected, or why it won
	PrefillInstances int     `json:"prefill_instances"`
	DecodeInstances  int     `json:"decode_instances"`
	Spares           int     `json:"spares,omitempty"`
	TotalGPUs        int     `json:"total_gpus"`
	Availability     float64 `json:"availability,omitempty"`
	CostPerMTok      float64 `json:"cost_per_mtok,omitempty"`
	Winner           bool    `json:"winner,omitempty"`
}

// PlanTrace collects the decision records for one PlanCapacity call,
// in candidate enumeration order (which sweep.RunN preserves, so the
// trace is deterministic).
type PlanTrace struct {
	Candidates []PlanCandidate `json:"candidates"`
}

// WriteJSON renders the trace as indented JSON. Struct-driven
// encoding/json is deterministic (fixed field order, no maps).
func (pt *PlanTrace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(pt)
}

// Render writes the human-readable decision trace that
// `litegpu-serve -plan -explain` prints: one block per candidate, its
// ladder of sizings with per-rung SLO verdicts, and the verdict line.
func (pt *PlanTrace) Render(w io.Writer) error {
	for i := range pt.Candidates {
		c := &pt.Candidates[i]
		mark := "✗"
		if c.Winner {
			mark = "★"
		} else if c.Feasible {
			mark = "✓"
		}
		if _, err := fmt.Fprintf(w, "%s candidate %s%s\n", mark, c.Scheduler, candidateQualifiers(c)); err != nil {
			return err
		}
		for j := range c.Rungs {
			r := &c.Rungs[j]
			verdict := "miss"
			if r.Feasible {
				verdict = "meets SLO"
			} else if r.SettledAt > 0 {
				verdict = fmt.Sprintf("settled at %.1f s — miss", r.SettledAt)
			}
			step := "try"
			if r.Refine {
				step = "refine"
			}
			if _, err := fmt.Fprintf(w,
				"    %s %dP+%dD: ttft %.3f tbt %.3f (%d/%d done) — %s\n",
				step, r.Prefill, r.Decode, r.TTFTAttainment, r.TBTAttainment,
				r.Completed, r.Arrived, verdict); err != nil {
				return err
			}
		}
		if c.Feasible {
			// Colocated schedulers size a single instance dimension,
			// reported with DecodeInstances zero.
			shape := fmt.Sprintf("%dP+%dD", c.PrefillInstances, c.DecodeInstances)
			if c.DecodeInstances == 0 {
				shape = fmt.Sprintf("%d colocated", c.PrefillInstances)
			}
			if _, err := fmt.Fprintf(w, "    → %s", shape); err != nil {
				return err
			}
			if c.Spares > 0 {
				if _, err := fmt.Fprintf(w, "+%d spare", c.Spares); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, " = %d GPUs", c.TotalGPUs); err != nil {
				return err
			}
			if c.Availability > 0 {
				if _, err := fmt.Fprintf(w, ", availability %.4f", c.Availability); err != nil {
					return err
				}
			}
			if c.CostPerMTok > 0 {
				if _, err := fmt.Fprintf(w, ", $%.2f/Mtok", c.CostPerMTok); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "    %s\n", c.Reason); err != nil {
			return err
		}
	}
	return nil
}

func candidateQualifiers(c *PlanCandidate) string {
	s := ""
	if c.Fabric != "" {
		s += " fabric=" + c.Fabric
	}
	if c.KV != "" {
		s += " kv=" + c.KV
	}
	if c.Admission != "" {
		s += " admission=" + c.Admission
	}
	return s
}
