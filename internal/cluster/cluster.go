// Package cluster models GPU resource management: allocating whole GPU
// packages to jobs (physical isolation, as the paper's AI-as-a-service
// discussion requires), the internal fragmentation that allocation
// granularity causes, and a job-stream simulator that measures achieved
// utilization for big-GPU versus Lite-GPU clusters of equal aggregate
// capacity.
//
// It substantiates the paper's finer-granularity claim: when demand
// arrives in sizes that are not multiples of a big GPU, a cluster of
// quarter-size units strands less capacity.
package cluster

import (
	"fmt"
	"sort"

	"litegpu/internal/hw"
	"litegpu/internal/mathx"
	"litegpu/internal/units"
)

// Cluster is an inventory of identical GPU units allocated whole to jobs.
type Cluster struct {
	gpu    hw.GPU
	total  int
	free   int
	allocs map[string]allocation
}

type allocation struct {
	units  int
	demand float64 // SMs actually wanted
}

// New returns a cluster of n units of the given GPU type.
func New(gpu hw.GPU, n int) *Cluster {
	return &Cluster{gpu: gpu, total: n, free: n, allocs: make(map[string]allocation)}
}

// TotalSMs returns the cluster's aggregate SM count.
func (c *Cluster) TotalSMs() int { return c.total * c.gpu.SMs }

// Free returns the number of unallocated units.
func (c *Cluster) Free() int { return c.free }

// Allocate grants the smallest number of whole units covering demandSMs
// to the job. It reports the granted unit count and false when either the
// id is taken or insufficient units remain.
func (c *Cluster) Allocate(id string, demandSMs float64) (int, bool) {
	if demandSMs <= 0 {
		return 0, false
	}
	if _, exists := c.allocs[id]; exists {
		return 0, false
	}
	need := int((demandSMs + float64(c.gpu.SMs) - 1) / float64(c.gpu.SMs))
	if need == 0 {
		need = 1
	}
	if need > c.free {
		return 0, false
	}
	c.free -= need
	c.allocs[id] = allocation{units: need, demand: demandSMs}
	return need, true
}

// Release frees the job's units. It reports whether the id was held.
func (c *Cluster) Release(id string) bool {
	a, ok := c.allocs[id]
	if !ok {
		return false
	}
	c.free += a.units
	delete(c.allocs, id)
	return true
}

// Usage summarizes how the cluster's capacity is being spent.
type Usage struct {
	// Allocated is the fraction of SMs granted to jobs.
	Allocated float64
	// Useful is the fraction of SMs jobs actually demanded.
	Useful float64
	// Stranded is the fraction granted but not demanded (internal
	// fragmentation from whole-unit allocation).
	Stranded float64
}

// Usage returns the current capacity breakdown.
func (c *Cluster) Usage() Usage {
	total := float64(c.TotalSMs())
	if total == 0 {
		return Usage{}
	}
	// Sum in sorted key order so float accumulation is deterministic
	// regardless of map iteration order.
	ids := make([]string, 0, len(c.allocs))
	for id := range c.allocs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var granted, demanded float64
	for _, id := range ids {
		a := c.allocs[id]
		granted += float64(a.units * c.gpu.SMs)
		demanded += minF(a.demand, float64(a.units*c.gpu.SMs))
	}
	return Usage{
		Allocated: granted / total,
		Useful:    demanded / total,
		Stranded:  (granted - demanded) / total,
	}
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// FragmentationAt returns the stranded fraction of a single allocation of
// demandSMs on units of unitSMs: (ceil(d/u)·u − d)/(ceil(d/u)·u).
func FragmentationAt(demandSMs float64, unitSMs int) float64 {
	if demandSMs <= 0 || unitSMs <= 0 {
		return 0
	}
	u := float64(unitSMs)
	units := float64(int((demandSMs + u - 1) / u))
	if units == 0 {
		units = 1
	}
	granted := units * u
	return (granted - demandSMs) / granted
}

// Job is one entry in the job-stream simulation.
type Job struct {
	ID        string
	Arrival   units.Seconds
	Duration  units.Seconds
	DemandSMs float64
}

// StreamResult summarizes a job-stream simulation.
type StreamResult struct {
	Placed   int
	Rejected int
	// MeanUseful is the time-averaged useful utilization.
	MeanUseful float64
	// MeanStranded is the time-averaged stranded fraction.
	MeanStranded float64
}

// SimulateStream replays jobs (sorted by arrival) against the cluster
// with first-fit admission: a job that cannot be placed at arrival is
// rejected (no queueing — capacity studies want the loss signal).
// Utilization is averaged over the simulation horizon.
func SimulateStream(c *Cluster, jobs []Job, horizon units.Seconds) StreamResult {
	type event struct {
		t     float64
		isEnd bool
		job   Job
	}
	var events []event
	for _, j := range jobs {
		events = append(events, event{t: float64(j.Arrival), job: j})
	}
	sort.Slice(events, func(i, k int) bool { return events[i].t < events[k].t })

	var res StrandAccumulator
	var out StreamResult
	// Active departures as a simple sorted list (job counts are modest).
	type departure struct {
		t  float64
		id string
	}
	var deps []departure
	now := 0.0
	h := float64(horizon)
	pop := func(until float64) {
		for len(deps) > 0 {
			sort.Slice(deps, func(i, k int) bool { return deps[i].t < deps[k].t })
			if deps[0].t > until {
				return
			}
			u := c.Usage()
			res.Add(deps[0].t-now, u)
			now = deps[0].t
			c.Release(deps[0].id)
			deps = deps[1:]
		}
	}
	for _, ev := range events {
		if ev.t > h {
			break
		}
		pop(ev.t)
		u := c.Usage()
		res.Add(ev.t-now, u)
		now = ev.t
		if _, ok := c.Allocate(ev.job.ID, ev.job.DemandSMs); ok {
			out.Placed++
			deps = append(deps, departure{t: ev.t + float64(ev.job.Duration), id: ev.job.ID})
		} else {
			out.Rejected++
		}
	}
	pop(h)
	res.Add(h-now, c.Usage())
	out.MeanUseful = res.Useful()
	out.MeanStranded = res.Stranded()
	return out
}

// StrandAccumulator time-averages Usage samples.
type StrandAccumulator struct {
	t, useful, stranded float64
}

// Add accumulates a usage sample held for dt.
func (a *StrandAccumulator) Add(dt float64, u Usage) {
	if dt <= 0 {
		return
	}
	a.t += dt
	a.useful += dt * u.Useful
	a.stranded += dt * u.Stranded
}

// Useful returns the time-averaged useful fraction.
func (a *StrandAccumulator) Useful() float64 {
	if a.t == 0 {
		return 0
	}
	return a.useful / a.t
}

// Stranded returns the time-averaged stranded fraction.
func (a *StrandAccumulator) Stranded() float64 {
	if a.t == 0 {
		return 0
	}
	return a.stranded / a.t
}

// GranularityStudy compares equal-capacity big and Lite clusters on the
// same synthetic job mix and returns both results. Demands are drawn
// uniformly in [minFrac, maxFrac] of one big GPU, the regime where
// granularity matters (sub-GPU and non-integral multi-GPU jobs).
func GranularityStudy(big hw.GPU, bigUnits, split int, jobs int, minFrac, maxFrac float64, seed uint64) (bigRes, liteRes StreamResult) {
	lite := big.Scale(1 / float64(split))
	mk := func() []Job {
		rng := mathx.NewRNG(seed)
		var js []Job
		for i := 0; i < jobs; i++ {
			frac := minFrac + rng.Float64()*(maxFrac-minFrac)
			js = append(js, Job{
				ID:        fmt.Sprintf("job-%d", i),
				Arrival:   units.Seconds(rng.Exponential(1.0 / 30)), // staggered
				Duration:  units.Seconds(600 + rng.Float64()*3000),
				DemandSMs: frac * float64(big.SMs),
			})
		}
		// Arrival times accumulate.
		var t float64
		rng2 := mathx.NewRNG(seed + 1)
		for i := range js {
			t += rng2.Exponential(1.0 / 30)
			js[i].Arrival = units.Seconds(t)
		}
		return js
	}
	horizon := units.Seconds(float64(jobs)*30 + 4000)
	bigRes = SimulateStream(New(big, bigUnits), mk(), horizon)
	liteRes = SimulateStream(New(lite, bigUnits*split), mk(), horizon)
	return bigRes, liteRes
}
