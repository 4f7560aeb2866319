package main

import (
	"math"
	"time"

	"litegpu"
	"litegpu/internal/inference"
	"litegpu/internal/kv"
	"litegpu/internal/mathx"
	"litegpu/internal/netsim"
	"litegpu/internal/obs"
	"litegpu/internal/sim"
)

// probes times each layer's public API in isolation, so a layer's cost
// per unit of work can be compared without the rest of the simulator
// around it.
func (r *runner) probes(budget float64) error {
	each := budget / 8
	seed := r.o.seed
	// scale shrinks every probe's trial a hundredfold for tests.
	scale := func(n int) int {
		if r.o.small {
			return max(n/100, 1)
		}
		return n
	}

	rng := mathx.NewRNG(seed)
	eng := sim.New(seed)
	nop := func(float64, uint64) {}
	for i := 0; i < 1024; i++ {
		eng.ScheduleCall(rng.Float64(), 0, nop, 0)
	}
	r.put("sim.ns_per_event", nsPerUnit(each, func() int {
		// Schedule one event and fire one, so the calendar stays 1024
		// deep.
		n := scale(100_000)
		for i := 0; i < n; i++ {
			eng.ScheduleCall(eng.Now()+rng.Float64(), 0, nop, 0)
			eng.Step()
		}
		return n
	}), "ns")

	stream, err := stream1MWorkload(seed).Stream(math.MaxFloat64)
	if err != nil {
		return err
	}
	r.put("trace.ns_per_request", nsPerUnit(each, func() int {
		n := scale(100_000)
		for i := 0; i < n; i++ {
			stream.Next()
		}
		return n
	}), "ns")

	xs := make([]float64, scale(1_000_000))
	for i := range xs {
		xs[i] = rng.LogNormal(0, 1)
	}
	r.put("mathx.summarize_ns_per_sample", nsPerUnit(each, func() int {
		mathx.Summarize(xs)
		return len(xs)
	}), "ns")

	alloc := kv.NewAllocator(4096, 16, true)
	r.put("kv.ns_per_seq", nsPerUnit(each, func() int {
		// Each sequence: admit with a shared prefix, grow across four
		// blocks, free. 4096 blocks hold the 32 sequences several times
		// over, so no admission fails.
		var ids [32]kv.SeqID
		n := 0
		for k := 0; k < scale(1000); k++ {
			for j := range ids {
				ids[j], _, _, _ = alloc.Alloc(512, uint64(j%4+1), 256)
			}
			for _, id := range ids {
				for g := 0; g < 4; g++ {
					alloc.Grow(id)
				}
			}
			for _, id := range ids {
				alloc.Free(id)
			}
			n += len(ids)
		}
		return n
	}), "ns")

	for _, d := range []struct {
		name    string
		circuit bool
	}{{"packet", false}, {"circuit", true}} {
		r.put("netsim.ns_per_transfer_"+d.name, nsPerUnit(each, func() int {
			return fabricWaves(d.circuit, scale(64))
		}), "ns")
	}

	rec := obs.New(obs.Options{Seed: seed})
	var id int64
	r.put("obs.ns_per_event", nsPerUnit(each, func() int {
		// A request's arrival, prefill and completion, as the serving
		// engine records them; the reservoir keeps a sample of ids.
		n := scale(30_000)
		for i := 0; i < n; i++ {
			t := float64(id)
			rec.Request(obs.Arrival, t, 0, -1, id, 512)
			rec.Request(obs.PrefillStart, t, 0, 0, id, 1)
			rec.Request(obs.Complete, t+1, 0, 0, id, 1)
			id++
		}
		return 3 * n
	}), "ns")

	lite := litegpu.Lite()
	m, err := model("Llama3-70B")
	if err != nil {
		return err
	}
	opts := litegpu.DefaultOptions()
	const batches = 64
	for b := 1; b <= batches; b++ {
		if _, err := inference.Run(lite, m, inference.Decode, 8, b, opts); err != nil {
			return err
		}
	}
	r.put("inference.ns_per_run", nsPerUnit(each, func() int {
		// One uncached decode step-time evaluation per batch size: the
		// cost of a step-timer miss. The loop above showed none fails.
		for b := 1; b <= batches; b++ {
			_, _ = inference.Run(lite, m, inference.Decode, 8, b, opts)
		}
		return batches
	}), "ns")
	return nil
}

// fabricWaves drives waves of 16 overlapping transfers through an
// 8-endpoint fabric and returns the transfers delivered.
func fabricWaves(circuit bool, waves int) int {
	eng := sim.New(1)
	ports := make([]float64, 8)
	for j := range ports {
		ports[j] = 100e9
	}
	f, err := netsim.New(eng, netsim.Params{Ports: ports, PathLatency: 1e-6, Circuit: circuit, ReconfigTime: 1e-5})
	if err != nil {
		panic(err) // the parameters are constants that validate
	}
	done := 0
	h := func(float64, uint64) { done++ }
	for w := 0; w < waves; w++ {
		for t := 0; t < 16; t++ {
			f.Start(t%8, (t+1+t%3)%8, float64(1e6+t*1000), 0, h, uint64(t))
		}
		eng.Run(math.Inf(1))
	}
	return done
}

// nsPerUnit runs trial for about budget seconds, at least three times,
// and returns the median host nanoseconds per unit of work; trial
// returns how many units it did.
func nsPerUnit(budget float64, trial func() int) float64 {
	var per []float64
	start := time.Now()
	for len(per) < 3 || time.Since(start).Seconds() < budget {
		t := time.Now()
		n := trial()
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(n))
	}
	return median(per)
}
