// Command litegpu-sweep runs the concurrent serving sweep: it crosses
// GPU types × models × workloads × arrival rates, simulates a phase-split
// deployment for every cell over a worker pool, and prints the grid.
//
// Usage:
//
//	litegpu-sweep [flags]
//
// Examples:
//
//	litegpu-sweep                                  # full Table 1 × paper models grid
//	litegpu-sweep -gpus H100,Lite -models Llama3-8B -rates 0.5,2,8
//	litegpu-sweep -workers 1                       # sequential baseline (same output)
//	litegpu-sweep -afr 0.09 -failure-timescale 1e6 # add a failure-injection axis
//	litegpu-sweep -scheduler static,continuous,chunked  # add a scheduling-policy axis
//	litegpu-sweep -fabric off,clos:pluggable,flat-circuit:cpo:circuit  # add a fabric axis
//	litegpu-sweep -kv off,recompute+prefix,swap+prefix  # add a KV-memory axis
//	litegpu-sweep -admission none,adaptive -queue-limit 48 -client-timeout 15  # add an overload-gate axis
//
// With -scheduler listing several policies, every grid point is
// simulated once per policy on the identical trace and silicon, so the
// scheduler columns are directly comparable.
//
// With -admission listing several gates, every grid point is simulated
// once per gate on the identical trace, so the admission columns
// isolate what shedding buys (and costs) under overload; -client-timeout
// makes the grid's clients a closed loop (deadlines, retry backoff,
// abandonment), which is when the gates matter.
//
// With -afr, every grid point is simulated twice — clean and with GPU
// failure injection at the given reference AFR (optionally accelerated
// by -failure-timescale, with -spares hot spares per pool) — and the
// availability/failure columns show the contrast.
//
// With -cpuprofile/-memprofile, the run writes pprof profiles of the
// sweep (the heap profile is taken after the sweep, post-GC). Traces
// stream into each cell's simulation on demand, so memory stays
// bounded by the in-flight working set per worker regardless of
// -horizon × -rates; see docs/performance.md.
//
// With -trace-out/-probe-interval/-probe-out, the grid's first cell
// runs with an observer attached and exports its sampled request
// timelines (Chrome trace_event JSON, Perfetto-loadable) and windowed
// time-series probes; the instrumented cell's results stay
// byte-identical to the uninstrumented run. See docs/observability.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"text/tabwriter"

	"litegpu"
	"litegpu/cmd/internal/cli"
)

func main() {
	gpuList := flag.String("gpus", "", "comma-separated Table 1 GPU names (default: all six)")
	modelList := flag.String("models", "", "comma-separated model presets (default: the three paper models)")
	workloadList := flag.String("workloads", "coding,conversation", "workload shapes: coding | conversation | agent")
	rateList := flag.String("rates", "0.5,1.5", "comma-separated arrival rates (req/s)")
	schedList := flag.String("scheduler", "static", "comma-separated scheduling policies: static | continuous | chunked")
	fabricList := flag.String("fabric", "off", "comma-separated fabric axis: off and/or fabric[:link[:switch]] specs (clos | leaf-spine | flat-circuit), each simulated in the event loop per grid point")
	linkName := flag.String("link", "", "default link technology for -fabric specs that omit one: copper | pluggable | cpo")
	kvList := flag.String("kv", "off", "comma-separated KV-memory axis: off and/or policy[+prefix] specs (recompute | swap), each simulated per grid point")
	admList := flag.String("admission", "none", "comma-separated overload-gate axis: none | priority | adaptive, each simulated per grid point")
	queueLimit := flag.Int("queue-limit", 64, "admission outstanding-work threshold for the priority/adaptive gates")
	clientTimeout := flag.Float64("client-timeout", 0, "closed-loop client deadline in seconds for every cell (0 = open-loop clients)")
	clientRetries := flag.Int("client-retries", 1, "client retry budget when -client-timeout is set")
	stragglerCV := flag.Float64("straggler-cv", 0, "persistent per-instance slow-factor coefficient of variation for every cell (0 = uniform)")
	prefillInst := flag.Int("prefill-instances", 1, "prefill engines per deployment")
	decodeInst := flag.Int("decode-instances", 1, "decode engines per deployment")
	horizon := flag.Float64("horizon", 300, "arrival window in simulated seconds")
	drain := flag.Float64("drain", 120, "extra simulated seconds for in-flight requests to finish")
	seed := flag.Uint64("seed", 42, "base workload seed (each cell derives its own)")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	afr := flag.Float64("afr", 0, "add a failure-mode axis at this reference-package annualized failure rate (0 = clean grid only)")
	spares := flag.Int("spares", 1, "hot spares per pool in the failure mode")
	timescale := flag.Float64("failure-timescale", 1, "failure-clock acceleration in the failure mode")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (taken after the sweep) to this file")
	traceOut := flag.String("trace-out", "", "instrument the grid's first cell and export its sampled request timelines as Chrome trace_event JSON to this file")
	probeInterval := flag.Float64("probe-interval", 0, "time-series probe period in simulated seconds for the instrumented cell (required for -probe-out)")
	probeOut := flag.String("probe-out", "", "export the instrumented cell's time-series probes to this file (CSV, or JSON when the name ends in .json)")
	flag.Parse()

	check(cli.CheckNumeric(*horizon, *clientTimeout, *stragglerCV))

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		// fatalf exits via os.Exit, which skips defers — route the stop
		// through stopProfile so every exit path finalizes the profile
		// (an unterminated pprof file does not parse).
		stopProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
		defer stopProfile()
	}

	spec := litegpu.SweepSpec{
		PrefillInstances: *prefillInst,
		DecodeInstances:  *decodeInst,
		Horizon:          litegpu.Seconds(*horizon),
		Drain:            litegpu.Seconds(*drain),
		Seed:             *seed,
		Workers:          *workers,
	}
	// Every list flag is one axis; an empty list takes the spec's
	// default, and "auto" is not a sweep value.
	var err error
	spec.GPUs, err = cli.Axis("gpus", *gpuList, cli.Any, nil, cli.GPU)
	check(err)
	spec.Models, err = cli.Axis("models", *modelList, cli.Any, nil, cli.Model)
	check(err)
	spec.Workloads, err = cli.Axis("workloads", *workloadList, cli.Any, nil, cli.Workload)
	check(err)
	spec.Rates, err = cli.Axis("rates", *rateList, cli.Any, nil, cli.Rate)
	check(err)
	spec.Schedulers, err = cli.Axis("scheduler", *schedList, cli.Any, nil, litegpu.ParseSchedulerPolicy)
	check(err)
	spec.Fabrics, err = cli.Axis("fabric", *fabricList, cli.Any, nil,
		func(s string) (litegpu.ServeNetworkConfig, error) {
			return litegpu.ParseNetworkConfigWithLink(s, *linkName)
		})
	check(err)
	spec.KVPolicies, err = cli.Axis("kv", *kvList, cli.Any, nil, litegpu.ParseKVConfig)
	check(err)
	spec.Admissions, err = cli.Axis("admission", *admList, cli.Any, nil, cli.Admission(*queueLimit, 1, 0))
	check(err)
	// An axis gets its columns when it varies or leaves the default.
	withSchedulers := len(spec.Schedulers) > 1 || slices.ContainsFunc(spec.Schedulers,
		func(p litegpu.SchedulerPolicy) bool { return p != litegpu.StaticDisaggregated })
	fabricOn := slices.ContainsFunc(spec.Fabrics, litegpu.ServeNetworkConfig.Enabled)
	withFabrics := len(spec.Fabrics) > 1 || fabricOn
	withKV := len(spec.KVPolicies) > 1 || slices.ContainsFunc(spec.KVPolicies, litegpu.ServeKVConfig.Enabled)
	gated := slices.ContainsFunc(spec.Admissions,
		func(a litegpu.ServeAdmissionConfig) bool { return a.Policy != litegpu.AdmitAll })
	withAdmissions := len(spec.Admissions) > 1 || gated
	withClients := *clientTimeout > 0
	withFailures := *afr > 0

	// Knobs that only shape an axis or mode reject explicit settings
	// while it is off, rather than being silently ignored.
	check(cli.CheckRequires(flag.CommandLine, []cli.Require{
		{Need: "-afr", Met: withFailures, Flags: []string{"spares", "failure-timescale"}},
		{Need: "a -fabric other than off", Met: fabricOn, Flags: []string{"link"}},
		{Need: "an -admission gate other than none", Met: gated, Flags: []string{"queue-limit"}},
		{Need: "-client-timeout", Met: withClients, Flags: []string{"client-retries"}},
		{Need: "a positive -probe-interval", Met: *probeInterval > 0, Flags: []string{"probe-out"}},
	}))

	if withClients {
		spec.Client = litegpu.ServeClientConfig{
			Default: litegpu.ClientBehavior{
				Timeout: litegpu.Seconds(*clientTimeout),
				Retries: *clientRetries,
				Jitter:  0.5,
			},
			Seed: *seed,
		}
	}
	if *stragglerCV > 0 {
		spec.Straggler = litegpu.ServeStragglerConfig{
			Jitter: litegpu.StragglerJitter{CV: *stragglerCV, Tail: litegpu.StragglerLogNormal},
			Seed:   *seed,
		}
	}
	if withFailures {
		spec.FailureModes = []litegpu.SweepFailureMode{
			{Name: "none"},
			{Name: fmt.Sprintf("afr=%.2f×%.0g", *afr, *timescale), Failures: litegpu.ServeFailureConfig{
				Enabled:   true,
				Params:    litegpu.DefaultFailureParams(*afr),
				Spares:    *spares,
				TimeScale: *timescale,
			}},
		}
	}

	var recorder *litegpu.Observer
	if *traceOut != "" || *probeOut != "" {
		recorder = litegpu.NewObserver(litegpu.ObserverOptions{
			Seed:          *seed,
			ProbeInterval: *probeInterval,
		})
		spec.Observer = recorder
	}

	cells, err := litegpu.Sweep(context.Background(), spec)
	if err != nil {
		fatalf("sweep: %v", err)
	}

	if recorder != nil {
		check(cli.WriteObserver(recorder, *traceOut, *probeOut))
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	schedCol := "\tSched"
	if !withSchedulers {
		schedCol = ""
	}
	fabricCols := "\tFabric\tNet%"
	if !withFabrics {
		fabricCols = ""
	}
	kvCols := "\tKV\tPreempt/Hit%"
	if !withKV {
		kvCols = ""
	}
	admCols := "\tGate\tShed/Abandon"
	if !withAdmissions && !withClients {
		admCols = ""
	}
	failCols := "\tFailures\tAvail/Ev"
	if !withFailures {
		failCols = ""
	}
	fmt.Fprintln(tw, "GPU\tModel\tWorkload\treq/s"+schedCol+fabricCols+kvCols+admCols+"\tDeployment\tDone/Arrived\tDrop\tTTFT p99\tTBT p99\tTTFT att.\tTBT att."+failCols)
	for _, c := range cells {
		row := fmt.Sprintf("%s\t%s\t%s\t%.2f", c.GPU, c.Model, c.Workload, c.Rate)
		if withSchedulers {
			row += "\t" + c.Scheduler
		}
		if c.Err != "" {
			if withFabrics {
				row += fmt.Sprintf("\t%s\t", c.Fabric)
			}
			if withKV {
				row += fmt.Sprintf("\t%s\t", c.KV)
			}
			if withAdmissions || withClients {
				row += fmt.Sprintf("\t%s\t", c.Admission)
			}
			row += fmt.Sprintf("\tinfeasible: %s\t\t\t\t\t\t", c.Err)
			if withFailures {
				row += fmt.Sprintf("\t%s\t", c.Failure)
			}
			fmt.Fprintln(tw, row)
			continue
		}
		m := c.Metrics
		if withFabrics {
			row += fmt.Sprintf("\t%s\t%.1f%%", c.Fabric, m.NetworkBoundFraction*100)
		}
		if withKV {
			row += fmt.Sprintf("\t%s\t%d/%.0f%%", c.KV, m.KVPreemptions, m.KVCacheHitRate*100)
		}
		if withAdmissions || withClients {
			row += fmt.Sprintf("\t%s\t%d/%d", c.Admission, m.Shed, m.Abandoned)
		}
		row += fmt.Sprintf("\t%s\t%d/%d\t%d\t%.0f ms\t%.1f ms\t%.1f%%\t%.1f%%",
			deployment(c.Config),
			m.Completed, m.Arrived, m.Dropped,
			m.TTFT.P99*1e3, m.TBT.P99*1e3,
			m.TTFTAttainment*100, m.TBTAttainment*100)
		if withFailures {
			row += fmt.Sprintf("\t%s\t%.3f/%d", c.Failure, m.Availability, m.FailureEvents)
		}
		fmt.Fprintln(tw, row)
	}
	tw.Flush()

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatalf("memprofile: %v", err)
		}
		defer f.Close()
		runtime.GC() // materialize the post-sweep live set
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf("memprofile: %v", err)
		}
	}
}

// deployment renders a cell's instance shape: phase pools for the
// static policy, the colocated instance set otherwise.
func deployment(c litegpu.ServeConfig) string {
	if c.Scheduler.Colocated() {
		n, g := c.ColocatedShape()
		return fmt.Sprintf("%d×%dC", n, g)
	}
	return fmt.Sprintf("%d×%dP+%d×%dD",
		c.PrefillInstances, c.PrefillGPUs, c.DecodeInstances, c.DecodeGPUs)
}

// stopProfile finalizes an in-progress CPU profile; set once profiling
// starts. Calling it twice is harmless (StopCPUProfile is a no-op when
// no profile is active).
var stopProfile = func() {}

var fatalf, check = cli.Fatal("litegpu-sweep", func() { stopProfile() })
