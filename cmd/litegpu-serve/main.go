// Command litegpu-serve runs the discrete-event LLM serving simulator
// on a synthetic workload, under one of three scheduling policies:
// static Splitwise-style phase splitting (the default), continuous
// batching, or chunked prefill.
//
// Usage:
//
//	litegpu-serve [flags]
//
// Example: compare an H100 deployment with its Lite-GPU replacement:
//
//	litegpu-serve -gpu H100 -model Llama3-70B -prefill-gpus 2 -decode-gpus 2
//	litegpu-serve -gpu Lite -model Llama3-70B -prefill-gpus 8 -decode-gpus 8
//
// With -scheduler, the same silicon runs a different serving
// discipline; -prefill-chunk tunes chunked prefill's stall bound:
//
//	litegpu-serve -scheduler continuous
//	litegpu-serve -scheduler chunked -prefill-chunk 256
//
// With -afr, GPU failure injection is enabled: instances die at the
// area-scaled annualized failure rate, in-flight requests requeue (or
// drop with -drop-on-failure), and -spares hot spares restore capacity
// after a takeover delay. -failure-timescale accelerates the failure
// clock so a minutes-long run exhibits months of reliability dynamics:
//
//	litegpu-serve -afr 0.09 -spares 2
//	litegpu-serve -afr 0.09 -spares 2 -failure-timescale 1e6
//
// With -fabric, the interconnect enters the event loop: KV-cache
// handoffs between phase pools that cross scale-up nodes occupy real
// port bandwidth, contend, and pay switch latency (see
// docs/networking.md). -link picks the link technology,
// -fabric-latency-scale stresses the latency axis:
//
//	litegpu-serve -gpu Lite -model Llama3-70B -prefill-gpus 8 -decode-gpus 8 \
//	    -fabric clos -link pluggable
//	litegpu-serve -fabric flat-circuit:cpo:circuit
//
// With -second-gpu, a second pool of that GPU type serves the same
// trace side by side (instance counts as the main pool, tensor
// parallelism auto-sized), with -router picking round-robin or
// join-shortest-queue:
//
//	litegpu-serve -gpu H100 -second-gpu Lite -router jsq
//
// With -plan, the instance-count flags are ignored (they are what the
// planner searches over) and the capacity planner sizes the cheapest
// deployment meeting the SLO targets instead; -horizon, the batch caps,
// and explicitly-set -prefill-gpus/-decode-gpus TP degrees are honored.
// In plan mode each of -scheduler, -fabric, -kv and -admission is a
// search axis: it takes a comma-separated candidate list, or "auto" for
// the default candidates, and the planner sizes every combination and
// keeps the cheapest per Mtoken (-scheduler auto sizes all three
// policies). A serving run takes exactly one value per axis.
// Combined with -afr the plan becomes availability-aware: a hot-spare
// count joins the search (target -min-availability) and is priced into
// the TCO:
//
//	litegpu-serve -plan -gpu Lite -model Llama3-8B -rate 20 -ttft-attainment 0.99
//	litegpu-serve -plan -gpu Lite -model Llama3-8B -rate 20 -afr 0.09 -min-availability 0.99999
//
// On the fabric axis each candidate is simulated in the loop and priced
// at the resulting deployment scale:
//
//	litegpu-serve -plan -gpu Lite -model Llama3-70B -rate 20 -fabric auto
//	litegpu-serve -plan -fabric clos:copper,flat-circuit:cpo:circuit
//
// With -kv, decode KV-cache memory becomes a finite, paged resource
// (see docs/memory.md): admission blocks when an instance's block pool
// is exhausted, growing sequences preempt the newest batch member when
// memory runs out (recompute re-runs its prefill; swap pays a fabric
// round trip), and +prefix turns on shared-prefix block caching. The
// agent workload is the shape that makes prefix caching pay off:
//
//	litegpu-serve -kv recompute
//	litegpu-serve -kv swap+prefix -workload agent -fabric clos:pluggable
//
// In plan mode the memory policy is a search axis too:
//
//	litegpu-serve -plan -gpu Lite -model Llama3-8B -rate 20 -kv auto
//
// With -tenants, several tenant classes share the deployment, each with
// its own workload shape, rate, and scheduling priority; -flash and
// -diurnal shape the aggregate arrival rate over time. -client-timeout
// turns the clients into a closed loop (deadlines, capped-exponential
// retry backoff, abandonment), -admission picks the overload gate, and
// -autoscale turns on the elastic control loop:
//
//	litegpu-serve -tenants paid:conversation:5:1,free:conversation:15:0 \
//	    -flash 60:120:2 -client-timeout 15 -client-retries 2 \
//	    -admission adaptive -queue-limit 48
//	litegpu-serve -autoscale -decode-instances 4 -flash 60:60:3
//
// In plan mode the admission gate is the fourth search axis ("auto"
// tries none, priority and adaptive). -straggler-cv gives every
// instance a persistent slow factor so the plan holds on a fleet with
// realistic spread:
//
//	litegpu-serve -plan -rate 20 -client-timeout 30 -admission auto -queue-limit 64
//	litegpu-serve -plan -rate 20 -straggler-cv 0.2 -straggler-tail lognormal
//
// With -trace-out, the run records sampled per-request span timelines
// and exports them as Chrome trace_event JSON (load the file in
// Perfetto: pools render as processes, instances as threads, requests
// as flow arrows). -probe-interval/-probe-out export windowed
// time-series probes (queue depth, live instances, KV blocks, shed and
// retry rates, goodput) as CSV or JSON, and -progress prints a
// wall-clock heartbeat to stderr. Attaching the observer never changes
// results — outputs are byte-identical with or without it:
//
//	litegpu-serve -flash 60:60:3 -admission adaptive -queue-limit 48 \
//	    -trace-out trace.json -probe-interval 5 -probe-out probes.csv
//	litegpu-serve -rate 50 -horizon 3600 -progress
//
// In plan mode, -explain prints the planner's per-candidate decision
// trace (every sizing rung with its SLO verdict, and why the winner
// won), and -plan-trace exports the same record as JSON:
//
//	litegpu-serve -plan -gpu Lite -model Llama3-8B -rate 20 -scheduler auto -explain
//	litegpu-serve -plan -rate 20 -kv auto -plan-trace plan.json
//
// See docs/observability.md for the event taxonomy and export schemas.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"litegpu"
	"litegpu/cmd/internal/cli"
)

func main() {
	gpuName := flag.String("gpu", "H100", "GPU type (a Table 1 name)")
	modelName := flag.String("model", "Llama3-70B", "model preset")
	rate := flag.Float64("rate", 1.2, "request arrival rate (req/s)")
	horizon := flag.Float64("horizon", 300, "simulated seconds")
	seed := flag.Uint64("seed", 42, "workload seed")
	prefillInst := flag.Int("prefill-instances", 2, "prefill engine count")
	prefillGPUs := flag.Int("prefill-gpus", 2, "GPUs (TP degree) per prefill engine")
	decodeInst := flag.Int("decode-instances", 1, "decode engine count")
	decodeGPUs := flag.Int("decode-gpus", 2, "GPUs (TP degree) per decode engine")
	maxPrefill := flag.Int("max-prefill-batch", 4, "prompts fused per prefill pass")
	maxDecode := flag.Int("max-decode-batch", 64, "continuous-batching cap")
	workload := flag.String("workload", "coding", "workload shape: coding | conversation | agent (shared-prefix)")
	scheduler := flag.String("scheduler", "static", "scheduling policy: static (phase-split) | continuous (batching) | chunked (prefill); plan mode also accepts a comma-separated candidate list or auto (size all three, keep the cheapest)")
	prefillChunk := flag.Int("prefill-chunk", 0, "chunked-prefill chunk size in prompt tokens (0 = default 512)")
	afr := flag.Float64("afr", 0, "enable failure injection at this reference-package annualized failure rate (e.g. 0.09; 0 = off)")
	spares := flag.Int("spares", 0, "hot spares per pool under failure injection")
	timescale := flag.Float64("failure-timescale", 1, "failure-clock acceleration factor (rates ×k; repair stays real time)")
	dropOnFailure := flag.Bool("drop-on-failure", false, "drop in-flight requests when their instance dies instead of requeueing")
	secondGPU := flag.String("second-gpu", "", "add a second pool of this GPU type serving the same trace (heterogeneous cluster)")
	router := flag.String("router", "rr", "arrival router across pools: rr (round-robin) | jsq (join-shortest-queue)")
	fabricSpec := flag.String("fabric", "off", "put the network in the event loop: off, or fabric[:link[:switch]] with fabric clos | leaf-spine | flat-circuit, link copper | pluggable | cpo, switch packet | circuit; plan mode also accepts a comma-separated candidate list or auto (search the default candidates)")
	linkName := flag.String("link", "", "default link technology for -fabric specs that omit one: copper | pluggable | cpo")
	kvSpec := flag.String("kv", "off", "model decode KV-cache memory as a finite paged resource: off, or policy[+prefix] with policy recompute | swap; plan mode also accepts a comma-separated candidate list or auto (search the default candidates)")
	kvBlocks := flag.Int("kv-blocks", 0, "override the per-instance KV block budget (0 = derive from HBM capacity net of weights)")
	kvBlockTokens := flag.Int("kv-block-tokens", 0, "KV page size in tokens (0 = default 16)")
	latScale := flag.Float64("fabric-latency-scale", 1, "multiply fabric path latency (sensitivity stress knob, like -failure-timescale for failures)")
	plan := flag.Bool("plan", false, "size the cheapest deployment meeting the SLO targets instead of simulating fixed pools")
	ttftAttain := flag.Float64("ttft-attainment", 0.99, "plan mode: required fraction of requests meeting the TTFT limit")
	tbtAttain := flag.Float64("tbt-attainment", 0.99, "plan mode: required fraction of requests meeting the TBT limit")
	minCompletion := flag.Float64("min-completion", 0.95, "plan mode: required fraction of arrived requests completing")
	minAvailability := flag.Float64("min-availability", 0.999, "plan mode with -afr: required analytic availability of the spared deployment")
	maxInstances := flag.Int("max-instances", 64, "plan mode: per-pool instance-count search ceiling")
	tenants := flag.String("tenants", "", "multi-tenant trace: comma-separated name:workload:rate:priority classes (overrides -workload/-rate), e.g. paid:conversation:5:1,free:coding:15:0")
	flash := flag.String("flash", "", "flash crowds layered on the arrival rate: comma-separated at:duration:factor entries, e.g. 60:120:3")
	diurnal := flag.Float64("diurnal", 0, "diurnal rate-swing amplitude in [0,1)")
	diurnalPeriod := flag.Float64("diurnal-period", 0, "diurnal period in seconds (0 = one day)")
	clientTimeout := flag.Float64("client-timeout", 0, "closed-loop client deadline in seconds (0 = open-loop clients)")
	clientRetries := flag.Int("client-retries", 0, "client retry budget after a timeout or shed")
	clientBackoff := flag.Float64("client-backoff", 0, "base retry backoff in seconds, doubling per attempt (0 = default 1)")
	clientBackoffCap := flag.Float64("client-backoff-cap", 0, "retry backoff ceiling in seconds (0 = default 30)")
	clientJitter := flag.Float64("client-jitter", 0, "multiplicative backoff jitter in [0,1)")
	ttftSLO := flag.Float64("ttft-slo", 0, "per-class TTFT SLO in seconds for closed-loop attainment accounting (0 = the option's TTFT limit)")
	admission := flag.String("admission", "none", "overload gate: none | priority | adaptive; plan mode also accepts a comma-separated candidate list or auto (search all three)")
	queueLimit := flag.Int("queue-limit", 0, "admission outstanding-work threshold (required for -admission priority/adaptive)")
	minPriority := flag.Int("min-priority", 1, "-admission priority: arrivals below this priority shed at the limit")
	admissionLevels := flag.Int("admission-levels", 0, "-admission adaptive: priority band count (0 = default 4)")
	autoscale := flag.Bool("autoscale", false, "enable the elastic autoscaler: instances beyond the floor park and unpark under load")
	autoscaleHigh := flag.Float64("autoscale-high", 0, "scale up above this outstanding work per live instance (0 = default 8)")
	autoscaleLow := flag.Float64("autoscale-low", 0, "scale down below this outstanding work per live instance (0 = default 1)")
	autoscaleMin := flag.Int("autoscale-min", 0, "always-on instance floor (0 = default 1)")
	autoscaleWarmup := flag.Float64("autoscale-warmup", 0, "cold-start warm-up seconds before an unparked instance takes traffic (0 = default 30)")
	stragglerCV := flag.Float64("straggler-cv", 0, "persistent per-instance slow-factor coefficient of variation (0 = uniform instances)")
	stragglerTail := flag.String("straggler-tail", "gaussian", "straggler distribution shape: gaussian | exponential | lognormal")
	traceOut := flag.String("trace-out", "", "export sampled request timelines as Chrome trace_event JSON to this file (load in Perfetto; see docs/observability.md)")
	traceSamples := flag.Int("trace-samples", 0, "timeline reservoir capacity for -trace-out (0 = default 4096)")
	probeInterval := flag.Float64("probe-interval", 0, "sample windowed time-series probes every this many simulated seconds (required for -probe-out)")
	probeOut := flag.String("probe-out", "", "export time-series probes to this file (CSV, or JSON when the name ends in .json)")
	progress := flag.Bool("progress", false, "print a heartbeat (simulated time + completed requests) to stderr every few wall-clock seconds")
	explain := flag.Bool("explain", false, "plan mode: print the per-candidate decision trace (every sizing rung, why the winner won)")
	planTraceOut := flag.String("plan-trace", "", "plan mode: export the decision trace as JSON to this file")
	flag.Parse()

	check(cli.CheckNumeric(*horizon, *clientTimeout, *stragglerCV))
	gpu, err := cli.GPU(*gpuName)
	check(err)
	m, err := cli.Model(*modelName)
	check(err)
	w, err := cli.Workload(*workload)
	check(err)
	gen := w.Make(*rate, *seed)
	envelope := litegpu.WorkloadEnvelope{
		DiurnalAmplitude: *diurnal,
		DiurnalPeriod:    litegpu.Seconds(*diurnalPeriod),
	}
	if *flash != "" {
		for _, spec := range strings.Split(*flash, ",") {
			f := strings.Split(spec, ":")
			if len(f) != 3 {
				fatalf("bad -flash entry %q (want at:duration:factor)", spec)
			}
			at := parseF(f[0], "flash start")
			dur := parseF(f[1], "flash duration")
			fac := parseF(f[2], "flash factor")
			envelope.Flash = append(envelope.Flash, litegpu.FlashCrowd{
				At: litegpu.Seconds(at), Duration: litegpu.Seconds(dur), Factor: fac,
			})
		}
	}
	var multi *litegpu.MultiWorkload
	if *tenants != "" {
		mw := litegpu.MultiWorkload{Envelope: envelope, Seed: *seed}
		for _, spec := range strings.Split(*tenants, ",") {
			f := strings.Split(spec, ":")
			if len(f) != 4 {
				fatalf("bad -tenants entry %q (want name:workload:rate:priority)", spec)
			}
			tw, err := cli.Workload(f[1])
			check(err)
			r := parseF(f[2], "tenant rate")
			prio, err := strconv.Atoi(f[3])
			if err != nil {
				fatalf("bad tenant priority %q: %v", f[3], err)
			}
			mw.Classes = append(mw.Classes, litegpu.TenantClass{
				Name: f[0], Gen: tw.Make(r, 0), Priority: prio,
			})
		}
		multi = &mw
	} else if envelope.Enabled() {
		// A single-tenant trace still takes the rate envelope by riding
		// through a one-class multi-tenant generator.
		multi = &litegpu.MultiWorkload{
			Classes:  []litegpu.TenantClass{{Name: *workload, Gen: gen}},
			Envelope: envelope,
			Seed:     *seed,
		}
	}
	failures := litegpu.ServeFailureConfig{}
	if *afr > 0 {
		failures = litegpu.ServeFailureConfig{
			Enabled:   true,
			Params:    litegpu.DefaultFailureParams(*afr),
			Spares:    *spares,
			TimeScale: *timescale,
			Seed:      *seed,
		}
		if *dropOnFailure {
			failures.Policy = litegpu.DropOnFailure
		}
	}

	// Each search axis is one list: a serving run takes exactly one
	// entry, plan mode searches them all ("auto" = the default set).
	count := cli.One
	if *plan {
		count = cli.Some
	}
	scheds, err := cli.Axis("scheduler", *scheduler, count, litegpu.SchedulerPolicies(), litegpu.ParseSchedulerPolicy)
	check(err)
	fabrics, err := cli.Axis("fabric", *fabricSpec, count, litegpu.DefaultFabricCandidates(),
		func(s string) (litegpu.ServeNetworkConfig, error) {
			return litegpu.ParseNetworkConfigWithLink(s, *linkName)
		})
	check(err)
	kvs, err := cli.Axis("kv", *kvSpec, count, litegpu.DefaultKVPolicyCandidates(), litegpu.ParseKVConfig)
	check(err)
	adms, err := cli.Axis("admission", *admission, count, cli.AdmissionAuto(*queueLimit, *minPriority, *admissionLevels),
		cli.Admission(*queueLimit, *minPriority, *admissionLevels))
	check(err)
	if *latScale != 1 {
		for i := range fabrics {
			fabrics[i].LatencyScale = *latScale
		}
	}
	// The zero kv config must stay zero to keep its infinite-memory
	// meaning, so the block knobs only reach enabled entries.
	for i := range kvs {
		if kvs[i].Enabled() {
			kvs[i].Blocks = *kvBlocks
			kvs[i].BlockTokens = *kvBlockTokens
		}
	}

	// Knobs that only shape a feature reject explicit settings while
	// the feature is off, rather than being silently ignored.
	check(cli.CheckRequires(flag.CommandLine, []cli.Require{
		{Need: "-afr", Met: *afr > 0, Flags: []string{"spares", "failure-timescale", "drop-on-failure"}},
		{Need: "a -kv policy other than off", Met: slices.ContainsFunc(kvs, litegpu.ServeKVConfig.Enabled),
			Flags: []string{"kv-blocks", "kv-block-tokens"}},
		{Need: "a -fabric other than off", Met: slices.ContainsFunc(fabrics, litegpu.ServeNetworkConfig.Enabled),
			Flags: []string{"link", "fabric-latency-scale"}},
		{Need: "-client-timeout", Met: *clientTimeout > 0,
			Flags: []string{"client-retries", "client-backoff", "client-backoff-cap", "client-jitter", "ttft-slo"}},
		{Need: "-autoscale", Met: *autoscale,
			Flags: []string{"autoscale-high", "autoscale-low", "autoscale-min", "autoscale-warmup"}},
		{Need: "-straggler-cv", Met: *stragglerCV > 0, Flags: []string{"straggler-tail"}},
		{Need: "-trace-out", Met: *traceOut != "", Flags: []string{"trace-samples"}},
		{Need: "a positive -probe-interval", Met: *probeInterval > 0, Flags: []string{"probe-out"}},
		{Need: "-plan", Met: *plan, Flags: []string{"explain", "plan-trace"}},
		// The spare count is a planner output; the rest shape or
		// instrument a serving run.
		{Need: "a run without -plan (the planner searches the spare count; see -min-availability)", Met: !*plan,
			Flags: []string{"spares"}},
		{Need: "a run without -plan", Met: !*plan, Flags: []string{"router", "drop-on-failure"}},
		{Need: "a run without -plan (use -explain / -plan-trace for planner telemetry)", Met: !*plan,
			Flags: []string{"trace-out", "trace-samples", "probe-interval", "probe-out", "progress"}},
	}))

	var client litegpu.ServeClientConfig
	if *clientTimeout > 0 {
		client = litegpu.ServeClientConfig{
			Default: litegpu.ClientBehavior{
				Timeout:     litegpu.Seconds(*clientTimeout),
				Retries:     *clientRetries,
				BackoffBase: litegpu.Seconds(*clientBackoff),
				BackoffCap:  litegpu.Seconds(*clientBackoffCap),
				Jitter:      *clientJitter,
				TTFTSLO:     litegpu.Seconds(*ttftSLO),
			},
			Seed: *seed,
		}
	}
	var scale litegpu.ServeAutoscaleConfig
	if *autoscale {
		scale = litegpu.ServeAutoscaleConfig{
			Enabled:      true,
			HighWater:    *autoscaleHigh,
			LowWater:     *autoscaleLow,
			MinInstances: *autoscaleMin,
			WarmUp:       litegpu.Seconds(*autoscaleWarmup),
		}
	}
	var strag litegpu.ServeStragglerConfig
	if *stragglerCV > 0 {
		var tail litegpu.StragglerTail
		switch *stragglerTail {
		case "gaussian":
			tail = litegpu.StragglerGaussian
		case "exponential", "exp":
			tail = litegpu.StragglerExponential
		case "lognormal":
			tail = litegpu.StragglerLogNormal
		default:
			fatalf("unknown straggler tail %q (want gaussian, exponential, or lognormal)", *stragglerTail)
		}
		strag = litegpu.ServeStragglerConfig{
			Jitter: litegpu.StragglerJitter{CV: *stragglerCV, Tail: tail},
			Seed:   *seed,
		}
	}
	var routerPolicy litegpu.ServeRouterPolicy
	switch *router {
	case "rr", "round-robin":
		routerPolicy = litegpu.RoundRobin
	case "jsq", "join-shortest-queue":
		routerPolicy = litegpu.JoinShortestQueue
	default:
		fatalf("unknown router %q (want rr or jsq)", *router)
	}
	if *plan {
		if *secondGPU != "" {
			fatalf("-plan sizes a single homogeneous pool; it cannot be combined with -second-gpu")
		}
		if multi != nil {
			fatalf("-plan sizes against a single-tenant workload; -tenants, -flash, and -diurnal only apply without -plan")
		}
		slo := litegpu.CapacitySLO{
			TTFTAttainment:  *ttftAttain,
			TBTAttainment:   *tbtAttain,
			MinCompletion:   *minCompletion,
			MinAvailability: *minAvailability,
		}
		gen.Rate = *rate
		req := litegpu.CapacityRequest{
			GPU:             gpu,
			Model:           m,
			Opts:            litegpu.DefaultOptions(),
			Workload:        gen,
			Horizon:         litegpu.Seconds(*horizon),
			Schedulers:      scheds,
			PrefillChunk:    *prefillChunk,
			MaxPrefillBatch: *maxPrefill,
			MaxDecodeBatch:  *maxDecode,
			MaxInstances:    *maxInstances,
			Failures:        failures,
			Fabrics:         fabrics,
			KVPolicies:      kvs,
			Client:          client,
			Admissions:      adms,
			Autoscale:       scale,
			Straggler:       strag,
		}
		// The instance-count flags are what the planner searches over,
		// but an explicitly-set TP degree is a constraint to respect;
		// left unset, the planner picks the smallest degree that fits.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "prefill-gpus":
				req.PrefillGPUs = *prefillGPUs
			case "decode-gpus":
				req.DecodeGPUs = *decodeGPUs
			}
		})
		var ptrace *litegpu.PlanTrace
		if *explain || *planTraceOut != "" {
			ptrace = &litegpu.PlanTrace{}
			req.Trace = ptrace
		}
		p, err := litegpu.PlanCapacityRequest(req, slo)
		if err != nil && ptrace == nil {
			fatalf("plan: %v", err)
		}
		if ptrace != nil {
			// The decision trace exports even when no candidate was
			// feasible — that is exactly when "why rejected" matters.
			if *planTraceOut != "" {
				check(cli.WriteExport(*planTraceOut, ptrace.WriteJSON))
			}
			if *explain {
				fmt.Println("decision trace:")
				if werr := ptrace.Render(os.Stdout); werr != nil {
					fatalf("render decision trace: %v", werr)
				}
			}
			if err != nil {
				fatalf("plan: %v", err)
			}
		}
		c := p.Config
		fmt.Printf("capacity plan: %s serving %s at %.2f req/s (%s workload, seed %d)\n",
			gpu.Name, m.Name, *rate, *workload, *seed)
		spareNote := ""
		if p.Spares > 0 {
			spareNote = fmt.Sprintf(" + %d spares", p.Spares)
		}
		fmt.Printf("  deployment: %s%s = %d GPUs (%s scheduler)\n",
			describeDeployment(c), spareNote, p.TotalGPUs, c.Scheduler)
		fmt.Printf("  SLO check: TTFT attainment %.1f%% (target %.1f%%), TBT attainment %.1f%% (target %.1f%%)\n",
			p.Metrics.TTFTAttainment*100, *ttftAttain*100,
			p.Metrics.TBTAttainment*100, *tbtAttain*100)
		fmt.Printf("  completed %d/%d, dropped %d, tokens %d\n",
			p.Metrics.Completed, p.Metrics.Arrived, p.Metrics.Dropped, p.Metrics.TokensGenerated)
		if failures.Enabled {
			fmt.Printf("  reliability: %d hot spares for %.6f availability (target %.6f), blast radius %.1f%%\n",
				p.Spares, p.Availability, *minAvailability, p.Metrics.BlastRadius*100)
		}
		if p.Config.Admission.Policy != litegpu.AdmitAll {
			fmt.Printf("  admission: %s gate, queue limit %d (shed %d of %d)\n",
				p.Config.Admission.Policy, p.Config.Admission.QueueLimit, p.Metrics.Shed, p.Metrics.Arrived)
		}
		fmt.Printf("  fabric: %s (%s)\n", p.Fabric, p.Config.Network)
		if p.Config.Network.Enabled() && p.Metrics.NetTransfers > 0 {
			fmt.Printf("  network: %d transfers, p99 %.2f ms, %.1f%% of delivered latency\n",
				p.Metrics.NetTransfers, p.Metrics.TransferTime.P99*1e3, p.Metrics.NetworkBoundFraction*100)
		}
		if p.Config.KV.Enabled() {
			fmt.Printf("  kv memory: %s policy, %d preemptions, peak %d blocks (mean %.1f), hit rate %.1f%%, %d recomputed tokens\n",
				p.Config.KV, p.Metrics.KVPreemptions, p.Metrics.KVPeakBlocks, p.Metrics.KVMeanBlocks,
				p.Metrics.KVCacheHitRate*100, p.Metrics.KVRecomputeTokens)
		}
		fmt.Printf("  TCO: %v\n", p.Cost)
		return
	}

	// Arrivals stream into the simulator on demand (identical to a
	// materialized trace, request for request), so even a huge
	// -rate × -horizon product runs in memory proportional to the
	// in-flight working set.
	var stream litegpu.RequestSource
	if multi != nil {
		ms, err := multi.Stream(litegpu.Seconds(*horizon))
		if err != nil {
			fatalf("generate workload: %v", err)
		}
		stream = ms
	} else {
		ts, err := gen.Stream(litegpu.Seconds(*horizon))
		if err != nil {
			fatalf("generate workload: %v", err)
		}
		stream = ts
	}

	kvc, adm := kvs[0], adms[0]
	cfg := litegpu.ServeConfig{
		GPU:              gpu,
		Model:            m,
		Opts:             litegpu.DefaultOptions(),
		Scheduler:        scheds[0],
		PrefillChunk:     *prefillChunk,
		PrefillInstances: *prefillInst,
		PrefillGPUs:      *prefillGPUs,
		DecodeInstances:  *decodeInst,
		DecodeGPUs:       *decodeGPUs,
		MaxPrefillBatch:  *maxPrefill,
		MaxDecodeBatch:   *maxDecode,
		KV:               kvc,
		Client:           client,
		Admission:        adm,
		Autoscale:        scale,
		Straggler:        strag,
	}
	cc := litegpu.ServeClusterConfig{
		Pools:    []litegpu.ServePool{{Name: gpu.Name, Config: cfg}},
		Router:   routerPolicy,
		Failures: failures,
		Network:  fabrics[0],
	}
	if *secondGPU != "" {
		g2, err := cli.GPU(*secondGPU)
		check(err)
		opts := litegpu.DefaultOptions()
		pTP, err := litegpu.MinFeasibleTP(g2, m, litegpu.Prefill, opts)
		if err != nil {
			fatalf("second pool: %v", err)
		}
		dTP, err := litegpu.MinFeasibleTP(g2, m, litegpu.Decode, opts)
		if err != nil {
			fatalf("second pool: %v", err)
		}
		cfg2 := cfg
		cfg2.GPU = g2
		cfg2.PrefillGPUs = pTP
		cfg2.DecodeGPUs = dTP
		cc.Pools = append(cc.Pools, litegpu.ServePool{Name: g2.Name, Config: cfg2})
	}

	// Observability: one Recorder sees the whole cluster (attaching it
	// is read-only — results are byte-identical with or without it).
	var recorder *litegpu.Observer
	if *traceOut != "" || *probeOut != "" || *progress {
		o := litegpu.ObserverOptions{
			Seed:          *seed,
			SampleTargets: *traceSamples,
			ProbeInterval: *probeInterval,
		}
		if *progress {
			start := time.Now()
			last := start
			o.Heartbeat = func(now float64, completed int64) {
				if time.Since(last) < 2*time.Second {
					return
				}
				last = time.Now()
				fmt.Fprintf(os.Stderr, "litegpu-serve: t=%.0fs simulated, %d completed (%.0fs elapsed)\n",
					now, completed, time.Since(start).Seconds())
			}
		}
		recorder = litegpu.NewObserver(o)
		cc.Observer = recorder
	}

	simStart := time.Now()
	cm, err := litegpu.ServeClusterFrom(cc, stream, litegpu.Seconds(*horizon)+120)
	if err != nil {
		fatalf("simulate: %v", err)
	}
	if *progress {
		fmt.Fprintf(os.Stderr, "litegpu-serve: done, %d completed in %.1fs wall\n",
			cm.Total.Completed, time.Since(simStart).Seconds())
	}

	if multi == nil {
		fmt.Printf("workload: %s @ %.2f req/s for %.0f s (seed %d)\n", *workload, *rate, *horizon, *seed)
	} else {
		fmt.Printf("workload: %d tenant classes for %.0f s (seed %d)\n", len(multi.Classes), *horizon, *seed)
	}
	if failures.Enabled {
		fmt.Printf("failure injection: AFR %.2f ×%.0f, %d spares/pool, policy %s\n",
			*afr, *timescale, *spares, map[bool]string{false: "requeue", true: "drop"}[*dropOnFailure])
	}
	if kvc.Enabled() {
		fmt.Printf("kv memory: %s policy, %d-token blocks\n", kvc, kvc.BlockTokensOrDefault())
	}
	if multi != nil && len(multi.Classes) > 1 {
		fmt.Printf("tenants: %s\n", *tenants)
	}
	if *clientTimeout > 0 {
		fmt.Printf("closed-loop clients: %.0fs deadline, %d retries\n", *clientTimeout, *clientRetries)
	}
	if adm.Policy != litegpu.AdmitAll {
		fmt.Printf("admission: %s gate, queue limit %d\n", adm.Policy, adm.QueueLimit)
	}
	for i, pm := range cm.Pools {
		pc := cc.Pools[i].Config // RunCluster reports pools in input order
		fmt.Printf("pool %s: %s (%s scheduler), model %s\n",
			pm.Name, describeDeployment(pc), pc.Scheduler, m.Name)
		printMetrics("  ", pm.Metrics, failures.Enabled, kvc.Enabled())
	}
	if len(cm.Pools) > 1 {
		fmt.Printf("cluster total (router %s):\n", *router)
		printMetrics("  ", cm.Total, failures.Enabled, kvc.Enabled())
	}
	if recorder != nil {
		check(cli.WriteObserver(recorder, *traceOut, *probeOut))
		if *traceOut != "" {
			held, seen := recorder.Sampled()
			fmt.Printf("timeline trace: %d of %d requests sampled → %s (load in Perfetto)\n", held, seen, *traceOut)
		}
		if *probeOut != "" {
			fmt.Printf("probes: %d samples at %.0fs intervals → %s\n", len(recorder.Probes()), *probeInterval, *probeOut)
		}
	}
}

// describeDeployment renders a config's instance shape: the two phase
// pools for the static scheduler, the single colocated pool otherwise.
func describeDeployment(c litegpu.ServeConfig) string {
	if c.Scheduler.Colocated() {
		n, g := c.ColocatedShape()
		return fmt.Sprintf("%d×%d-GPU colocated", n, g)
	}
	return fmt.Sprintf("%d×%d-GPU prefill + %d×%d-GPU decode",
		c.PrefillInstances, c.PrefillGPUs, c.DecodeInstances, c.DecodeGPUs)
}

func printMetrics(indent string, mets litegpu.ServeMetrics, withFailures, withKV bool) {
	fmt.Printf("%sarrived %d, completed %d, dropped %d, tokens generated %d\n",
		indent, mets.Arrived, mets.Completed, mets.Dropped, mets.TokensGenerated)
	fmt.Printf("%sTTFT p50/p90/p99: %.0f / %.0f / %.0f ms (attainment %.1f%%)\n",
		indent, mets.TTFT.P50*1e3, mets.TTFT.P90*1e3, mets.TTFT.P99*1e3, mets.TTFTAttainment*100)
	fmt.Printf("%sTBT  p50/p90/p99: %.1f / %.1f / %.1f ms (attainment %.1f%%)\n",
		indent, mets.TBT.P50*1e3, mets.TBT.P90*1e3, mets.TBT.P99*1e3, mets.TBTAttainment*100)
	fmt.Printf("%sE2E  p50/p99: %.2f / %.2f s\n", indent, mets.E2E.P50, mets.E2E.P99)
	fmt.Printf("%sutilization: prefill %.1f%%, decode %.1f%%\n",
		indent, mets.PrefillUtilization*100, mets.DecodeUtilization*100)
	if withFailures {
		fmt.Printf("%sreliability: availability %.4f, %d failures, %d requeued, %d dropped-on-failure, goodput %.1f tok/s, blast radius %.1f%%\n",
			indent, mets.Availability, mets.FailureEvents, mets.Requeued, mets.DroppedOnFailure,
			mets.Goodput, mets.BlastRadius*100)
	}
	if mets.NetTransfers > 0 {
		fmt.Printf("%snetwork: %d transfers, %.1f MB p50 / %.1f MB p99, %.2f / %.2f ms p50/p99, %.1f%% of delivered latency\n",
			indent, mets.NetTransfers,
			mets.TransferBytes.P50/1e6, mets.TransferBytes.P99/1e6,
			mets.TransferTime.P50*1e3, mets.TransferTime.P99*1e3,
			mets.NetworkBoundFraction*100)
	}
	if withKV {
		fmt.Printf("%skv memory: %d preemptions, peak %d blocks (mean %.1f), hit rate %.1f%%, %d recomputed tokens\n",
			indent, mets.KVPreemptions, mets.KVPeakBlocks, mets.KVMeanBlocks,
			mets.KVCacheHitRate*100, mets.KVRecomputeTokens)
	}
	if mets.ClientTimeouts+mets.ClientRetries+mets.Abandoned+mets.Shed > 0 {
		fmt.Printf("%soverload: %d timeouts, %d retries, %d abandoned, %d shed; useful goodput %.1f tok/s\n",
			indent, mets.ClientTimeouts, mets.ClientRetries, mets.Abandoned, mets.Shed, mets.UsefulGoodput)
	}
	if mets.ScaleUps+mets.ScaleDowns > 0 {
		fmt.Printf("%sautoscaler: %d scale-ups, %d scale-downs, mean live instances %.2f\n",
			indent, mets.ScaleUps, mets.ScaleDowns, mets.MeanLiveInstances)
	}
	for _, c := range mets.Classes {
		fmt.Printf("%sclass %d: arrived %d, completed %d, shed %d, abandoned %d, TTFT attainment %.1f%%, goodput %.1f tok/s\n",
			indent, c.Class, c.Arrived, c.Completed, c.Shed, c.Abandoned, c.TTFTAttainment*100, c.Goodput)
	}
}

// parseF parses a float flag component or dies with context.
func parseF(s, what string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		fatalf("bad %s %q: %v", what, s, err)
	}
	return v
}

var fatalf, check = cli.Fatal("litegpu-serve", nil)
