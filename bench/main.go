// Command bench is the simulator's end-to-end benchmark. It runs one
// named workload through the public litegpu entry points for a fixed
// measuring time, checks every op's simulated output against a pinned
// digest, and prints the workload's metrics.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload stream_1m --seed 42 --seconds 25 --trace 0
//
// run.sh builds the program into .bench_build and runs it there. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 31, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (host time per op,
// simulated requests per host second, set-up time, peak RSS); with
// --trace 1 they are the per-layer ones (work counts, CPU-profile
// shares per simulator layer, a layer ladder and isolated layer
// probes). bench/README.md lists them all.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// pinnedDigests holds each workload's output digest at seed 42, full
// size. TestPinnedDigests -update rewrites it.
//
//go:embed testdata/digests.txt
var pinnedDigests string

// pinnedSeed is the seed the digests file pins.
const pinnedSeed = 42

// setupReps is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up cannot move it.
const setupReps = 5

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	name := flag.String("workload", "", "workload to run: stream_1m, overload_lite, plan_lite or sweep_grid")
	seed := flag.Uint64("seed", pinnedSeed, "seed every workload input derives from")
	seconds := flag.Float64("seconds", 10, "host seconds to measure for")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 runs the traced per-layer measurement")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	if !(*seconds > 0) {
		return fmt.Errorf("--seconds must be positive")
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	res, prov, err := runWorkload(w, runOpts{
		seed:    *seed,
		seconds: *seconds,
		traced:  *trace == 1,
		workDir: filepath.Dir(exe),
	})
	if err != nil {
		return err
	}
	printTable(res)
	if err := printJSON(prov); err != nil {
		return err
	}
	return printJSON(res)
}

// runOpts sets how a run measures.
type runOpts struct {
	seed uint64
	// seconds is the measuring time; ops > 0 replaces it with an exact
	// op count per measuring phase (tests use 2).
	seconds float64
	ops     int
	// small shrinks the workloads' simulated horizons (tests).
	small  bool
	traced bool
	// workDir receives the traced run's CPU profile while it is parsed.
	workDir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// note is a line for the human-readable table only.
	note string
}

// runner runs ops and checks each one's output.
type runner struct {
	o runOpts
	// insts are the workload's inputs, one per input seed; wants[j] is
	// the digest every op on insts[j] must reproduce.
	insts    []*instance
	wants    []string
	res      result
	reported bool // whether a failure has been printed
}

// do runs one op and returns its host seconds. The op's digest must
// equal *want; an empty *want adopts the first digest seen. A failed op
// is counted, the first failure is printed on stderr, and its outcome
// is zero.
func (r *runner) do(want *string, op func() (outcome, error)) (float64, outcome) {
	t := time.Now()
	out, err := op()
	d := time.Since(t).Seconds()
	r.res.Attempted++
	if err == nil {
		if *want == "" {
			*want = out.digest
		}
		if out.digest != *want {
			err = fmt.Errorf("output digest %s, want %s", out.digest, *want)
		}
	}
	if err != nil {
		r.res.Failed++
		if !r.reported {
			r.reported = true
			fmt.Fprintln(os.Stderr, "bench: op failed:", err)
		}
		return d, outcome{}
	}
	return d, out
}

// cycle returns an op that runs the inputs in turn, from the first,
// with the given boundary span.
func (r *runner) cycle(span *spanSource) func() (float64, outcome) {
	i := 0
	return func() (float64, outcome) {
		j := i % len(r.insts)
		i++
		return r.do(&r.wants[j], func() (outcome, error) { return r.insts[j].op(span) })
	}
}

// phase is one measuring loop's samples and resource deltas.
type phase struct {
	secs       []float64          // host seconds per op
	arrivals   []int              // simulated arrivals per op (0 when it failed)
	good       int                // ops that succeeded
	counts     map[string]float64 // work counts summed over good ops
	wall, cpu  float64            // host wall and process CPU seconds
	mallocs    uint64
	allocBytes uint64
	gcs        uint32
	gcPauseNs  uint64
}

func (p *phase) ops() float64 { return float64(len(p.secs)) }

// measure runs ops back to back until budget seconds have passed and at
// least minOps ran, or exactly runOpts.ops ops when that is set.
func (r *runner) measure(op func() (float64, outcome), budget float64, minOps int) (*phase, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, err := cpuSeconds()
	if err != nil {
		return nil, err
	}
	p := &phase{counts: map[string]float64{}}
	start := time.Now()
	for {
		n := len(p.secs)
		if r.o.ops > 0 {
			if n >= r.o.ops {
				break
			}
		} else if n >= max(minOps, 1) && time.Since(start).Seconds() >= budget {
			break
		}
		d, out := op()
		p.secs = append(p.secs, d)
		p.arrivals = append(p.arrivals, out.arrivals)
		if out.digest != "" {
			p.good++
			for k, v := range out.counts {
				p.counts[k] += v
			}
		}
	}
	p.wall = time.Since(start).Seconds()
	cpu1, err := cpuSeconds()
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	runtime.ReadMemStats(&ms1)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcs = ms1.NumGC - ms0.NumGC
	p.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	return p, nil
}

// runWorkload sets the workload up, measures it, and returns the
// result line and its provenance stamp. An error means the run could
// not be measured at all; failed ops are counted in the result instead.
func runWorkload(w workload, o runOpts) (*result, *provenance, error) {
	r := &runner{o: o, res: result{Metrics: map[string]metric{}}, wants: make([]string, w.inputs)}
	if o.seed == pinnedSeed && !o.small {
		want, err := pinnedDigest(w.name)
		if err != nil {
			return nil, nil, err
		}
		r.wants[0] = want
	}

	// Each set-up builds every input and runs one untimed warm-up op, so
	// caches and the heap are warm before timing starts and the warm-up
	// cost shows in setup_s. Successive set-ups warm up on successive
	// inputs, so setup_s does not hang on one input's cost. Each starts
	// from a collected heap returned to the OS, so its peak resident set
	// does not depend on how much the runtime kept from earlier work.
	cal := &calibration{n: 1_000_000}
	if o.small {
		cal.n = 10_000
	}
	var setups, rss []float64
	var configs strings.Builder
	for i := 0; i < setupReps; i++ {
		r.insts = nil
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, nil, err
		}
		t := time.Now()
		configs.Reset()
		for j := 0; j < w.inputs; j++ {
			inst, err := w.setup(inputSeed(o.seed, j), o.small)
			if err != nil {
				return nil, nil, fmt.Errorf("%s setup: %w", w.name, err)
			}
			r.insts = append(r.insts, inst)
			configs.WriteString(inst.config)
		}
		j := i % w.inputs
		r.do(&r.wants[j], func() (outcome, error) { return r.insts[j].op(nil) })
		setups = append(setups, time.Since(t).Seconds())
		peak, err := peakRSSMiB()
		if err != nil {
			return nil, nil, err
		}
		rss = append(rss, peak)
		cal.sample()
	}
	prov := newProvenance(w.name, o.seed, configs.String())

	if !o.traced {
		op := r.cycle(nil)
		p, err := r.measure(func() (float64, outcome) {
			d, out := op()
			if cal.due() {
				cal.sample()
			}
			return d, out
		}, o.seconds, 1)
		if err != nil {
			return nil, nil, err
		}
		rates := make([]float64, len(p.secs))
		for i, s := range p.secs {
			rates[i] = float64(p.arrivals[i]) / s
		}
		// Host times are reported at the reference host's speed.
		f := cal.factor()
		r.put("setup_s", median(setups)/f, "s")
		r.put("op_s_p50", median(p.secs)/f, "s/op")
		r.put("sim_req_per_s", median(rates)*f, "req/s")
		r.put("peak_rss_mb", median(rss), "MiB")
		// The tail is printed, not gated: on a shared host it moves
		// with the neighbours more than with the code.
		n := len(p.secs)
		q := max(0.5, 1-10/float64(n))
		r.res.note = fmt.Sprintf("as measured: speed factor %.4g (%d calibrations), setup %.6g s, op p50 %.6g s, op p%.0f %.6g s over %d ops",
			f, len(cal.secs), median(setups), median(p.secs), 100*q, nearestRank(p.secs, q), n)
	} else if err := r.traced(); err != nil {
		return nil, nil, err
	}
	r.res.Correct = r.res.Failed == 0
	return &r.res, prov, nil
}

func (r *runner) put(name string, v float64, unit string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func pinnedDigest(name string) (string, error) {
	for _, line := range strings.Split(pinnedDigests, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("testdata/digests.txt has no digest for %s", name)
}

// printTable writes the metrics one per line for a human reader.
func printTable(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if res.note != "" {
		fmt.Println(res.note)
	}
	fmt.Printf("ops attempted %d, failed %d\n", res.Attempted, res.Failed)
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
