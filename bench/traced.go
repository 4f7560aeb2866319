package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// Shares of the measuring time the traced run gives each of its phases.
const (
	untracedShare = 0.3
	profiledShare = 0.3
	ladderShare   = 0.3
	probeShare    = 0.1
)

// ladderMinOps is the fewest ops each layer-ladder rung times, so its
// median rests on enough samples.
const ladderMinOps = 50

// layers are the simulator layers CPU samples are attributed to, in
// report order. inference also covers roofline and model, the packages
// behind a step-time evaluation.
var layers = []string{"sim", "serve", "trace", "mathx", "kv", "netsim", "obs", "inference", "sweep", "runtime", "other"}

// countMetrics are the per-op work counts every op reports, read from
// the simulated results.
var countMetrics = []struct{ name, unit string }{
	{"serve.sim_requests", "count/op"},
	{"serve.completed", "count/op"},
	{"serve.tokens", "count/op"},
	{"kv.preemptions", "count/op"},
	{"kv.recompute_tokens", "count/op"},
	{"kv.cache_hit_rate", "ratio"},
	{"netsim.transfers", "count/op"},
	{"netsim.network_bound_frac", "ratio"},
	{"overload.shed", "count/op"},
	{"overload.retries", "count/op"},
	{"overload.timeouts", "count/op"},
	{"overload.abandoned", "count/op"},
	{"overload.useful_frac", "ratio"},
	{"obs.timelines_held", "count/op"},
	{"obs.probe_rows", "count/op"},
	{"sweep.cells", "count/op"},
	{"planner.candidates", "count/op"},
	{"planner.rungs", "count/op"},
	{"planner.sim_requests", "count/op"},
}

// traced measures the workload layer by layer, from outside the
// simulator: untraced ops for the runtime counters, profiled ops for
// each layer's CPU share, the overload layer ladder, and isolated
// probes of each layer's public API.
func (r *runner) traced() error {
	s := r.o.seconds
	base, err := r.measure(r.cycle(nil), untracedShare*s, 1)
	if err != nil {
		return err
	}
	n := base.ops()
	r.put("runtime.allocs_per_op", float64(base.mallocs)/n, "allocs/op")
	r.put("runtime.alloc_mb_per_op", float64(base.allocBytes)/n/(1<<20), "MiB/op")
	r.put("runtime.gc_cycles_per_op", float64(base.gcs)/n, "gc/op")
	r.put("runtime.gc_pause_ms_per_op", float64(base.gcPauseNs)/1e6/n, "ms/op")
	r.put("sweep.parallel_eff", base.cpu/(base.wall*benchWorkers), "ratio")
	for _, c := range countMetrics {
		r.put(c.name, ratio(base.counts[c.name], float64(base.good)), c.unit)
	}

	span := &spanSource{}
	prof, err := r.profile(r.cycle(span), profiledShare*s)
	if err != nil {
		return err
	}
	var opNs float64
	for _, d := range prof.secs {
		opNs += d * 1e9
	}
	r.put("trace.share", float64(span.ns)/opNs, "ratio")
	r.put("bench.cpu_ms_per_op", prof.cpu/prof.ops()*1e3, "ms/op")
	r.put("bench.trace_overhead_frac", median(prof.secs)/median(base.secs)-1, "ratio")

	if err := r.ladder(ladderShare * s); err != nil {
		return err
	}
	return r.probes(probeShare * s)
}

// profile measures ops under the CPU profiler and reports each layer's
// share of the samples.
func (r *runner) profile(op func() (float64, outcome), budget float64) (*phase, error) {
	path := filepath.Join(r.o.workDir, fmt.Sprintf("cpu-%d.pprof", os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p, err := r.measure(op, budget, 1)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			err = fmt.Errorf("%w: %s", err, ee.Stderr)
		}
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	samples, err := parseTraces(string(out))
	if err != nil {
		return nil, err
	}
	shares := layerShares(samples)
	for _, l := range layers {
		r.put(l+".self_share", shares[l], "ratio")
	}
	return p, nil
}

// stack is one profile sample: its CPU time and its frames, innermost
// first.
type stack struct {
	value  time.Duration
	frames []string
}

// parseTraces reads the output of `go tool pprof -traces`: a header,
// then blocks separated by dashed lines, each a sample whose first
// frame line carries the sample's value. Frame lines hold the value (or
// blanks) in a 10-column field followed by three spaces and the
// function name; label lines ("name:  value") are skipped.
func parseTraces(text string) ([]stack, error) {
	var out []stack
	var cur *stack
	header := true
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			header, cur = false, nil
			continue
		}
		if header || len(line) < 14 || line[10:13] != "   " {
			continue
		}
		name := strings.TrimSuffix(line[13:], " (inline)")
		if v := strings.TrimSpace(line[:10]); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value %q: %w", v, err)
			}
			out = append(out, stack{value: d})
			cur = &out[len(out)-1]
		}
		if cur == nil {
			return nil, fmt.Errorf("pprof traces: frame %q before any sample value", name)
		}
		cur.frames = append(cur.frames, name)
	}
	return out, sc.Err()
}

// layerOf attributes a sample to the innermost litegpu frame on its
// stack, so runtime and library work a layer causes (allocation,
// sorting) counts as that layer's. The facade and this benchmark count
// as other; a stack with no litegpu frame (the garbage collector's
// background work, the scheduler) counts as runtime.
func layerOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "litegpu/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			switch pkg {
			case "sim", "serve", "trace", "mathx", "kv", "netsim", "obs", "sweep":
				return pkg
			case "inference", "roofline", "model":
				return "inference"
			}
			return "other"
		}
		if strings.HasPrefix(f, "litegpu.") || strings.HasPrefix(f, "main.") {
			return "other"
		}
	}
	return "runtime"
}

// layerShares returns each layer's share of the samples' CPU time.
// Every layer is present; the shares sum to 1 unless there were no
// samples.
func layerShares(samples []stack) map[string]float64 {
	by := map[string]time.Duration{}
	var total time.Duration
	for _, s := range samples {
		by[layerOf(s.frames)] += s.value
		total += s.value
	}
	shares := map[string]float64{}
	for _, l := range layers {
		shares[l] = 0
		if total > 0 {
			shares[l] = float64(by[l]) / float64(total)
		}
	}
	return shares
}

// ladder times the overload_lite scenario with one layer added per
// rung, so each rung's delta is that layer's cost.
func (r *runner) ladder(budget float64) error {
	s, err := newOverloadScenario(r.o.seed, r.o.small)
	if err != nil {
		return err
	}
	rungs := []struct {
		name   string
		layers overloadLayers
	}{
		{"bare", overloadLayers{}},
		{"fabric", overloadLayers{fabric: true}},
		{"kv", overloadLayers{fabric: true, kv: true}},
		{"closed_loop", overloadLayers{fabric: true, kv: true, closedLoop: true}},
		{"observer", allOverloadLayers},
	}
	ms := map[string]float64{}
	for _, g := range rungs {
		var want string
		op := func() (float64, outcome) {
			return r.do(&want, func() (outcome, error) {
				met, _, err := s.run(g.layers)
				if err == nil {
					err = checkMetrics(met)
				}
				return outcome{digest: digest(met)}, err
			})
		}
		p, err := r.measure(op, budget/float64(len(rungs)), ladderMinOps)
		if err != nil {
			return err
		}
		ms[g.name] = median(p.secs) * 1e3
		r.put("ladder."+g.name+"_ms", ms[g.name], "ms/op")
	}
	r.put("ladder.observer_ratio", ms["observer"]/ms["closed_loop"], "ratio")
	return nil
}
