// Command litegpu-bench is the benchmark-regression harness: it runs
// the repository benchmark suite (bench_test.go) under `go test -bench`
// with -benchmem and emits a machine-readable JSON report — ns/op,
// B/op, and allocs/op per benchmark — suitable for committing next to
// the code it measures (BENCH_*.json) and for diffing across commits.
//
// Usage:
//
//	go run ./cmd/litegpu-bench [flags]
//
// Examples:
//
//	go run ./cmd/litegpu-bench -out BENCH_4.json
//	go run ./cmd/litegpu-bench -bench 'ServingSim|PlanCapacity' -benchtime 2s
//	go run ./cmd/litegpu-bench -compare BENCH_3.json -out BENCH_4.json
//	go run ./cmd/litegpu-bench -smoke   # CI: one iteration per benchmark
//	go run ./cmd/litegpu-bench -smoke -compare BENCH_5.json -threshold 300 -alloc-ratio 2
//
// With -compare, every benchmark present in the baseline file gains
// old/new ratios (speedup = old ns/op ÷ new ns/op, alloc_ratio = old
// allocs/op ÷ new allocs/op), so a committed report is also the
// regression verdict against the previous PR's numbers. Benchmarks
// absent from the baseline — typically ones added in the current PR —
// are reported as skipped and never fail the run, and a geomean-speedup
// summary over the matched set is printed. With -threshold N, the run
// exits nonzero when any matched benchmark is more than N percent
// slower than its baseline — the CI regression gate. -alloc-ratio R
// gates allocations the same way: the run exits nonzero when a matched
// benchmark allocates more than R times its baseline's allocs/op, plus
// allocSlack. Allocation counts are exact where timings are noisy, but
// they can move between Go versions, so the gate is a ratio bound, not
// equality.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`

	// Baseline is present exactly when -compare found the benchmark in
	// the baseline report — its presence (not any non-zero field) is
	// what distinguishes "compared" from "new benchmark", so zero-alloc
	// baselines and zero-alloc regressions both keep their evidence.
	Baseline *Comparison `json:"baseline,omitempty"`
}

// Comparison carries the baseline numbers and the derived ratios for
// one benchmark.
type Comparison struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Speedup is baseline ns/op ÷ current ns/op (>1 = faster now).
	Speedup float64 `json:"speedup"`
	// AllocRatio is baseline allocs/op ÷ current allocs/op, present
	// only when both sides are non-zero — when either side is zero the
	// raw allocs_per_op fields tell the story a ratio cannot.
	AllocRatio float64 `json:"alloc_ratio,omitempty"`
}

// Report is the harness output.
type Report struct {
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	BenchTime  string   `json:"benchtime"`
	Timestamp  string   `json:"timestamp"`
	Baseline   string   `json:"baseline,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// allocSlack is the allocs/op the -alloc-ratio gate allows beyond its
// ratio. A one-iteration smoke run pays one-time allocations (lazily
// built tables, first-use growth) that a long run amortizes away: a
// baseline of 4 allocs/op can read 9 at one iteration.
const allocSlack = 16

// benchLine matches one `go test -bench -benchmem` result row, e.g.
//
//	BenchmarkServingSim-8   12   95331842 ns/op   51234 B/op   612 allocs/op
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

func main() {
	bench := flag.String("bench", ".", "benchmark regexp passed to go test -bench")
	benchtime := flag.String("benchtime", "", "go test -benchtime (e.g. 1s, 100x); empty = go default")
	pkg := flag.String("pkg", ".", "package to benchmark")
	out := flag.String("out", "", "output JSON path (default stdout)")
	compare := flag.String("compare", "", "baseline JSON report to diff against")
	threshold := flag.Float64("threshold", -1,
		"regression gate: with -compare, exit nonzero when any matched benchmark is more than this many percent slower than its baseline (negative = off)")
	allocRatio := flag.Float64("alloc-ratio", -1,
		"allocation gate: with -compare, exit nonzero when any matched benchmark allocates more than this many times its baseline's allocs/op, plus a small one-time slack (negative = off)")
	smoke := flag.Bool("smoke", false, "CI smoke mode: -benchtime 1x, fail on any build/vet/run error")
	flag.Parse()

	bt := *benchtime
	if *smoke {
		if bt == "" {
			bt = "1x"
		}
		// The smoke contract is "fail on any build/vet/run error":
		// `go test` only builds, so run vet explicitly first.
		vet := exec.Command("go", "vet", *pkg)
		var vetOut bytes.Buffer
		vet.Stdout, vet.Stderr = &vetOut, &vetOut
		fmt.Fprintf(os.Stderr, "litegpu-bench: go vet %s\n", *pkg)
		if err := vet.Run(); err != nil {
			os.Stderr.Write(vetOut.Bytes())
			fatalf("go vet failed: %v", err)
		}
	}

	args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem"}
	if bt != "" {
		args = append(args, "-benchtime", bt)
	}
	args = append(args, *pkg)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	fmt.Fprintf(os.Stderr, "litegpu-bench: go %s\n", strings.Join(args, " "))
	if err := cmd.Run(); err != nil {
		os.Stderr.Write(stderr.Bytes())
		os.Stderr.Write(stdout.Bytes())
		fatalf("go test -bench failed: %v", err)
	}

	results, err := parseBench(stdout.String())
	if err != nil {
		fatalf("%v", err)
	}
	if len(results) == 0 {
		os.Stderr.Write(stdout.Bytes())
		fatalf("no benchmark results matched %q", *bench)
	}

	report := Report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		BenchTime: bt,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	var regressions []string
	if *compare != "" {
		base, err := readReport(*compare)
		if err != nil {
			fatalf("read baseline: %v", err)
		}
		report.Baseline = *compare
		byName := make(map[string]Result, len(base.Benchmarks))
		for _, r := range base.Benchmarks {
			byName[r.Name] = r
		}
		// Benchmarks absent from the baseline (typically added this PR)
		// are reported and skipped, never failed: a new benchmark has no
		// regression to gate on.
		var skipped []string
		logSpeedup := 0.0
		compared := 0
		for i := range results {
			b, ok := byName[results[i].Name]
			if !ok {
				skipped = append(skipped, results[i].Name)
				continue
			}
			c := &Comparison{
				NsPerOp:     b.NsPerOp,
				BytesPerOp:  b.BytesPerOp,
				AllocsPerOp: b.AllocsPerOp,
			}
			if results[i].NsPerOp > 0 {
				c.Speedup = b.NsPerOp / results[i].NsPerOp
				logSpeedup += math.Log(c.Speedup)
				compared++
			}
			if results[i].AllocsPerOp > 0 && b.AllocsPerOp > 0 {
				c.AllocRatio = float64(b.AllocsPerOp) / float64(results[i].AllocsPerOp)
			}
			results[i].Baseline = c
			regressions = append(regressions, gate(results[i], b, *threshold, *allocRatio)...)
		}
		for _, name := range skipped {
			fmt.Fprintf(os.Stderr, "litegpu-bench: skipped (not in baseline): %s\n", name)
		}
		if compared > 0 {
			fmt.Fprintf(os.Stderr, "litegpu-bench: geomean speedup vs %s: %.3fx (%d compared, %d new)\n",
				*compare, math.Exp(logSpeedup/float64(compared)), compared, len(skipped))
		}
	}
	report.Benchmarks = results

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatalf("marshal: %v", err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fatalf("write %s: %v", *out, err)
		}
		fmt.Fprintf(os.Stderr, "litegpu-bench: wrote %d benchmarks to %s\n", len(results), *out)
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "litegpu-bench: REGRESSION %s\n", r)
		}
		fatalf("%d benchmark regression(s) beyond the gates", len(regressions))
	}
}

// gate returns why r regressed against its baseline b: more than
// threshold percent slower, or more than allocRatio times the
// baseline's allocs/op plus allocSlack. A negative bound is off.
func gate(r, b Result, threshold, allocRatio float64) []string {
	var why []string
	if threshold >= 0 && b.NsPerOp > 0 {
		if slow := (r.NsPerOp - b.NsPerOp) / b.NsPerOp * 100; slow > threshold {
			why = append(why, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f ns/op (+%.1f%% > %.1f%%)",
				r.Name, r.NsPerOp, b.NsPerOp, slow, threshold))
		}
	}
	if allocRatio >= 0 {
		if bound := allocRatio*float64(b.AllocsPerOp) + allocSlack; float64(r.AllocsPerOp) > bound {
			why = append(why, fmt.Sprintf("%s: %d allocs/op vs baseline %d allocs/op (> %g× + %d = %.0f)",
				r.Name, r.AllocsPerOp, b.AllocsPerOp, allocRatio, allocSlack, bound))
		}
	}
	return why
}

// parseBench extracts benchmark rows from `go test -bench` output,
// skipping the one-time artifact printouts interleaved with them.
func parseBench(output string) ([]Result, error) {
	var results []Result
	sc := bufio.NewScanner(strings.NewReader(output))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		r := Result{Name: m[1], Procs: 1}
		if m[2] != "" {
			r.Procs, _ = strconv.Atoi(m[2])
		}
		r.Iterations, _ = strconv.ParseInt(m[3], 10, 64)
		var err error
		if r.NsPerOp, err = strconv.ParseFloat(m[4], 64); err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %v", sc.Text(), err)
		}
		if m[5] != "" {
			r.BytesPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		if m[6] != "" {
			r.AllocsPerOp, _ = strconv.ParseInt(m[6], 10, 64)
		}
		results = append(results, r)
	}
	return results, sc.Err()
}

func readReport(path string) (Report, error) {
	var r Report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	return r, json.Unmarshal(data, &r)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "litegpu-bench: "+format+"\n", args...)
	os.Exit(1)
}
