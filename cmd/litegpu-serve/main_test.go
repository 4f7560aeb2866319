package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMainHelper runs main with the arguments after "--" when runMain
// re-executes the test binary; in an ordinary test run there are none
// and it returns at once.
func TestMainHelper(t *testing.T) {
	if flag.NArg() == 0 {
		return
	}
	os.Args = append([]string{"litegpu-serve"}, flag.Args()...)
	main()
	os.Exit(0)
}

// runMain runs litegpu-serve with args in a child process and returns
// its combined output and exit error.
func runMain(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestMainHelper$", "--"}, args...)...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestFailureFlagsRequireAFR pins the dependent-flag table: a knob that
// only shapes a feature (the failure knobs under -afr, the KV block
// knobs under -kv, the client knobs under -client-timeout, the serving
// knobs outside -plan, and so on) is rejected, not silently ignored,
// while that feature is off.
func TestFailureFlagsRequireAFR(t *testing.T) {
	for _, tc := range []struct {
		flag, need string
		args       []string
	}{
		{"spares", "-afr", []string{"-spares", "2"}},
		{"failure-timescale", "-afr", []string{"-failure-timescale", "1e6"}},
		{"drop-on-failure", "-afr", []string{"-drop-on-failure"}},
		{"failure-timescale", "-afr", []string{"-plan", "-failure-timescale", "1e6"}},
		{"kv-blocks", "a -kv policy other than off", []string{"-kv-blocks", "600"}},
		{"kv-block-tokens", "a -kv policy other than off", []string{"-kv", "off", "-kv-block-tokens", "32"}},
		{"kv-blocks", "a -kv policy other than off", []string{"-plan", "-kv", "off,off", "-kv-blocks", "600"}},
		{"client-retries", "-client-timeout", []string{"-client-retries", "2"}},
		{"client-backoff", "-client-timeout", []string{"-client-backoff", "2"}},
		{"client-backoff-cap", "-client-timeout", []string{"-client-backoff-cap", "10"}},
		{"client-jitter", "-client-timeout", []string{"-client-jitter", "0.5"}},
		{"ttft-slo", "-client-timeout", []string{"-ttft-slo", "2"}},
		{"autoscale-high", "-autoscale", []string{"-autoscale-high", "4"}},
		{"autoscale-low", "-autoscale", []string{"-autoscale-low", "0.5"}},
		{"autoscale-min", "-autoscale", []string{"-autoscale-min", "2"}},
		{"autoscale-warmup", "-autoscale", []string{"-autoscale-warmup", "10"}},
		{"straggler-tail", "-straggler-cv", []string{"-straggler-tail", "lognormal"}},
		{"trace-samples", "-trace-out", []string{"-trace-samples", "16"}},
		{"link", "a -fabric other than off", []string{"-link", "cpo"}},
		{"fabric-latency-scale", "a -fabric other than off", []string{"-fabric", "off", "-fabric-latency-scale", "10"}},
		{"link", "a -fabric other than off", []string{"-plan", "-fabric", "off", "-link", "cpo"}},
		{"spares", "a run without -plan", []string{"-plan", "-afr", "0.09", "-spares", "2"}},
		{"router", "a run without -plan", []string{"-plan", "-router", "jsq"}},
		{"progress", "a run without -plan", []string{"-plan", "-progress"}},
		{"explain", "-plan", []string{"-explain"}},
	} {
		out, err := runMain(t, tc.args...)
		if want := "-" + tc.flag + " requires " + tc.need; err == nil || !strings.Contains(out, want) {
			t.Errorf("%v: err %v, output %q; want a %q rejection", tc.args, err, out, want)
		}
	}
	out, err := runMain(t, "-afr", "0.09", "-spares", "2", "-failure-timescale", "1e6", "-drop-on-failure", "-horizon", "30")
	if err != nil || !strings.Contains(out, "failure injection: AFR 0.09") {
		t.Errorf("failure flags with -afr: err %v, output %q", err, out)
	}
	out, err = runMain(t, "-horizon", "30",
		"-kv", "recompute", "-kv-blocks", "600", "-kv-block-tokens", "32",
		"-fabric", "clos", "-link", "pluggable", "-fabric-latency-scale", "2",
		"-client-timeout", "15", "-client-retries", "2", "-client-backoff", "1", "-client-backoff-cap", "10",
		"-client-jitter", "0.5", "-ttft-slo", "2",
		"-autoscale", "-autoscale-high", "8", "-autoscale-low", "1", "-autoscale-min", "1", "-autoscale-warmup", "30",
		"-straggler-cv", "0.1", "-straggler-tail", "lognormal",
		"-trace-out", filepath.Join(t.TempDir(), "trace.json"), "-trace-samples", "16")
	if err != nil || !strings.Contains(out, "kv memory: recompute policy, 32-token blocks") {
		t.Errorf("dependent flags with their features on: err %v, output %q", err, out)
	}
}

// TestAxisFlagsTakeOneValueWithoutPlan pins that a serving run takes
// exactly one value per search axis, while plan mode takes a list on
// every axis.
func TestAxisFlagsTakeOneValueWithoutPlan(t *testing.T) {
	for _, args := range [][]string{
		{"-scheduler", "static,continuous"},
		{"-scheduler", "auto"},
		{"-fabric", "clos,flat-circuit:cpo:circuit"},
		{"-kv", "auto"},
		{"-admission", "none,adaptive", "-queue-limit", "48"},
		{"-admission", ""},
	} {
		if out, err := runMain(t, append(args, "-horizon", "30")...); err == nil || !strings.Contains(out, args[1]) {
			t.Errorf("%v: err %v, output %q; want a rejection naming the value", args, err, out)
		}
	}
	out, err := runMain(t, "-plan", "-gpu", "Lite", "-model", "Llama3-8B", "-rate", "4", "-horizon", "30",
		"-scheduler", "static, continuous", "-admission", "none,adaptive", "-queue-limit", "64", "-explain")
	if err != nil || !strings.Contains(out, "candidate continuous") || !strings.Contains(out, "adaptive") {
		t.Errorf("plan with scheduler and admission lists: err %v, output %q", err, out)
	}
}

// TestFlagsMatchDocs pins the flag rows of docs/cli.md's litegpu-serve
// section to the flags the command defines, so the two cannot drift.
func TestFlagsMatchDocs(t *testing.T) {
	out, _ := runMain(t, "-h")
	if got, want := helpFlags(out), docFlags(t, "litegpu-serve"); !slices.Equal(got, want) {
		t.Errorf("-h flags and docs/cli.md rows differ:\n-h:   %v\ndocs: %v", got, want)
	}
}

// TestNumericFlagsRejectBadValues pins that a non-positive or NaN
// -horizon, and a negative -client-timeout or -straggler-cv, are
// rejected instead of printing an all-zero report or meaning "off".
func TestNumericFlagsRejectBadValues(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"horizon", []string{"-horizon", "0"}},
		{"horizon", []string{"-horizon", "-5"}},
		{"horizon", []string{"-horizon", "nan"}},
		{"horizon", []string{"-plan", "-horizon", "0"}},
		{"client-timeout", []string{"-client-timeout", "-1"}},
		{"straggler-cv", []string{"-straggler-cv", "-0.2"}},
	} {
		out, err := runMain(t, tc.args...)
		if err == nil || !strings.Contains(out, "-"+tc.flag+" must be") {
			t.Errorf("%v: err %v, output %q; want a -%s rejection", tc.args, err, out, tc.flag)
		}
	}
}

// helpFlags returns the sorted flag names in -h output, leaving out the
// test binary's own flags.
func helpFlags(help string) []string {
	var names []string
	for _, m := range regexp.MustCompile(`(?m)^  -([\w.-]+)`).FindAllStringSubmatch(help, -1) {
		if !strings.HasPrefix(m[1], "test.") {
			names = append(names, m[1])
		}
	}
	slices.Sort(names)
	return names
}

// docFlags returns the sorted flag names of the flag-table rows in the
// "## cmd" section of docs/cli.md.
func docFlags(t *testing.T, cmd string) []string {
	t.Helper()
	doc, err := os.ReadFile("../../docs/cli.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## "+cmd+"\n")
	if !ok {
		t.Fatalf("docs/cli.md has no %q section", cmd)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var names []string
	for _, m := range regexp.MustCompile("(?m)^\\| `-([\\w-]+)").FindAllStringSubmatch(section, -1) {
		names = append(names, m[1])
	}
	slices.Sort(names)
	return names
}
