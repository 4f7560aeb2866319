package main

import (
	"flag"
	"os"
	"os/exec"
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
	os.Args = append([]string{"litegpu-sweep"}, flag.Args()...)
	main()
	os.Exit(0)
}

// runMain runs litegpu-sweep with args in a child process and returns
// its combined output and exit error.
func runMain(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestMainHelper$", "--"}, args...)...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestFailureFlagsRequireAFR pins that the failure-axis knobs are
// rejected, not silently ignored, when -afr adds no failure axis.
func TestFailureFlagsRequireAFR(t *testing.T) {
	// One small cell, so a run that wrongly succeeds stays short.
	grid := []string{"-gpus", "H100", "-models", "Llama3-8B", "-workloads", "coding", "-rates", "0.5", "-horizon", "30"}
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"spares", []string{"-spares", "2"}},
		{"failure-timescale", []string{"-failure-timescale", "1e6"}},
	} {
		out, err := runMain(t, append(tc.args, grid...)...)
		if err == nil || !strings.Contains(out, "-"+tc.flag+" requires -afr") {
			t.Errorf("%v: err %v, output %q; want a -%s requires -afr rejection", tc.args, err, out, tc.flag)
		}
	}
	out, err := runMain(t, append([]string{"-afr", "0.09", "-spares", "2", "-failure-timescale", "1e6"}, grid...)...)
	if err != nil || !strings.Contains(out, "afr=0.09") {
		t.Errorf("failure flags with -afr: err %v, output %q", err, out)
	}
}

// TestNumericFlagsRejectBadValues pins that a non-positive or NaN
// -horizon, and a negative -client-timeout or -straggler-cv, are
// rejected instead of printing 0/0 rows or meaning "off".
func TestNumericFlagsRejectBadValues(t *testing.T) {
	// One small cell, so a run that wrongly succeeds stays short.
	grid := []string{"-gpus", "H100", "-models", "Llama3-8B", "-workloads", "coding", "-rates", "0.5"}
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"horizon", []string{"-horizon", "0"}},
		{"horizon", []string{"-horizon", "-5"}},
		{"horizon", []string{"-horizon", "nan"}},
		{"client-timeout", []string{"-horizon", "30", "-client-timeout", "-1"}},
		{"straggler-cv", []string{"-horizon", "30", "-straggler-cv", "-0.2"}},
	} {
		out, err := runMain(t, append(tc.args, grid...)...)
		if err == nil || !strings.Contains(out, "-"+tc.flag+" must be") {
			t.Errorf("%v: err %v, output %q; want a -%s rejection", tc.args, err, out, tc.flag)
		}
	}
}
