package main

import (
	"flag"
	"os"
	"os/exec"
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

// TestFailureFlagsRequireAFR pins the dependent-flag table: a knob that
// only shapes an axis or mode (the failure knobs under -afr,
// -queue-limit under a gate, -client-retries under -client-timeout,
// -link under a fabric) is rejected, not silently ignored, while it is
// off.
func TestFailureFlagsRequireAFR(t *testing.T) {
	// One small cell, so a run that wrongly succeeds stays short.
	grid := []string{"-gpus", "H100", "-models", "Llama3-8B", "-workloads", "coding", "-rates", "0.5", "-horizon", "30"}
	for _, tc := range []struct {
		flag, need string
		args       []string
	}{
		{"spares", "-afr", []string{"-spares", "2"}},
		{"failure-timescale", "-afr", []string{"-failure-timescale", "1e6"}},
		{"queue-limit", "an -admission gate other than none", []string{"-queue-limit", "48"}},
		{"queue-limit", "an -admission gate other than none", []string{"-admission", "none,none", "-queue-limit", "48"}},
		{"client-retries", "-client-timeout", []string{"-client-retries", "2"}},
		{"link", "a -fabric other than off", []string{"-link", "cpo"}},
		{"link", "a -fabric other than off", []string{"-fabric", "off,off", "-link", "cpo"}},
	} {
		out, err := runMain(t, append(tc.args, grid...)...)
		if want := "-" + tc.flag + " requires " + tc.need; err == nil || !strings.Contains(out, want) {
			t.Errorf("%v: err %v, output %q; want a %q rejection", tc.args, err, out, want)
		}
	}
	out, err := runMain(t, append([]string{"-afr", "0.09", "-spares", "2", "-failure-timescale", "1e6"}, grid...)...)
	if err != nil || !strings.Contains(out, "afr=0.09") {
		t.Errorf("failure flags with -afr: err %v, output %q", err, out)
	}
	out, err = runMain(t, append([]string{"-admission", "none,adaptive", "-queue-limit", "48",
		"-client-timeout", "15", "-client-retries", "2", "-fabric", "off,clos", "-link", "pluggable"}, grid...)...)
	if err != nil || !strings.Contains(out, "clos:pluggable") || !strings.Contains(out, "adaptive") {
		t.Errorf("dependent flags with their axes on: err %v, output %q", err, out)
	}
}

// TestFlagsMatchDocs pins the flag rows of docs/cli.md's litegpu-sweep
// section to the flags the command defines, so the two cannot drift.
func TestFlagsMatchDocs(t *testing.T) {
	out, _ := runMain(t, "-h")
	if got, want := helpFlags(out), docFlags(t, "litegpu-sweep"); !slices.Equal(got, want) {
		t.Errorf("-h flags and docs/cli.md rows differ:\n-h:   %v\ndocs: %v", got, want)
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
