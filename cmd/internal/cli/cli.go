// Package cli is the flag layer litegpu-serve and litegpu-sweep share:
// one parser for the comma-list search axes, the GPU, model and
// workload-name lookups, the numeric flag checks, the table-driven
// "-X requires -Y" check, the telemetry export writer, and the fatal
// exit. Every helper that can fail returns an error; each command
// reports it through the reporters Fatal builds for it.
package cli

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"litegpu"
)

// Count is how many values an axis flag must name.
type Count int

const (
	// Any allows any number of values; an empty list means the
	// caller's default (the sweep's axes).
	Any Count = iota
	// Some requires at least one value (the planner's search axes).
	Some
	// One requires exactly one value and rejects "auto" (a serving run).
	One
)

// Axis parses the comma-separated axis flag -name. Entries are trimmed
// and empty entries dropped. When the caller passes an auto set, an
// "auto" entry expands to it; with a nil set "auto" goes to parse like
// any other entry. A parse error names the flag and the bad entry.
func Axis[T any](name, spec string, count Count, auto []T, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, e := range strings.Split(spec, ",") {
		e = strings.TrimSpace(e)
		switch {
		case e == "":
		case e == "auto" && auto != nil:
			if count == One {
				return nil, fmt.Errorf("-%s auto only applies with -plan; pick one value", name)
			}
			out = append(out, auto...)
		default:
			v, err := parse(e)
			if err != nil {
				return nil, fmt.Errorf("bad -%s entry %q: %w", name, e, err)
			}
			out = append(out, v)
		}
	}
	switch {
	case count == One && len(out) != 1:
		return nil, fmt.Errorf("-%s takes exactly one value without -plan (a list only applies with -plan), got %q", name, spec)
	case count == Some && len(out) == 0:
		return nil, fmt.Errorf("-%s needs at least one value", name)
	}
	return out, nil
}

// GPU looks up a Table 1 GPU by name.
func GPU(name string) (litegpu.GPU, error) {
	g, ok := litegpu.GPUByName(name)
	if !ok {
		return g, fmt.Errorf("unknown GPU %q", name)
	}
	return g, nil
}

// Model looks up a model preset by name.
func Model(name string) (litegpu.Transformer, error) {
	m, ok := litegpu.ModelByName(name)
	if !ok {
		return m, fmt.Errorf("unknown model %q", name)
	}
	return m, nil
}

// Workload maps a workload-shape name to its generator.
func Workload(name string) (litegpu.SweepWorkload, error) {
	w := litegpu.SweepWorkload{Name: name}
	switch name {
	case "coding":
		w.Make = litegpu.CodingWorkload
	case "conversation":
		w.Make = litegpu.ConversationWorkload
	case "agent":
		w.Make = litegpu.AgentWorkload
	default:
		return w, fmt.Errorf("unknown workload %q", name)
	}
	return w, nil
}

// Rate parses a positive arrival rate in req/s.
func Rate(s string) (float64, error) {
	r, err := strconv.ParseFloat(s, 64)
	if err != nil || !(r > 0) {
		return 0, fmt.Errorf("rate %q is not a positive number", s)
	}
	return r, nil
}

// Admission returns the parser of one -admission entry: "none" is the
// zero config (admit everything), a gate takes the given knobs.
func Admission(queueLimit, minPriority, levels int) func(string) (litegpu.ServeAdmissionConfig, error) {
	return func(name string) (litegpu.ServeAdmissionConfig, error) {
		pol, err := litegpu.ParseAdmissionPolicy(name)
		if err != nil || pol == litegpu.AdmitAll {
			return litegpu.ServeAdmissionConfig{}, err
		}
		return litegpu.ServeAdmissionConfig{
			Policy: pol, QueueLimit: queueLimit, MinPriority: minPriority, Levels: levels,
		}, nil
	}
}

// AdmissionAuto is the "auto" set of the -admission axis: no gate, then
// the priority and adaptive gates at queueLimit (64 when unset).
func AdmissionAuto(queueLimit, minPriority, levels int) []litegpu.ServeAdmissionConfig {
	if queueLimit <= 0 {
		queueLimit = 64
	}
	return []litegpu.ServeAdmissionConfig{
		{},
		{Policy: litegpu.AdmitPriority, QueueLimit: queueLimit, MinPriority: minPriority},
		{Policy: litegpu.AdmitAdaptive, QueueLimit: queueLimit, Levels: levels},
	}
}

// CheckNumeric rejects numeric flags that would otherwise silently
// yield an empty report or mean "off": a non-finite or non-positive
// -horizon, and a negative (or NaN) -client-timeout or -straggler-cv.
func CheckNumeric(horizon, clientTimeout, stragglerCV float64) error {
	switch {
	case !(horizon > 0) || math.IsInf(horizon, 1):
		return fmt.Errorf("-horizon must be finite and > 0, got %v", horizon)
	case !(clientTimeout >= 0):
		return fmt.Errorf("-client-timeout must be >= 0, got %v", clientTimeout)
	case !(stragglerCV >= 0):
		return fmt.Errorf("-straggler-cv must be >= 0, got %v", stragglerCV)
	}
	return nil
}

// Require is one row of the dependent-flag table: setting any of Flags
// explicitly is an error unless Met, since the flag would have no
// effect. Need completes the message "-flag requires ...".
type Require struct {
	Need  string
	Met   bool
	Flags []string
}

// CheckRequires rejects the first explicitly set flag (in name order)
// whose row is not met.
func CheckRequires(fs *flag.FlagSet, rows []Require) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		for _, r := range rows {
			if err == nil && !r.Met && slices.Contains(r.Flags, f.Name) {
				err = fmt.Errorf("-%s requires %s", f.Name, r.Need)
			}
		}
	})
	return err
}

// WriteExport writes one telemetry artifact to path. Any filesystem
// error is returned with context: a truncated export is worse than
// none.
func WriteExport(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}

// WriteObserver exports an observer's request timelines to traceOut and
// its probes to probeOut, skipping an empty path. Probes are written as
// JSON when the name ends in .json and as CSV otherwise.
func WriteObserver(o *litegpu.Observer, traceOut, probeOut string) error {
	if traceOut != "" {
		if err := WriteExport(traceOut, o.WriteTrace); err != nil {
			return err
		}
	}
	if probeOut == "" {
		return nil
	}
	write := o.WriteProbesCSV
	if strings.HasSuffix(probeOut, ".json") {
		write = o.WriteProbesJSON
	}
	return WriteExport(probeOut, write)
}

// Fatal returns a command's fatal-error reporters. fatalf runs exit
// (when non-nil; os.Exit skips defers, so this is where a CPU profile
// gets stopped), prints "prefix: message" to stderr and exits with
// status 1; check does the same for a non-nil error.
func Fatal(prefix string, exit func()) (fatalf func(format string, args ...any), check func(error)) {
	fatalf = func(format string, args ...any) {
		if exit != nil {
			exit()
		}
		fmt.Fprintf(os.Stderr, prefix+": "+format+"\n", args...)
		os.Exit(1)
	}
	check = func(err error) {
		if err != nil {
			fatalf("%v", err)
		}
	}
	return fatalf, check
}
