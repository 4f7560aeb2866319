package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// nearestRank returns the p-quantile (0 < p ≤ 1) of xs by the
// nearest-rank method: the smallest sample with at least ⌈p·n⌉ samples
// at or below it. It never interpolates, so every reported percentile
// is a time some op actually took.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	// The epsilon keeps p·n from rounding up past an exact rank
	// (0.9·30 is 27.000000000000004 in floating point).
	r := int(math.Ceil(p*float64(len(s)) - 1e-9))
	return s[max(r, 1)-1]
}

func median(xs []float64) float64 { return nearestRank(xs, 0.5) }

// calibration times a fixed kernel that uses nothing but the standard
// library — sorting 10⁶ pseudo-random floats — between the ops of a
// run. The median of its times over the run, against its time on the
// reference host, is the run's speed factor. The reference host is
// shared: memory-heavy work there slows by up to a quarter for minutes
// at a time, and the kernel slows with it (its 5-second medians track
// overload_lite's with correlation 0.97), so dividing a run's times by
// the factor keeps them comparable from run to run.
type calibration struct {
	n    int // floats sorted per sample
	secs []float64
	last time.Time
}

const (
	// calibrationRefSeconds is the kernel's median time on the
	// reference host (see README.md).
	calibrationRefSeconds = 0.125
	// calibrationEvery spaces the kernel's runs, so it takes about 5%
	// of a run.
	calibrationEvery = 2 * time.Second
)

// sample times the kernel once. The floats are garbage afterwards, so
// the kernel adds nothing to the resident set between samples.
func (c *calibration) sample() {
	xs := make([]float64, c.n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		xs[i] = float64(x>>11) / (1 << 53)
	}
	t := time.Now()
	slices.Sort(xs)
	c.last = time.Now()
	c.secs = append(c.secs, c.last.Sub(t).Seconds())
}

// due reports whether the kernel should run again.
func (c *calibration) due() bool { return time.Since(c.last) >= calibrationEvery }

// factor is how much slower than the reference host this run went.
func (c *calibration) factor() float64 { return median(c.secs) / calibrationRefSeconds }

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// resetPeakRSS restarts the kernel's resident-set high-water mark
// (VmHWM) at the current resident set, so the next peakRSSMiB is the
// peak since this call.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	kb, err := procField("/proc/self/status", "VmHWM:")
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseFloat(strings.TrimSuffix(kb, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("VmHWM %q: %w", kb, err)
	}
	return n / 1024, nil
}

// procField returns the trimmed value after the first line of a /proc
// file that starts with key.
func procField(path, key string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":")), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	return "", fmt.Errorf("%s: no %s line", path, key)
}
