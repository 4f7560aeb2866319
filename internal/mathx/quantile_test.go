package mathx

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// referencePercentile is the sort-based reference: the q-quantile read
// off a fully sorted copy of xs, the way Summarize and Percentile
// computed it before they selected ranks.
func referencePercentile(xs []float64, q float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	switch {
	case q <= 0:
		return sorted[0]
	case q >= 1:
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// sortReference returns the reference P50, P90, P99 and P999 of xs.
func sortReference(xs []float64) [4]float64 {
	return [4]float64{
		referencePercentile(xs, 0.50), referencePercentile(xs, 0.90),
		referencePercentile(xs, 0.99), referencePercentile(xs, 0.999),
	}
}

func summaryQuantiles(s Summary) [4]float64 {
	return [4]float64{s.P50, s.P90, s.P99, s.P999}
}

// sameQuantile reports whether a and b have the same bits, treating any
// NaN as matching any NaN. Zeros match regardless of sign: sorting does
// not order -0 against +0 either, so which one lands on a rank is
// unspecified under both methods.
func sameQuantile(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

// medianOfThreeKiller returns n values on which median-of-three Hoare
// partitioning splits off only a few values per round near the median
// rank, so selection runs out of depth and falls back to sorting (for n
// of a few hundred and up). The large values are distinct and sit above
// every small one.
func medianOfThreeKiller(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n + i)
	}
	half := n / 2
	xs[0], xs[n-1] = 0, 1
	for i := 1; i < half; i += 2 {
		xs[i] = float64(i + 1)
	}
	for j := 0; j < half/2; j++ {
		xs[half+j] = float64(2*j + 3)
	}
	return xs
}

// quantileInputs are the sample shapes selection must agree with sorting
// on, each built for a given size.
var quantileInputs = []struct {
	name string
	gen  func(r *RNG, n int) []float64
}{
	{"lognormal", func(r *RNG, n int) []float64 {
		return fill(n, func(int) float64 { return r.LogNormal(0, 1.5) })
	}},
	{"duplicates", func(r *RNG, n int) []float64 {
		return fill(n, func(int) float64 { return float64(r.Intn(5)) })
	}},
	{"ascending", func(_ *RNG, n int) []float64 {
		return fill(n, func(i int) float64 { return float64(i) })
	}},
	{"descending", func(_ *RNG, n int) []float64 {
		return fill(n, func(i int) float64 { return float64(n - i) })
	}},
	{"constant", func(_ *RNG, n int) []float64 {
		return fill(n, func(int) float64 { return 7 })
	}},
	{"killer", func(_ *RNG, n int) []float64 { return medianOfThreeKiller(n) }},
	{"nans", func(r *RNG, n int) []float64 {
		return fill(n, func(int) float64 {
			if r.Intn(10) == 0 {
				return math.NaN()
			}
			return r.LogNormal(0, 1)
		})
	}},
	{"mostly-nans", func(r *RNG, n int) []float64 {
		return fill(n, func(int) float64 {
			if r.Intn(4) != 0 {
				return math.NaN()
			}
			return float64(r.Intn(5))
		})
	}},
}

func fill(n int, f func(i int) float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f(i)
	}
	return xs
}

// quantileSizes covers every size up to well past selectCutoff, where
// selection is a bare insertion sort or a few partition rounds, then
// sizes where partitioning and the depth-limit fallback dominate.
func quantileSizes() []int {
	var ns []int
	for n := 1; n <= 4*selectCutoff; n++ {
		ns = append(ns, n)
	}
	return append(ns, 63, 64, 65, 100, 257, 401, 1000, 1001, 4096, 5003)
}

func TestSummarizeMatchesSortReference(t *testing.T) {
	r := NewRNG(7)
	for _, in := range quantileInputs {
		for _, n := range quantileSizes() {
			xs := in.gen(r, n)
			got, want := summaryQuantiles(Summarize(xs)), sortReference(xs)
			for i, q := range []string{"P50", "P90", "P99", "P999"} {
				if !sameQuantile(got[i], want[i]) {
					t.Errorf("%s n=%d: %s = %x, sort reference %x", in.name, n, q, got[i], want[i])
				}
			}
			for _, q := range []float64{-1, 0, 0.25, 0.5, 0.75, 0.999, 1, 2} {
				got, want := Percentile(xs, q), referencePercentile(xs, q)
				if !sameQuantile(got, want) {
					t.Errorf("%s n=%d: Percentile(%v) = %x, sort reference %x", in.name, n, q, got, want)
				}
			}
		}
	}
}

// The killer input must actually reach the depth-limit fallback, or the
// reference comparison above never exercises it; a random input must
// not, or the limit is too tight.
func TestSelectRankDepthLimit(t *testing.T) {
	for _, n := range []int{401, 1000, 4096, 100_001} {
		if !selectRank(medianOfThreeKiller(n), (n-1)/2) {
			t.Errorf("n=%d: median-of-three killer did not reach the depth limit", n)
		}
		xs := quantileInputs[0].gen(NewRNG(uint64(n)), n)
		if selectRank(xs, (n-1)/2) {
			t.Errorf("n=%d: lognormal input reached the depth limit", n)
		}
	}
}

// Summarize must leave its input's order alone: a caller that sums the
// slice after summarizing it would otherwise get a different
// floating-point sum. Summarizing in place is SummarizeSamples' job.
func TestSummarizeDoesNotMutate(t *testing.T) {
	r := NewRNG(11)
	for _, in := range quantileInputs {
		xs := in.gen(r, 4096)
		before := append([]float64(nil), xs...)
		Summarize(xs)
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(before[i]) {
				t.Fatalf("%s: Summarize changed xs[%d] from %x to %x", in.name, i, before[i], xs[i])
			}
		}
	}
}

func encodeFloats(xs ...float64) []byte {
	b := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// FuzzSummarize checks Summarize's percentiles against the sort
// reference on arbitrary float64 samples (every 8 input bytes are one
// value, so NaNs, infinities and signed zeros all occur), and that the
// input comes back unchanged.
func FuzzSummarize(f *testing.F) {
	f.Add(encodeFloats())
	f.Add(encodeFloats(3, 1, 2))
	f.Add(encodeFloats(math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1))
	f.Add(encodeFloats(medianOfThreeKiller(401)...))
	f.Add(encodeFloats(fill(40, func(i int) float64 { return float64(i % 3) })...))
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := make([]float64, len(data)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		before := append([]float64(nil), xs...)
		s := Summarize(xs)
		if s.N != len(xs) {
			t.Fatalf("N = %d, want %d", s.N, len(xs))
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(before[i]) {
				t.Fatalf("Summarize changed xs[%d] from %x to %x", i, before[i], xs[i])
			}
		}
		if len(xs) == 0 {
			return
		}
		got, want := summaryQuantiles(s), sortReference(xs)
		for i := range got {
			if !sameQuantile(got[i], want[i]) {
				t.Fatalf("quantile %d = %x, sort reference %x (input %v)", i, got[i], want[i], xs)
			}
		}
	})
}
