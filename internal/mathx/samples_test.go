package mathx

import (
	"math"
	"testing"
)

// chunkEnds returns the sample counts at which each of the first k
// chunks is full: the first holds 64 values, each later one twice its
// predecessor, up to 8192.
func chunkEnds(k int) []int {
	var ends []int
	end, size := 0, 64
	for i := 0; i < k; i++ {
		end += size
		ends = append(ends, end)
		size = min(2*size, 8192)
	}
	return ends
}

// sampleSizes covers 0 and 1 sample, one below, at and above every
// chunk boundary through three full-size chunks, and several full-size
// chunks with a partial one behind them.
func sampleSizes() []int {
	ns := []int{0, 1}
	for _, end := range chunkEnds(smallChunks + 3) {
		ns = append(ns, end-1, end, end+1)
	}
	ends := chunkEnds(smallChunks + 6)
	return append(ns, ends[len(ends)-1]+777)
}

// sampleValue is the i-th test value: lognormal latencies with NaN,
// ±0 and ±Inf mixed in.
func sampleValue(r *RNG, i int) float64 {
	switch {
	case i%97 == 5:
		return math.NaN()
	case i%89 == 3:
		return math.Copysign(0, -1)
	case i%83 == 7:
		return 0
	case i%1009 == 11:
		return math.Inf(1)
	case i%1013 == 13:
		return math.Inf(-1)
	}
	return r.LogNormal(0, 1)
}

func sameSummary(a, b Summary) bool {
	fa := []float64{float64(a.N), a.Mean, a.Stddev, a.Min, a.Max, a.P50, a.P90, a.P99, a.P999}
	fb := []float64{float64(b.N), b.Mean, b.Stddev, b.Min, b.Max, b.P50, b.P90, b.P99, b.P999}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return true
}

// TestSamplesMatchFlatSlice fills a Samples and a plain slice with the
// same values: the chunks hold them in order, Sum adds them in arrival
// order, and the summary equals Summarize of the slice bit for bit.
func TestSamplesMatchFlatSlice(t *testing.T) {
	r := NewRNG(3)
	for _, n := range sampleSizes() {
		var s Samples
		flat := make([]float64, n)
		var sum float64
		for i := range flat {
			flat[i] = sampleValue(r, i)
			s.Append(flat[i])
			sum += flat[i]
		}
		if s.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, s.Len())
		}
		var got []float64
		s.each(func(c []float64) { got = append(got, c...) })
		if len(got) != n {
			t.Fatalf("n=%d: the chunks hold %d values", n, len(got))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(flat[i]) {
				t.Fatalf("n=%d: value %d is %x, appended %x", n, i, got[i], flat[i])
			}
		}
		if got, want := s.Sum(), sum; math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("n=%d: Sum = %x, in-order sum %x", n, got, want)
		}
		if got, want := SummarizeSamples(nil, &s), Summarize(flat); !sameSummary(got, want) {
			t.Errorf("n=%d: SummarizeSamples = %+v, Summarize = %+v", n, got, want)
		}
	}
}

// TestSummarizeSamplesUnion summarizes several Samples as one: the
// result is Summarize of their concatenation in part order, and a
// scratch array with room for the union makes it allocation-free.
func TestSummarizeSamplesUnion(t *testing.T) {
	r := NewRNG(5)
	var parts [3]Samples
	var flat []float64
	for p, n := range []int{5000, 0, 9000} {
		for i := 0; i < n; i++ {
			x := sampleValue(r, i)
			parts[p].Append(x)
			flat = append(flat, x)
		}
	}
	scratch := make([]float64, 0, len(flat))
	if got, want := SummarizeSamples(scratch, &parts[0], &parts[1], &parts[2]), Summarize(flat); !sameSummary(got, want) {
		t.Errorf("union summary %+v, Summarize of the concatenation %+v", got, want)
	}
	allocs := testing.AllocsPerRun(5, func() {
		SummarizeSamples(scratch, &parts[0], &parts[1], &parts[2])
	})
	if allocs != 0 {
		t.Errorf("SummarizeSamples with room in scratch made %.0f allocations, want 0", allocs)
	}
}

// TestSamplesAllocateOncePerChunk pins the growth policy: filling n
// samples allocates exactly one object per chunk, so nothing is ever
// re-copied.
func TestSamplesAllocateOncePerChunk(t *testing.T) {
	for _, n := range sampleSizes() {
		chunks, start := 0, 0 // the chunks that n samples reach into
		for _, end := range chunkEnds(n/64 + 1) {
			if start >= n {
				break
			}
			chunks, start = chunks+1, end
		}
		allocs := testing.AllocsPerRun(3, func() {
			var s Samples
			for i := 0; i < n; i++ {
				s.Append(1)
			}
		})
		if int(allocs) != chunks {
			t.Errorf("n=%d: filling allocated %.0f times, want one per chunk (%d)", n, allocs, chunks)
		}
	}
}
