package mathx

import (
	"math"
	"sort"
)

// Summary holds the summary statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
	P50    float64
	P90    float64
	P99    float64
	P999   float64
}

// Summarize computes summary statistics over xs, which it leaves
// untouched. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	n := float64(len(xs))
	s.Mean = sum / n
	variance := sumSq/n - s.Mean*s.Mean
	if variance > 0 {
		s.Stddev = math.Sqrt(variance)
	}
	// Ascending q order: each selection narrows the next one's search.
	qs := newQuantiles(xs)
	s.P50 = qs.quantile(0.50)
	s.P90 = qs.quantile(0.90)
	s.P99 = qs.quantile(0.99)
	s.P999 = qs.quantile(0.999)
	return s
}

// Percentile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks. It selects the ranks it needs in
// a copy of xs, so xs and its order are left untouched.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	qs := newQuantiles(xs)
	return qs.quantile(q)
}

// Mean returns the arithmetic mean of xs, or NaN for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. All values must be positive;
// non-positive inputs yield NaN.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Bisect finds x in [lo, hi] with f(x) ≈ 0, assuming f is monotone and
// f(lo), f(hi) bracket a root. It returns the midpoint after the interval
// shrinks below tol or 200 iterations, whichever comes first. ok is false
// when the initial interval does not bracket a root.
func Bisect(f func(float64) float64, lo, hi, tol float64) (x float64, ok bool) {
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo, true
	}
	if fhi == 0 {
		return hi, true
	}
	if (flo > 0) == (fhi > 0) {
		return 0, false
	}
	for i := 0; i < 200 && hi-lo > tol; i++ {
		mid := lo + (hi-lo)/2
		fm := f(mid)
		if fm == 0 {
			return mid, true
		}
		if (fm > 0) == (flo > 0) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2, true
}

// Clamp returns x limited to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Divisors returns the positive divisors of n in ascending order.
// The tensor-parallel search uses it to enumerate legal TP degrees
// (divisors of the attention-head count).
func Divisors(n int) []int {
	if n <= 0 {
		return nil
	}
	var ds []int
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			ds = append(ds, d)
			if d != n/d {
				ds = append(ds, n/d)
			}
		}
	}
	sort.Ints(ds)
	return ds
}
