package mathx

import (
	"math"
	"math/bits"
	"sort"
)

// quantiles answers quantile queries on a sample it owns by
// exact order-statistic selection instead of a full sort. The value at a
// rank is the value sort.Float64s would leave at that index (NaNs first,
// then ascending), so every quantile equals the one read from a sorted
// copy; only the sign of a zero among equal ±0 values is unspecified, as
// it is under sorting.
//
// Queries must come in non-decreasing q order: each selection leaves the
// smaller values in front of its rank, and the next one searches only
// the suffix from that rank on.
type quantiles struct {
	buf  []float64
	from int // buf[:from] holds the from smallest values, buf[from:] the rest
}

// newQuantiles takes buf over, reordering it from here on, and moves
// the NaNs to the front, where sorting puts them.
func newQuantiles(buf []float64) quantiles {
	nans := 0
	for i, x := range buf {
		if math.IsNaN(x) {
			buf[i], buf[nans] = buf[nans], x
			nans++
		}
	}
	return quantiles{buf: buf, from: nans}
}

// quantile returns the q-quantile using linear interpolation between the
// closest ranks.
func (s *quantiles) quantile(q float64) float64 {
	last := len(s.buf) - 1
	if q <= 0 {
		return s.rank(0)
	}
	if q >= 1 {
		return s.rank(last)
	}
	pos := q * float64(last)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.rank(lo)
	}
	below := s.rank(lo)
	frac := pos - float64(lo)
	return below*(1-frac) + s.above(lo)*frac
}

// rank returns the value at rank k and puts it in place, with every
// smaller rank in front of it.
func (s *quantiles) rank(k int) float64 {
	if k >= s.from {
		selectRank(s.buf[s.from:], k-s.from)
		s.from = k
	}
	return s.buf[k]
}

// above returns the value at rank k+1 once rank(k) has run: the smallest
// value behind rank k.
func (s *quantiles) above(k int) float64 {
	if k+1 < s.from {
		return s.buf[k+1] // still inside the NaN prefix
	}
	m := s.buf[k+1]
	for _, x := range s.buf[k+2:] {
		if x < m {
			m = x
		}
	}
	return m
}

// selectCutoff is the range length at or below which selectRank finishes
// with an insertion sort.
const selectCutoff = 12

// selectRank reorders a, which holds no NaN, so that a[k] is the value a
// sorted a holds there, with every value in front of it ≤ a[k] and every
// value behind it ≥ a[k]. It is an introselect: median-of-three Hoare
// partitioning that sorts the remaining range once 2·⌈log2(len(a)+1)⌉
// rounds have not narrowed it to selectCutoff, so the worst case stays
// O(n log n). It reports whether that fallback sort ran.
func selectRank(a []float64, k int) (fellBack bool) {
	lo, hi := 0, len(a)
	for depth := 2 * bits.Len(uint(len(a))); hi-lo > selectCutoff; depth-- {
		if depth == 0 {
			sort.Float64s(a[lo:hi])
			return true
		}
		j := lo + partition(a[lo:hi])
		if k <= j {
			hi = j + 1
		} else {
			lo = j + 1
		}
	}
	insertionSort(a[lo:hi])
	return false
}

// partition splits a (at least three values, no NaN) around the median
// of its first, middle and last values, and returns j such that every
// value in a[:j+1] is ≤ that pivot and every value in a[j+1:] is ≥ it.
// Both sides are non-empty.
func partition(a []float64) int {
	m, last := len(a)/2, len(a)-1
	if a[m] < a[0] {
		a[0], a[m] = a[m], a[0]
	}
	if a[last] < a[0] {
		a[0], a[last] = a[last], a[0]
	}
	if a[last] < a[m] {
		a[m], a[last] = a[last], a[m]
	}
	// Now a[0] ≤ a[m] ≤ a[last]. Hoare's scheme with the pivot at a[0]
	// never returns the last index, so neither side comes back empty.
	a[0], a[m] = a[m], a[0]
	p := a[0]
	i, j := -1, len(a)
	for {
		for i++; a[i] < p; i++ {
		}
		for j--; p < a[j]; j-- {
		}
		if i >= j {
			return j
		}
		a[i], a[j] = a[j], a[i]
	}
}

func insertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
