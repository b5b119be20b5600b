// Package stats implements the descriptive statistics used throughout the
// study: empirical CDFs, quantiles, histograms, and time-binned aggregates.
// Every figure in the paper is one of these shapes — CDFs (Figs. 3, 4, 7,
// 10, 11), means with deviations (Figs. 8, 9, 13), scatter joins (Figs. 5,
// 15), and ranked shares (Figs. 17–19).
package stats

import (
	"cmp"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"sort"
)

// Summary holds the standard moments of a sample.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary of xs. An empty sample returns a zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Stddev = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// Moments accumulates an integer sample as exact sums: its size, Σx,
// Σx², least and greatest. Sums add in any order to the same values, so
// moments folded in parts and merged summarize exactly what one pass
// would.
type Moments struct {
	N, Sum, SumSq, Min, Max int64
}

// Add records x.
func (m *Moments) Add(x int64) {
	if m.N == 0 || x < m.Min {
		m.Min = x
	}
	if m.N == 0 || x > m.Max {
		m.Max = x
	}
	m.N++
	m.Sum += x
	m.SumSq += x * x
}

// Merge adds o's sample to m's.
func (m *Moments) Merge(o Moments) {
	if o.N == 0 {
		return
	}
	if m.N == 0 || o.Min < m.Min {
		m.Min = o.Min
	}
	if m.N == 0 || o.Max > m.Max {
		m.Max = o.Max
	}
	m.N += o.N
	m.Sum += o.Sum
	m.SumSq += o.SumSq
}

// Summary summarizes the sample as Summarize does. The mean is Σx / N;
// the sample variance is (N·Σx² − (Σx)²) / (N(N−1)), its numerator
// computed exactly and rounded once, so the result does not depend on
// the order the values were added in. It agrees with Summarize's
// two-pass float sum to within that sum's rounding.
func (m Moments) Summary() Summary {
	if m.N == 0 {
		return Summary{}
	}
	s := Summary{N: int(m.N), Mean: float64(m.Sum) / float64(m.N), Min: float64(m.Min), Max: float64(m.Max)}
	if m.N > 1 {
		num := new(big.Int).Mul(big.NewInt(m.N), big.NewInt(m.SumSq))
		num.Sub(num, new(big.Int).Mul(big.NewInt(m.Sum), big.NewInt(m.Sum)))
		v, _ := new(big.Float).SetInt(num).Float64()
		s.Stddev = math.Sqrt(v / (float64(m.N) * float64(m.N-1)))
	}
	return s
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics (type-7, the default of R and
// NumPy). It panics on an empty sample or q outside [0, 1].
//
// Only the two order statistics around q are needed, so a copy of xs is
// partially ordered by selection (expected linear time) rather than
// sorted. The order is sort.Float64s's — NaNs first — so the result is
// the one a full sort gives.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	if len(xs) == 1 {
		return xs[0]
	}
	a := append([]float64(nil), xs...)
	h := q * float64(len(a)-1)
	lo := int(math.Floor(h))
	selectNth(a, lo, 2*bits.Len(uint(len(a))))
	if lo+1 >= len(a) {
		return a[lo]
	}
	// Everything after lo is ordered no earlier than a[lo]; the next
	// order statistic is the least of it.
	hi := a[lo+1]
	for _, x := range a[lo+2:] {
		if cmp.Less(x, hi) {
			hi = x
		}
	}
	frac := h - float64(lo)
	return a[lo]*(1-frac) + hi*frac
}

// selectNth reorders a so that a[k] holds the value a full sort would put
// there, nothing before it ordered after it and nothing after it ordered
// before it. It is an introselect: quickselect with a median-of-three
// pivot that, after budget partitions, sorts what is left instead, so
// no input costs more than a sort.
func selectNth(a []float64, k, budget int) {
	lo, hi := 0, len(a) // a[lo:hi] holds position k
	for hi-lo > 16 {
		if budget == 0 {
			slices.Sort(a[lo:hi])
			return
		}
		budget--
		p := lo + partition(a[lo:hi])
		switch {
		case k < p:
			hi = p
		case k > p:
			lo = p + 1
		default:
			return
		}
	}
	// Insertion sort of the last few.
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && cmp.Less(a[j], a[j-1]); j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// partition splits a (len ≥ 3) around the median of its first, middle and
// last values and returns the pivot's final index p: a[:p] ≤ a[p] ≤
// a[p+1:]. Equal values stop both scans, so a run of duplicates splits
// down the middle instead of to one side.
func partition(a []float64) int {
	n, m := len(a), len(a)/2
	if cmp.Less(a[m], a[0]) {
		a[m], a[0] = a[0], a[m]
	}
	if cmp.Less(a[n-1], a[m]) {
		a[n-1], a[m] = a[m], a[n-1]
		if cmp.Less(a[m], a[0]) {
			a[m], a[0] = a[0], a[m]
		}
	}
	// Pivot to the front; a[0] (the pivot) and a[n-1] (≥ it) bound both
	// scans, so neither needs an index check.
	a[0], a[m] = a[m], a[0]
	p := a[0]
	i, j := 0, n
	for {
		for i++; cmp.Less(a[i], p); i++ {
		}
		for j--; cmp.Less(p, a[j]); j-- {
		}
		if i >= j {
			break
		}
		a[i], a[j] = a[j], a[i]
	}
	a[0], a[j] = a[j], a[0]
	return j
}

// sortCutoff is the sample size below which SortFloats compares
// instead: every radix pass costs a 256-counter prefix sum whatever the
// sample's size, and a comparison sort is still the faster one up to
// about 800 values (BenchmarkSortFloats on a 2-vCPU Xeon, go1.24).
const sortCutoff = 1024

// SortFloats sorts a into sort.Float64s's order (NaNs first, then
// ascending) in linear time: an LSD radix sort, one byte a pass, over
// uint64 keys that order as the values do. A pass whose byte is the
// same in every key would move nothing and is skipped. Below sortCutoff
// values it is slices.Sort. Values that compare equal in that order (-0
// and +0, or any two NaNs) may come out in either order, as with
// sort.Float64s.
func SortFloats(a []float64) {
	n := len(a)
	if n < sortCutoff {
		slices.Sort(a)
		return
	}
	buf := make([]uint64, 2*n)
	src, dst := buf[:n], buf[n:]
	var count [8][256]int
	for i, x := range a {
		k := floatKey(x)
		src[i] = k
		count[0][byte(k)]++
		count[1][byte(k>>8)]++
		count[2][byte(k>>16)]++
		count[3][byte(k>>24)]++
		count[4][byte(k>>32)]++
		count[5][byte(k>>40)]++
		count[6][byte(k>>48)]++
		count[7][byte(k>>56)]++
	}
	for d := range count {
		c := &count[d]
		shift := 8 * d
		if c[byte(src[0]>>shift)] == n {
			continue
		}
		off := 0
		for b, m := range c {
			c[b] = off
			off += m
		}
		for _, k := range src {
			b := byte(k >> shift)
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	// The keys order NaNs with the sign bit set before -Inf and the rest
	// after +Inf; those come back first, ahead of the others.
	nan := n
	for nan > 0 && src[nan-1] > floatKey(math.Inf(1)) {
		nan--
	}
	for i, k := range src[nan:] {
		a[i] = floatOfKey(k)
	}
	for i, k := range src[:nan] {
		a[n-nan+i] = floatOfKey(k)
	}
}

// floatKey maps x's bits to a key that orders as IEEE 754's total order
// does: a negative value's bits flipped, a positive one's sign bit set.
func floatKey(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// floatOfKey inverts floatKey.
func floatOfKey(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}

// QuantileRuns is Quantile over the concatenation of runs, each already
// in sort.Float64s's order (NaNs first), without concatenating or
// copying them: the two order statistics are selected across the runs
// by binary search. The result is Quantile's to the bit for any split of
// a sample into runs, empty ones included — up to the sign of a zero
// where both -0 and +0 occur, which Quantile leaves unspecified too. It
// panics as Quantile does.
func QuantileRuns(q float64, runs ...[]float64) float64 {
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	if n == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	a := nthOfRuns(lo, runs)
	if lo+1 >= n {
		return a
	}
	frac := h - float64(lo)
	return a*(1-frac) + nthOfRuns(lo+1, runs)*frac
}

// nthOfRuns returns the value at position k of the sorted concatenation
// of the sorted runs. Each round takes the middle of the widest window
// as pivot and, by binary search in every window, keeps only the values
// ordered before it or only those after it — at least half of the widest
// window goes — until k is the pivot's or one window is left.
func nthOfRuns(k int, runs [][]float64) float64 {
	var loBuf, hiBuf, ltBuf, leBuf [8]int
	lo, hi := loBuf[:0], hiBuf[:0]
	for _, r := range runs {
		lo, hi = append(lo, 0), append(hi, len(r))
	}
	lt, le := append(ltBuf[:0], lo...), append(leBuf[:0], lo...)
	for {
		wide, open := 0, 0
		for i := range runs {
			if hi[i] > lo[i] {
				open++
				if hi[i]-lo[i] > hi[wide]-lo[wide] {
					wide = i
				}
			}
		}
		if open == 1 {
			return runs[wide][lo[wide]+k]
		}
		p := runs[wide][(lo[wide]+hi[wide])/2]
		less, upTo := 0, 0
		for i, r := range runs {
			lt[i] = searchRun(r, lo[i], hi[i], func(x float64) bool { return !cmp.Less(x, p) })
			le[i] = searchRun(r, lt[i], hi[i], func(x float64) bool { return cmp.Less(p, x) })
			less += lt[i] - lo[i]
			upTo += le[i] - lo[i]
		}
		switch {
		case k < less:
			copy(hi, lt)
		case k < upTo:
			return p
		default:
			k -= upTo
			copy(lo, le)
		}
	}
}

// searchRun returns the first i in [lo, hi) with after(r[i]), hi if none;
// after must be false up to some point of r[lo:hi] and true past it.
func searchRun(r []float64, lo, hi int, after func(float64) bool) int {
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if after(r[m]) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// Median returns the 0.5-quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Percentile returns the p-th percentile (p in [0, 100]).
func Percentile(xs []float64, p float64) float64 { return Quantile(xs, p/100) }

// Histogram bins xs into nbins equal-width bins over [min, max]. Values
// outside the range clamp to the edge bins. It returns the bin counts and
// the bin width.
func Histogram(xs []float64, min, max float64, nbins int) ([]int, float64) {
	if nbins <= 0 || max <= min {
		return nil, 0
	}
	counts := make([]int, nbins)
	width := (max - min) / float64(nbins)
	for _, x := range xs {
		i := int((x - min) / width)
		if i < 0 {
			i = 0
		}
		if i >= nbins {
			i = nbins - 1
		}
		counts[i]++
	}
	return counts, width
}

// Share converts a set of non-negative quantities into fractions of their
// total, sorted descending. This is the shape of Figs. 17 and 19 (per-device
// and per-domain traffic shares). A zero total yields nil.
func Share(xs []float64) []float64 {
	total := 0.0
	for _, x := range xs {
		if x > 0 {
			total += x
		}
	}
	if total == 0 {
		return nil
	}
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if x < 0 {
			x = 0
		}
		out = append(out, x/total)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

// HourBins aggregates (hourOfDay, value) observations into 24 per-hour
// means. Hours with no observations report NaN-free zero means with a zero
// count, so callers can distinguish "no data" from "zero".
type HourBins struct {
	Sum   [24]float64
	Count [24]int
}

// Add records one observation for the given hour of day.
func (h *HourBins) Add(hour int, v float64) {
	if hour < 0 || hour > 23 {
		panic(fmt.Sprintf("stats: hour %d out of range", hour))
	}
	h.Sum[hour] += v
	h.Count[hour]++
}

// Means returns the 24 per-hour means (0 where no observations exist).
func (h *HourBins) Means() [24]float64 {
	var out [24]float64
	for i := 0; i < 24; i++ {
		if h.Count[i] > 0 {
			out[i] = h.Sum[i] / float64(h.Count[i])
		}
	}
	return out
}

// PeakToTroughRatio returns max/min of the per-hour means over hours with
// data; it quantifies how diurnal a series is (Fig. 13's weekday vs weekend
// contrast). Returns 1 if fewer than two hours have data or min is zero.
func (h *HourBins) PeakToTroughRatio() float64 {
	means := h.Means()
	min, max := math.Inf(1), math.Inf(-1)
	n := 0
	for i := 0; i < 24; i++ {
		if h.Count[i] == 0 {
			continue
		}
		n++
		if means[i] < min {
			min = means[i]
		}
		if means[i] > max {
			max = means[i]
		}
	}
	if n < 2 || min <= 0 {
		return 1
	}
	return max / min
}

// Gini computes the Gini coefficient of a non-negative sample — 0 for
// perfectly even, →1 for fully concentrated. Used to characterize how
// concentrated per-device and per-domain usage is beyond the paper's
// top-share numbers.
func Gini(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var cum, total float64
	for i, x := range sorted {
		if x < 0 {
			x = 0
		}
		cum += x * float64(i+1)
		total += x
	}
	if total == 0 {
		return 0
	}
	return (2*cum)/(float64(n)*total) - (float64(n)+1)/float64(n)
}
