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

// Median returns the 0.5-quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Percentile returns the p-th percentile (p in [0, 100]).
func Percentile(xs []float64, p float64) float64 { return Quantile(xs, p/100) }

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	X float64 // sample value
	P float64 // fraction of samples ≤ X
}

// CDF computes the empirical CDF of xs: one point per distinct value, with
// P the fraction of samples ≤ X. The result is sorted by X and ends at
// P = 1. An empty sample yields nil.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var out []CDFPoint
	n := float64(len(sorted))
	for i := 0; i < len(sorted); i++ {
		// Collapse runs of equal values to the run's last index.
		if i+1 < len(sorted) && sorted[i+1] == sorted[i] {
			continue
		}
		out = append(out, CDFPoint{X: sorted[i], P: float64(i+1) / n})
	}
	return out
}

// CDFAt evaluates an empirical CDF (as returned by CDF) at x: the fraction
// of the sample ≤ x.
func CDFAt(cdf []CDFPoint, x float64) float64 {
	p := 0.0
	for _, pt := range cdf {
		if pt.X > x {
			break
		}
		p = pt.P
	}
	return p
}

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

// Counter counts occurrences of string keys and reports them ranked. It
// backs the manufacturer histogram (Fig. 12) and domain top-N counts
// (Fig. 18).
type Counter struct {
	counts map[string]int
}

// NewCounter returns an empty Counter.
func NewCounter() *Counter { return &Counter{counts: make(map[string]int)} }

// Add increments key by n.
func (c *Counter) Add(key string, n int) { c.counts[key] += n }

// Get returns the count for key.
func (c *Counter) Get(key string) int { return c.counts[key] }

// Len returns the number of distinct keys.
func (c *Counter) Len() int { return len(c.counts) }

// RankedCount is a (key, count) pair.
type RankedCount struct {
	Key   string
	Count int
}

// Ranked returns all keys sorted by descending count, breaking ties
// alphabetically so output is deterministic.
func (c *Counter) Ranked() []RankedCount {
	out := make([]RankedCount, 0, len(c.counts))
	for k, v := range c.counts {
		out = append(out, RankedCount{k, v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
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
