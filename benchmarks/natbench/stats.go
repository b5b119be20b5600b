package main

import (
	"math"
	"sort"
	"time"

	"natpeek/internal/stats"
)

func median(v []float64) float64 { return stats.Median(v) }

// tailLadder is the set of percentiles a timing may report as its tail,
// in thousandths so that "ten samples beyond" is integer arithmetic.
var tailLadder = []int{999, 990, 950, 900, 750}

// tailPercentile applies the reporting rule for timings: the highest
// percentile on the ladder that still has at least ten samples beyond
// it. ok is false when even the lowest rung has fewer.
func tailPercentile(n int) (q float64, ok bool) {
	for _, pm := range tailLadder {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 1000, true
		}
	}
	return 0, false
}

// timing summarises one latency series.
type timing struct {
	N       int
	P50     float64
	TailQ   float64 // the percentile tailPercentile picked; 0 when too few samples
	Tail    float64
	samples []float64
}

func summarize(samples []float64) timing {
	t := timing{N: len(samples), samples: samples}
	t.P50 = t.at(0.5)
	if q, ok := tailPercentile(t.N); ok {
		t.TailQ, t.Tail = q, t.at(q)
	}
	return t
}

// at returns the q-quantile of the series; an empty series (an open loop
// whose clients never had to sleep has no wake-up lateness) reads 0.
func (t timing) at(q float64) float64 {
	if t.N == 0 {
		return 0
	}
	return stats.Quantile(t.samples, q)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quartiles returns Q1, median, Q3 the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is
// what the acceptance check uses for run-to-run spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(q2)
}

// onTimeShare is the share of operations that met their latency limit; a
// failed operation missed it.
func onTimeShare(latMs []float64, limitMs float64, failed int) float64 {
	ok := 0
	for _, l := range latMs {
		if l <= limitMs {
			ok++
		}
	}
	return float64(ok) / float64(len(latMs)+failed)
}
