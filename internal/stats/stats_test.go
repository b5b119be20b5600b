package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("got %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || !almost(s.Mean, 5, 1e-12) {
		t.Fatalf("mean = %v", s.Mean)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	// Sample stddev of this classic set is sqrt(32/7).
	if !almost(s.Stddev, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("stddev = %v", s.Stddev)
	}
}

func TestMedianOddEven(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
}

func TestQuantileEndpoints(t *testing.T) {
	xs := []float64{5, 1, 9, 3}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 9 {
		t.Fatal("endpoint quantiles wrong")
	}
}

func TestQuantileSingle(t *testing.T) {
	if Quantile([]float64{7}, 0.73) != 7 {
		t.Fatal("single-sample quantile")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated input")
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f()
		}()
	}
}

func TestPercentile95(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	p := Percentile(xs, 95)
	if !almost(p, 95.05, 1e-9) {
		t.Fatalf("p95 = %v", p)
	}
}

func TestCDFMonotone(t *testing.T) {
	if err := quick.Check(func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		cdf := CDF(xs)
		if len(xs) == 0 {
			return cdf == nil
		}
		prevX := math.Inf(-1)
		prevP := 0.0
		for _, pt := range cdf {
			if pt.X <= prevX && len(cdf) > 1 {
				return false
			}
			if pt.P < prevP || pt.P > 1 {
				return false
			}
			prevX, prevP = pt.X, pt.P
		}
		return almost(cdf[len(cdf)-1].P, 1, 1e-12)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFDuplicatesCollapse(t *testing.T) {
	cdf := CDF([]float64{1, 1, 1, 2})
	if len(cdf) != 2 {
		t.Fatalf("len = %d, want 2", len(cdf))
	}
	if cdf[0].X != 1 || !almost(cdf[0].P, 0.75, 1e-12) {
		t.Fatalf("first point %+v", cdf[0])
	}
}

func TestCDFAt(t *testing.T) {
	cdf := CDF([]float64{1, 2, 3, 4})
	if p := CDFAt(cdf, 0); p != 0 {
		t.Fatalf("CDFAt(0) = %v", p)
	}
	if p := CDFAt(cdf, 2); !almost(p, 0.5, 1e-12) {
		t.Fatalf("CDFAt(2) = %v", p)
	}
	if p := CDFAt(cdf, 100); p != 1 {
		t.Fatalf("CDFAt(100) = %v", p)
	}
}

func TestHistogram(t *testing.T) {
	counts, width := Histogram([]float64{0.5, 1.5, 2.5, 9.5, -4, 40}, 0, 10, 10)
	if width != 1 {
		t.Fatalf("width = %v", width)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 6 {
		t.Fatalf("histogram lost samples: %d", total)
	}
	if counts[0] != 2 { // 0.5 plus the clamped -4
		t.Fatalf("bin0 = %d", counts[0])
	}
	if counts[9] != 2 { // 9.5 plus the clamped 40
		t.Fatalf("bin9 = %d", counts[9])
	}
}

func TestHistogramDegenerate(t *testing.T) {
	if c, _ := Histogram([]float64{1}, 5, 5, 10); c != nil {
		t.Fatal("degenerate range should return nil")
	}
	if c, _ := Histogram([]float64{1}, 0, 10, 0); c != nil {
		t.Fatal("zero bins should return nil")
	}
}

func TestShare(t *testing.T) {
	s := Share([]float64{10, 30, 60})
	if len(s) != 3 {
		t.Fatalf("len = %d", len(s))
	}
	if !almost(s[0], 0.6, 1e-12) || !almost(s[1], 0.3, 1e-12) || !almost(s[2], 0.1, 1e-12) {
		t.Fatalf("shares = %v", s)
	}
}

func TestShareSumsToOne(t *testing.T) {
	if err := quick.Check(func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		pos := false
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			v = math.Mod(math.Abs(v), 1e9) // measurement-scale values
			if v > 0 {
				pos = true
			}
			xs = append(xs, v)
		}
		s := Share(xs)
		if !pos {
			return s == nil
		}
		sum := 0.0
		for i, v := range s {
			if i > 0 && v > s[i-1] {
				return false // must be descending
			}
			sum += v
		}
		return almost(sum, 1, 1e-9)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShareZeroTotal(t *testing.T) {
	if Share([]float64{0, 0}) != nil {
		t.Fatal("zero total should return nil")
	}
}

func TestHourBins(t *testing.T) {
	var h HourBins
	h.Add(9, 2)
	h.Add(9, 4)
	h.Add(21, 6)
	m := h.Means()
	if m[9] != 3 || m[21] != 6 || m[0] != 0 {
		t.Fatalf("means = %v", m)
	}
}

func TestHourBinsPanicOnBadHour(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	var h HourBins
	h.Add(24, 1)
}

func TestPeakToTroughRatio(t *testing.T) {
	var h HourBins
	h.Add(3, 1)
	h.Add(20, 3)
	if r := h.PeakToTroughRatio(); !almost(r, 3, 1e-12) {
		t.Fatalf("ratio = %v", r)
	}
	var flat HourBins
	flat.Add(1, 5)
	if r := flat.PeakToTroughRatio(); r != 1 {
		t.Fatalf("single-hour ratio = %v", r)
	}
}

func TestCounterRankedDeterministic(t *testing.T) {
	c := NewCounter()
	c.Add("apple", 5)
	c.Add("intel", 5)
	c.Add("roku", 2)
	r := c.Ranked()
	if r[0].Key != "apple" || r[1].Key != "intel" || r[2].Key != "roku" {
		t.Fatalf("ranked = %v", r)
	}
	if c.Get("apple") != 5 || c.Len() != 3 {
		t.Fatal("Get/Len wrong")
	}
}

func TestGini(t *testing.T) {
	if g := Gini([]float64{1, 1, 1, 1}); !almost(g, 0, 1e-12) {
		t.Fatalf("uniform gini = %v", g)
	}
	// One device owns everything in a 10-sample set → (n-1)/n = 0.9.
	xs := make([]float64, 10)
	xs[0] = 100
	if g := Gini(xs); !almost(g, 0.9, 1e-12) {
		t.Fatalf("concentrated gini = %v", g)
	}
	if g := Gini(nil); g != 0 {
		t.Fatalf("empty gini = %v", g)
	}
}

func TestGiniRange(t *testing.T) {
	if err := quick.Check(func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			xs = append(xs, math.Mod(math.Abs(v), 1e9))
		}
		g := Gini(xs)
		return g >= -1e-9 && g <= 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// sortedQuantile is the oracle: a full sort, then type-7 interpolation
// between the two order statistics around q.
func sortedQuantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := h - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// TestQuantileMatchesSortOracle: selection returns the bits a full sort
// returns, over samples of 1 to 300 values drawn with heavy duplication,
// NaNs and infinities. (No -0: sort.Float64s leaves -0 and +0 in an
// unspecified order, so a quantile over both has no single right bits.)
func TestQuantileMatchesSortOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(25, 1))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0}
	draw := func(pool int) float64 {
		switch v := r.IntN(100); {
		case v < 5:
			return special[r.IntN(len(special))]
		case v < 60:
			return float64(r.IntN(pool)) // duplicates
		default:
			return r.NormFloat64() * 1e6
		}
	}
	qs := []float64{0, .1, .25, .5, .75, .9, .95, 1, 0}
	for i := 0; i < 20000; i++ {
		xs := make([]float64, 1+r.IntN(300))
		pool := 1 + r.IntN(len(xs))
		for j := range xs {
			xs[j] = draw(pool)
		}
		qs[len(qs)-1] = r.Float64()
		for _, q := range qs {
			if got, want := Quantile(xs, q), sortedQuantile(xs, q); !sameFloat(got, want) {
				t.Fatalf("sample %d (n=%d) q=%v: got %v, sort gives %v\n%v", i, len(xs), q, got, want, xs)
			}
		}
	}
}

// TestQuantileAdversarialInputs: the orders that break a naive
// quickselect — sorted, reversed, all equal, organ pipe, sawtooth — at a
// million values each. Selection is linear-time on these; a quadratic
// pass over a million values would take minutes, so the time budget
// catches one without ever being close for a correct run.
func TestQuantileAdversarialInputs(t *testing.T) {
	const n = 1 << 20
	inputs := map[string]func(i int) float64{
		"sorted":     func(i int) float64 { return float64(i) },
		"reversed":   func(i int) float64 { return float64(n - i) },
		"all-equal":  func(i int) float64 { return 42 },
		"organ-pipe": func(i int) float64 { return float64(min(i, n-i)) },
		"sawtooth":   func(i int) float64 { return float64(i % 1024) },
	}
	for name, f := range inputs {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		for _, q := range []float64{0, .5, .95, 1} {
			start := time.Now()
			got := Quantile(xs, q)
			if took := time.Since(start); took > 5*time.Second {
				t.Fatalf("%s q=%v: %v for %d values", name, q, took, n)
			}
			if want := sortedQuantile(xs, q); !sameFloat(got, want) {
				t.Fatalf("%s q=%v: got %v, sort gives %v", name, q, got, want)
			}
		}
	}
}

// TestSelectNthSortFallback: with its partition budget spent, selection
// sorts what is left, and the element at k is still the sorted one.
func TestSelectNthSortFallback(t *testing.T) {
	r := rand.New(rand.NewPCG(25, 2))
	for i := 0; i < 2000; i++ {
		xs := make([]float64, 1+r.IntN(200))
		for j := range xs {
			xs[j] = float64(r.IntN(50))
		}
		want := append([]float64(nil), xs...)
		sort.Float64s(want)
		k, budget := r.IntN(len(xs)), r.IntN(3)
		selectNth(xs, k, budget)
		if xs[k] != want[k] {
			t.Fatalf("n=%d k=%d budget=%d: got %v, want %v", len(xs), k, budget, xs[k], want[k])
		}
		for j, x := range xs {
			if j < k && x > xs[k] || j > k && x < xs[k] {
				t.Fatalf("n=%d k=%d budget=%d: xs[%d]=%v on the wrong side of %v", len(xs), k, budget, j, x, xs[k])
			}
		}
	}
}

func TestQuantileMatchesSortPosition(t *testing.T) {
	// For a large sorted sample, Quantile(q) must sit between the
	// surrounding order statistics.
	xs := make([]float64, 1001)
	for i := range xs {
		xs[i] = float64(i)
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.95} {
		v := Quantile(xs, q)
		if v < xs[0] || v > xs[len(xs)-1] {
			t.Fatalf("q=%v out of range: %v", q, v)
		}
		if !almost(v, q*1000, 1e-9) {
			t.Fatalf("q=%v: got %v want %v", q, v, q*1000)
		}
	}
}
