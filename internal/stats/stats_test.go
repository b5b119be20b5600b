package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
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
		runs := splitRuns(r, xs)
		for _, q := range qs {
			want := sortedQuantile(xs, q)
			if got := Quantile(xs, q); !sameFloat(got, want) {
				t.Fatalf("sample %d (n=%d) q=%v: got %v, sort gives %v\n%v", i, len(xs), q, got, want, xs)
			}
			if got := QuantileRuns(q, runs...); !sameFloat(got, want) {
				t.Fatalf("sample %d (n=%d) q=%v over %d runs: got %v, sort gives %v\n%v", i, len(xs), q, len(runs), got, want, runs)
			}
		}
	}
}

// splitRuns deals xs at random into 1 to 8 runs — some possibly empty —
// and sorts each, as the analysis keeps a sample split between a folded
// base and a page's tail.
func splitRuns(r *rand.Rand, xs []float64) [][]float64 {
	runs := make([][]float64, 1+r.IntN(8))
	for _, x := range xs {
		i := r.IntN(len(runs))
		runs[i] = append(runs[i], x)
	}
	for _, run := range runs {
		sort.Float64s(run)
	}
	return runs
}

// TestQuantileRunsZerosAndEmpties: where a sample holds both -0 and +0,
// the quantile over runs equals a full sort's as a number, whatever the
// split; empty runs change nothing; no runs, or only empty ones, panic.
func TestQuantileRunsZerosAndEmpties(t *testing.T) {
	r := rand.New(rand.NewPCG(25, 3))
	for i := 0; i < 5000; i++ {
		xs := make([]float64, 1+r.IntN(40))
		for j := range xs {
			xs[j] = []float64{math.Copysign(0, -1), 0, 1, -1, math.NaN()}[r.IntN(5)]
		}
		for _, q := range []float64{0, .25, .5, .95, 1, r.Float64()} {
			want := sortedQuantile(xs, q)
			got := QuantileRuns(q, splitRuns(r, xs)...)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("n=%d q=%v: got %v, sort gives %v\n%v", len(xs), q, got, want, xs)
			}
		}
	}
	if got := QuantileRuns(0.5, nil, []float64{1, 2, 3}, nil); got != 2 {
		t.Fatalf("median of [1 2 3] beside empty runs = %v", got)
	}
	for _, runs := range [][][]float64{nil, {nil, {}}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("QuantileRuns over %d empty runs did not panic", len(runs))
				}
			}()
			QuantileRuns(0.5, runs...)
		}()
	}
}

// TestQuantileAdversarialInputs: the orders that break a naive
// quickselect — sorted, reversed, all equal, organ pipe, sawtooth — at a
// million values each. Selection is linear-time on these; a quadratic
// pass over a million values would take minutes, so the time budget
// catches one without ever being close for a correct run.
func TestQuantileAdversarialInputs(t *testing.T) {
	const n = 1 << 20
	r := rand.New(rand.NewPCG(25, 5))
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
		runs := splitRuns(r, xs)
		for _, q := range []float64{0, .5, .95, 1} {
			start := time.Now()
			got := Quantile(xs, q)
			if took := time.Since(start); took > 5*time.Second {
				t.Fatalf("%s q=%v: %v for %d values", name, q, took, n)
			}
			want := sortedQuantile(xs, q)
			if !sameFloat(got, want) {
				t.Fatalf("%s q=%v: got %v, sort gives %v", name, q, got, want)
			}
			start = time.Now()
			got = QuantileRuns(q, runs...)
			if took := time.Since(start); took > time.Second {
				t.Fatalf("%s q=%v over %d runs: %v for %d values", name, q, len(runs), took, n)
			}
			if !sameFloat(got, want) {
				t.Fatalf("%s q=%v over %d runs: got %v, sort gives %v", name, q, len(runs), got, want)
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

// sameOrder reports whether got is want's order to the bit wherever
// sort.Float64s decides it. Its ties — -0 and +0, or any two NaNs — it
// leaves in either order, so there the two must agree on which tie sits
// at a position and, over the whole sample, hold the same bit patterns.
func sameOrder(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	gb, wb := make([]uint64, len(got)), make([]uint64, len(want))
	for i := range got {
		g, w := got[i], want[i]
		tie := math.IsNaN(g) && math.IsNaN(w) || g == 0 && w == 0
		if math.Float64bits(g) != math.Float64bits(w) && !tie {
			return false
		}
		gb[i], wb[i] = math.Float64bits(g), math.Float64bits(w)
	}
	slices.Sort(gb)
	slices.Sort(wb)
	return slices.Equal(gb, wb)
}

func checkSortFloats(t *testing.T, name string, xs []float64) {
	t.Helper()
	got, want := slices.Clone(xs), slices.Clone(xs)
	SortFloats(got)
	sort.Float64s(want)
	if !sameOrder(got, want) {
		t.Fatalf("%s (n=%d): SortFloats differs from sort.Float64s\n got %v\nwant %v", name, len(xs), got, want)
	}
}

// TestSortFloatsMatchesSort: the radix kernel leaves every sample in
// sort.Float64s's order, on random samples and on the inputs a radix
// over float bits can get wrong — NaNs of both signs and with payloads,
// signed zeros, infinities, subnormals — and on lengths around the
// cutoff where it stops comparing.
func TestSortFloatsMatchesSort(t *testing.T) {
	r := rand.New(rand.NewPCG(32, 1))
	special := []float64{
		math.NaN(), -math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8dead0000beef),
		math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
		math.MaxFloat64, -math.MaxFloat64, 1, -1,
	}
	draw := func(pool int) float64 {
		switch v := r.IntN(100); {
		case v < 10:
			return special[r.IntN(len(special))]
		case v < 50:
			return float64(r.IntN(pool))
		case v < 60:
			return math.Float64frombits(r.Uint64())
		default:
			return r.NormFloat64() * 1e6
		}
	}
	lengths := []int{0, 1, 2, sortCutoff - 1, sortCutoff, sortCutoff + 1, 2 * sortCutoff, 20000}
	for i := 0; i < 200; i++ {
		lengths = append(lengths, r.IntN(3*sortCutoff))
	}
	for i, n := range lengths {
		xs := make([]float64, n)
		pool := 1 + r.IntN(n+1)
		for j := range xs {
			xs[j] = draw(pool)
		}
		checkSortFloats(t, fmt.Sprintf("random %d", i), xs)
	}
	for _, n := range []int{sortCutoff - 1, sortCutoff, 3000} {
		shapes := map[string]func(i int) float64{
			"all-equal":   func(int) float64 { return 42 },
			"all-nan":     func(i int) float64 { return special[i%4] },
			"zeros":       func(i int) float64 { return special[4+i%2] },
			"specials":    func(i int) float64 { return special[i%len(special)] },
			"sorted":      func(i int) float64 { return float64(i) },
			"reversed":    func(i int) float64 { return float64(n - i) },
			"negative":    func(i int) float64 { return -float64(i) / 7 },
			"subnormals":  func(i int) float64 { return math.Float64frombits(uint64(i*7919) & 0x800fffffffffffff) },
			"one-byte":    func(i int) float64 { return math.Float64frombits(0x3ff0000000000000 | uint64(i%256)<<24) },
			"high-digits": func(i int) float64 { return math.Float64frombits(uint64(n-i) << 52) },
		}
		for name, f := range shapes {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = f(i)
			}
			checkSortFloats(t, fmt.Sprintf("%s/%d", name, n), xs)
		}
	}
}

// FuzzSortFloats: any bit patterns, repeated to reach n values with the
// low bits of each repeat perturbed, sort as sort.Float64s sorts them.
func FuzzSortFloats(f *testing.F) {
	seed := func(n uint16, xs ...float64) {
		b := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		f.Add(b, n)
	}
	seed(3, 1, 2, 3)
	seed(sortCutoff, math.NaN(), -math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1))
	seed(sortCutoff+1, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e300, -1e-300)
	seed(3*sortCutoff, 42)
	f.Fuzz(func(t *testing.T, raw []byte, n uint16) {
		var bits []uint64
		for len(raw) >= 8 {
			bits = append(bits, binary.LittleEndian.Uint64(raw))
			raw = raw[8:]
		}
		if len(bits) == 0 {
			return
		}
		xs := make([]float64, int(n)%(8*sortCutoff))
		for i := range xs {
			xs[i] = math.Float64frombits(bits[i%len(bits)] ^ uint64(i/len(bits)))
		}
		checkSortFloats(t, "fuzz", xs)
	})
}

func BenchmarkSortFloats(b *testing.B) {
	r := rand.New(rand.NewPCG(32, 2))
	for _, n := range []int{256, 768, sortCutoff, 4096, 65536} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Round(r.ExpFloat64() * 1e7)
		}
		a := make([]float64, n)
		b.Run(fmt.Sprintf("radix/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(a, xs)
				SortFloats(a)
			}
		})
		b.Run(fmt.Sprintf("pdq/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(a, xs)
				slices.Sort(a)
			}
		})
	}
}
