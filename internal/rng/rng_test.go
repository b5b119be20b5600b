package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("%d/100 identical draws across seeds", same)
	}
}

func TestZeroSeedIsNotDegenerate(t *testing.T) {
	r := New(0)
	var zeros int
	for i := 0; i < 100; i++ {
		if r.Uint64() == 0 {
			zeros++
		}
	}
	if zeros > 1 {
		t.Fatalf("seed 0 produced %d zero draws", zeros)
	}
}

func TestChildIsPure(t *testing.T) {
	a := New(7)
	b := New(7)
	// Deriving children from a must not change a's sequence.
	_ = a.Child("x")
	_ = a.Child("y")
	_ = a.ChildN("home", 12)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Child() consumed parent entropy (draw %d)", i)
		}
	}
}

func TestChildLabelsIndependent(t *testing.T) {
	r := New(7)
	x := r.Child("alpha")
	y := r.Child("beta")
	same := 0
	for i := 0; i < 100; i++ {
		if x.Uint64() == y.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("children correlate: %d/100 equal", same)
	}
}

func TestChildDeterministic(t *testing.T) {
	x := New(7).Child("home-3")
	y := New(7).Child("home-3")
	for i := 0; i < 100; i++ {
		if x.Uint64() != y.Uint64() {
			t.Fatal("same label, different streams")
		}
	}
}

func TestChildNDistinct(t *testing.T) {
	r := New(7)
	a := r.ChildN("home", 1).Uint64()
	b := r.ChildN("home", 2).Uint64()
	if a == b {
		t.Fatal("ChildN(1) == ChildN(2) first draw")
	}
}

func TestFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for n := 1; n < 50; n++ {
		for i := 0; i < 20; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(11)
	const n = 50000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm(10, 3)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean-10) > 0.1 {
		t.Fatalf("mean = %v", mean)
	}
	if math.Abs(sd-3) > 0.1 {
		t.Fatalf("sd = %v", sd)
	}
}

func TestExpMean(t *testing.T) {
	r := New(12)
	const n = 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(5)
		if v < 0 {
			t.Fatal("negative exponential draw")
		}
		sum += v
	}
	if m := sum / n; math.Abs(m-5) > 0.15 {
		t.Fatalf("mean = %v, want ~5", m)
	}
}

func TestParetoLowerBound(t *testing.T) {
	r := New(13)
	for i := 0; i < 10000; i++ {
		if v := r.Pareto(2, 1.5); v < 2 {
			t.Fatalf("Pareto below scale: %v", v)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(14)
	for _, mean := range []float64{0.5, 3, 12, 50} {
		const n = 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > 0.05*mean+0.1 {
			t.Fatalf("Poisson(%v) sample mean %v", mean, got)
		}
	}
}

func TestPoissonNonPositiveMean(t *testing.T) {
	r := New(15)
	if r.Poisson(0) != 0 || r.Poisson(-3) != 0 {
		t.Fatal("Poisson of non-positive mean should be 0")
	}
}

func TestZipfConcentration(t *testing.T) {
	r := New(16)
	counts := make([]int, 100)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Zipf(100, 1.0)]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[5] {
		t.Fatalf("Zipf not rank-decreasing: %v %v %v", counts[0], counts[1], counts[5])
	}
	// Rank 0 of Zipf(1.0, 100) should hold ~1/H(100) ≈ 19% of mass.
	share := float64(counts[0]) / n
	if share < 0.15 || share > 0.25 {
		t.Fatalf("rank-0 share = %v", share)
	}
}

func TestZipfSamplerMatchesDirect(t *testing.T) {
	z := NewZipf(50, 1.2)
	r := New(17)
	counts := make([]int, 50)
	for i := 0; i < 50000; i++ {
		k := z.Sample(r)
		if k < 0 || k >= 50 {
			t.Fatalf("rank out of range: %d", k)
		}
		counts[k]++
	}
	if counts[0] <= counts[3] {
		t.Fatalf("precomputed Zipf not decreasing: %v vs %v", counts[0], counts[3])
	}
}

func TestWeightedChoiceRespectsWeights(t *testing.T) {
	r := New(19)
	w := []float64{1, 0, 9}
	counts := make([]int, 3)
	for i := 0; i < 10000; i++ {
		counts[r.WeightedChoice(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 7 || ratio > 12 {
		t.Fatalf("weight ratio = %v, want ~9", ratio)
	}
}

func TestWeightedChoicePanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(1).WeightedChoice([]float64{0, 0})
}

func TestBoolProbability(t *testing.T) {
	r := New(20)
	hits := 0
	for i := 0; i < 10000; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if hits < 2700 || hits > 3300 {
		t.Fatalf("Bool(0.3) hit %d/10000", hits)
	}
}

func TestRangeBounds(t *testing.T) {
	r := New(21)
	for i := 0; i < 1000; i++ {
		v := r.Range(5, 10)
		if v < 5 || v >= 10 {
			t.Fatalf("Range(5,10) = %v", v)
		}
	}
	// Swapped bounds normalize.
	v := r.Range(10, 5)
	if v < 5 || v >= 10 {
		t.Fatalf("Range(10,5) = %v", v)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(22)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal <= 0: %v", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkZipfSampler(b *testing.B) {
	z := NewZipf(200, 1.1)
	r := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Sample(r)
	}
}
