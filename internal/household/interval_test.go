package household

import (
	"testing"
	"time"
)

var it0 = time.Date(2012, 10, 1, 0, 0, 0, 0, time.UTC)

func iv(startMin, endMin int) Interval {
	return Interval{it0.Add(time.Duration(startMin) * time.Minute), it0.Add(time.Duration(endMin) * time.Minute)}
}

func eq(a, b []Interval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Start.Equal(b[i].Start) || !a[i].End.Equal(b[i].End) {
			return false
		}
	}
	return true
}

func TestSubtractMiddle(t *testing.T) {
	got := Subtract([]Interval{iv(0, 60)}, []Interval{iv(10, 20), iv(30, 40)})
	want := []Interval{iv(0, 10), iv(20, 30), iv(40, 60)}
	if !eq(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestSubtractEdges(t *testing.T) {
	got := Subtract([]Interval{iv(0, 60)}, []Interval{iv(0, 10), iv(50, 70)})
	want := []Interval{iv(10, 50)}
	if !eq(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestSubtractAll(t *testing.T) {
	if got := Subtract([]Interval{iv(10, 20)}, []Interval{iv(0, 30)}); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestSubtractNothing(t *testing.T) {
	base := []Interval{iv(0, 10)}
	if got := Subtract(base, nil); !eq(got, base) {
		t.Fatalf("got %v", got)
	}
}

func TestSubtractCutSpanningTwoBases(t *testing.T) {
	got := Subtract([]Interval{iv(0, 10), iv(20, 30)}, []Interval{iv(5, 25)})
	want := []Interval{iv(0, 5), iv(25, 30)}
	if !eq(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestMergeCoalesces(t *testing.T) {
	got := Merge([]Interval{iv(20, 30), iv(0, 10), iv(8, 15), iv(15, 18)})
	want := []Interval{iv(0, 18), iv(20, 30)}
	if !eq(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestMergeEmpty(t *testing.T) {
	if Merge(nil) != nil {
		t.Fatal("merge nil wrong")
	}
}

func TestClip(t *testing.T) {
	got := Clip([]Interval{iv(-10, 5), iv(8, 20)}, it0, it0.Add(15*time.Minute))
	want := []Interval{iv(0, 5), iv(8, 15)}
	if !eq(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestTotalDuration(t *testing.T) {
	if TotalDuration([]Interval{iv(0, 10), iv(20, 25)}) != 15*time.Minute {
		t.Fatal("total wrong")
	}
}

func TestCoveredAt(t *testing.T) {
	ivs := []Interval{iv(0, 10), iv(20, 30)}
	if !CoveredAt(ivs, it0.Add(5*time.Minute)) {
		t.Fatal("inside not covered")
	}
	if CoveredAt(ivs, it0.Add(15*time.Minute)) {
		t.Fatal("gap covered")
	}
	if CoveredAt(ivs, it0.Add(10*time.Minute)) {
		t.Fatal("half-open end covered")
	}
	if !CoveredAt(ivs, it0) {
		t.Fatal("start not covered")
	}
}

func TestIntersectSubtractDuality(t *testing.T) {
	// Subtract(base, cut) and the part of base that cut covers partition
	// base: every instant of base lies in exactly one of them.
	base := []Interval{iv(0, 100), iv(150, 200)}
	cut := Merge([]Interval{iv(10, 30), iv(90, 160), iv(190, 300)})
	sub := Subtract(base, cut)
	for m := -10; m < 310; m++ {
		at := it0.Add(time.Duration(m) * time.Minute)
		inBase, inSub, inCut := CoveredAt(base, at), CoveredAt(sub, at), CoveredAt(cut, at)
		if inSub != (inBase && !inCut) {
			t.Fatalf("minute %d: in base %v, in cut %v, in Subtract %v", m, inBase, inCut, inSub)
		}
	}
}
