package household

import "time"

// Interval is a half-open time span [Start, End).
type Interval struct {
	Start time.Time
	End   time.Time
}

// Duration returns the span length.
func (iv Interval) Duration() time.Duration { return iv.End.Sub(iv.Start) }

// Contains reports whether t falls inside the interval.
func (iv Interval) Contains(t time.Time) bool {
	return !t.Before(iv.Start) && t.Before(iv.End)
}

// Subtract removes the (sorted, non-overlapping) spans in cut from base
// (also sorted, non-overlapping).
func Subtract(base, cut []Interval) []Interval {
	var out []Interval
	j := 0
	for _, iv := range base {
		cur := iv.Start
		for j < len(cut) && !cut[j].End.After(cur) {
			j++
		}
		k := j
		for k < len(cut) && cut[k].Start.Before(iv.End) {
			if cut[k].Start.After(cur) {
				out = append(out, Interval{cur, cut[k].Start})
			}
			if cut[k].End.After(cur) {
				cur = cut[k].End
			}
			k++
		}
		if cur.Before(iv.End) {
			out = append(out, Interval{cur, iv.End})
		}
	}
	return out
}

// TotalDuration sums the lengths of the intervals.
func TotalDuration(ivs []Interval) time.Duration {
	var d time.Duration
	for _, iv := range ivs {
		d += iv.Duration()
	}
	return d
}

// CoveredAt reports whether t falls in any interval of the sorted list.
func CoveredAt(ivs []Interval, t time.Time) bool {
	for _, iv := range ivs {
		if iv.Contains(t) {
			return true
		}
		if iv.Start.After(t) {
			return false
		}
	}
	return false
}

// Merge normalizes an interval list: sorts by start and coalesces
// overlapping or touching spans.
func Merge(ivs []Interval) []Interval {
	if len(ivs) == 0 {
		return nil
	}
	sorted := append([]Interval(nil), ivs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].Start.Before(sorted[j-1].Start); j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	out := []Interval{sorted[0]}
	for _, iv := range sorted[1:] {
		last := &out[len(out)-1]
		if !iv.Start.After(last.End) {
			if iv.End.After(last.End) {
				last.End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// Clip restricts the intervals to [from, to).
func Clip(ivs []Interval, from, to time.Time) []Interval {
	var out []Interval
	for _, iv := range ivs {
		s, e := iv.Start, iv.End
		if s.Before(from) {
			s = from
		}
		if e.After(to) {
			e = to
		}
		if e.After(s) {
			out = append(out, Interval{s, e})
		}
	}
	return out
}
