package heartbeat

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// allRunsLog is the log as it stood before it kept each router's latest
// instant: every beat off the last run's cadence, and every run, is
// checked against all of the router's runs. It is the reference
// TestLogMatchesAllRunsScan holds Log to.
type allRunsLog map[string][]Run

func (l allRunsLog) Record(id string, at time.Time) {
	rs := l[id]
	if n := len(rs); n > 0 {
		last := &rs[n-1]
		if last.holds(at) {
			return
		}
		if last.Count > 1 && at.Sub(last.End()) == last.Interval {
			last.Count++
			return
		}
		for _, r := range rs[:n-1] {
			if r.holds(at) {
				return
			}
		}
		if last.Count == 1 && at.After(last.Start) {
			last.Interval = at.Sub(last.Start)
			last.Count = 2
			return
		}
	}
	l[id] = append(rs, Run{Start: at, Count: 1})
}

func (l allRunsLog) RecordRun(id string, r Run) {
	if r.Count <= 0 {
		return
	}
	if r.Count > 1 && r.Interval <= 0 {
		r.Interval = Interval
	}
	rs := l[id]
	for _, have := range rs {
		if have.holds(r.Start) && have.holds(r.End()) && (r.Count == 1 || r.Interval%have.Interval == 0) {
			return
		}
	}
	l[id] = append(rs, r)
}

// TestLogMatchesAllRunsScan: over seeded random arrivals for several
// routers — beats and runs in time order, beats and runs from the past,
// repeats of a stored beat, run or sub-run, sub-runs at a multiple of
// their run's interval, empty runs and runs with no interval — Log
// stores the same runs, in the same order, as the all-runs reference.
func TestLogMatchesAllRunsScan(t *testing.T) {
	routers := []string{"r0", "r1", "r2", "r3"}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l, ref := NewLog(), allRunsLog{}
		now := map[string]time.Time{}
		for _, id := range routers {
			now[id] = t0
		}
		// A past instant on the minute grid, or off it a tenth of the time.
		past := func(id string) time.Time {
			span := int(now[id].Sub(t0)/time.Minute) + 1
			at := t0.Add(time.Duration(rng.Intn(span)) * time.Minute)
			if rng.Intn(10) == 0 {
				at = at.Add(time.Duration(1+rng.Intn(59)) * time.Second)
			}
			return at
		}
		var ops []string
		for step := 0; step < 400; step++ {
			id := routers[rng.Intn(len(routers))]
			var op func(record func(string, time.Time), recordRun func(string, Run))
			var desc string
			switch k := rng.Intn(9); {
			case k <= 2: // the next beat, on cadence or after a gap
				gap := time.Duration(1+rng.Intn(3)) * Interval
				if rng.Intn(8) == 0 {
					gap = time.Duration(11+rng.Intn(120)) * time.Minute
				}
				at := now[id].Add(gap)
				now[id] = at
				desc = fmt.Sprintf("Record(%s, +%v)", id, at.Sub(t0))
				op = func(rec func(string, time.Time), _ func(string, Run)) { rec(id, at) }
			case k == 3: // the next run
				r := Run{
					Start:    now[id].Add(time.Duration(1+rng.Intn(30)) * time.Minute),
					Interval: time.Duration(1+rng.Intn(3)) * Interval,
					Count:    1 + rng.Intn(40),
				}
				if rng.Intn(6) == 0 {
					r.Interval = 0
				}
				if r.End().After(now[id]) {
					now[id] = r.End()
				}
				desc = fmt.Sprintf("RecordRun(%s, %+v)", id, r)
				op = func(_ func(string, time.Time), recRun func(string, Run)) { recRun(id, r) }
			case k == 4: // a beat from the past
				at := past(id)
				desc = fmt.Sprintf("Record(%s, +%v) [past]", id, at.Sub(t0))
				op = func(rec func(string, time.Time), _ func(string, Run)) { rec(id, at) }
			case k == 5: // a run from the past
				r := Run{Start: past(id), Interval: time.Duration(1+rng.Intn(2)) * Interval, Count: rng.Intn(20)}
				desc = fmt.Sprintf("RecordRun(%s, %+v) [past]", id, r)
				op = func(_ func(string, time.Time), recRun func(string, Run)) { recRun(id, r) }
			default: // a repeat of a stored beat, run or sub-run
				rs := ref[id]
				if len(rs) == 0 {
					continue
				}
				// Half the time one of the latest three runs, which a
				// beat from the past may have pushed off the end.
				have := rs[rng.Intn(len(rs))]
				if rng.Intn(2) == 0 {
					have = rs[len(rs)-1-rng.Intn(min(len(rs), 3))]
				}
				i := rng.Intn(have.Count)
				beat := have.Start.Add(time.Duration(i) * have.Interval)
				switch rng.Intn(3) {
				case 0:
					desc = fmt.Sprintf("Record(%s, +%v) [repeat]", id, beat.Sub(t0))
					op = func(rec func(string, time.Time), _ func(string, Run)) { rec(id, beat) }
				case 1:
					desc = fmt.Sprintf("RecordRun(%s, %+v) [repeat]", id, have)
					op = func(_ func(string, time.Time), recRun func(string, Run)) { recRun(id, have) }
				default:
					// Every m-th beat from beat i: a sub-run on a multiple
					// of the run's interval.
					m := 1 + rng.Intn(3)
					sub := Run{Start: beat, Interval: time.Duration(m) * have.Interval, Count: 1 + (have.Count-1-i)/m}
					if sub.Count > 1 && sub.Interval == 0 {
						continue
					}
					desc = fmt.Sprintf("RecordRun(%s, %+v) [sub-run]", id, sub)
					op = func(_ func(string, time.Time), recRun func(string, Run)) { recRun(id, sub) }
				}
			}
			ops = append(ops, desc)
			op(l.Record, l.RecordRun)
			op(ref.Record, ref.RecordRun)
			var got []Run
			if h := l.runs[id]; h != nil {
				got = h.runs
			}
			if want := ref[id]; !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d %s: runs differ\n got %+v\nwant %+v\nops %v", seed, step, desc, got, want, ops)
			}
		}
		for _, id := range routers {
			want, n := append([]Run(nil), ref[id]...), 0
			sort.Slice(want, func(i, j int) bool { return want[i].Start.Before(want[j].Start) })
			for _, r := range want {
				n += r.Count
			}
			if got := l.Runs(id); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %s: Runs %+v, want %+v", seed, id, got, want)
			}
			if got := l.Count(id); got != n {
				t.Fatalf("seed %d %s: Count %d, want %d", seed, id, got, n)
			}
		}
	}
}

// BenchmarkRecordRunHistory loads one router's history in time order:
// 10k runs of an hour of beats, each after a 15-minute outage — the
// shape of a CSV load or a reload of a study's runs.
func BenchmarkRecordRunHistory(b *testing.B) {
	const runs = 10_000
	rs := make([]Run, runs)
	for i := range rs {
		rs[i] = Run{Start: t0.Add(time.Duration(i) * 75 * time.Minute), Interval: Interval, Count: 60}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := NewLog()
		for _, r := range rs {
			l.RecordRun("r", r)
		}
	}
}
