package figures

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"natpeek/internal/analysis"
	"natpeek/internal/dataset"
	"natpeek/internal/heartbeat"
)

// sameGaps reports whether gx holds for router id what hb.Downtimes and
// hb.UptimeFraction give over gx's window.
func sameGaps(gx *analysis.GapIndex, hb *heartbeat.Log, id string) bool {
	w := gx.Window()
	got, want := gx.Downtimes(id), hb.Downtimes(id, w.From, w.To, w.Threshold)
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !got[i].Start.Equal(want[i].Start) || !got[i].End.Equal(want[i].End) {
			return false
		}
	}
	return math.Float64bits(gx.UptimeFraction(id)) == math.Float64bits(hb.UptimeFraction(id, w.From, w.To, w.Threshold))
}

// TestGapIndexMatchesLog: a GapIndex gives every router — of the seed-7
// study's roster and of its log, and one neither names — the downtimes
// and uptime fraction the log computes, over the availability window
// and Fig. 4's cause window; and so over random logs, windows and
// thresholds.
func TestGapIndexMatchesLog(t *testing.T) {
	st, w := study(t)
	ids := append(append(st.Routers(), st.Heartbeats.Routers()...), "no-such-router")
	for _, win := range []analysis.AvailabilityWindow{w.Availability, analysis.CauseWindow(w.Availability)} {
		gx := analysis.NewGapIndex(st.Heartbeats, win)
		for _, id := range ids {
			if !sameGaps(gx, st.Heartbeats, id) {
				t.Fatalf("window %v – %v: router %s's gaps differ from the log's", win.From, win.To, id)
			}
		}
	}

	rng := rand.New(rand.NewSource(41))
	t0 := dataset.HeartbeatsFrom
	for trial := 0; trial < 50; trial++ {
		hb := heartbeat.NewLog()
		for r := 0; r < 6; r++ {
			id := string(rune('a' + r))
			at := t0.Add(time.Duration(rng.Intn(600)) * time.Minute)
			for k := rng.Intn(30); k > 0; k-- {
				if rng.Intn(3) == 0 {
					hb.Record(id, at)
				} else {
					run := heartbeat.Run{Start: at, Interval: time.Duration(1+rng.Intn(20)) * time.Minute, Count: 1 + rng.Intn(60)}
					hb.RecordRun(id, run)
					at = run.End()
				}
				at = at.Add(time.Duration(1+rng.Intn(90)) * time.Minute)
			}
		}
		from := t0.Add(time.Duration(rng.Intn(24*60)-60) * time.Minute)
		win := analysis.AvailabilityWindow{
			From:      from,
			To:        from.Add(time.Duration(rng.Intn(3*24*60)-60) * time.Minute),
			Threshold: []time.Duration{0, 5 * time.Minute, 10 * time.Minute, time.Hour}[rng.Intn(4)],
		}
		gx := analysis.NewGapIndex(hb, win)
		for _, id := range []string{"a", "b", "c", "d", "e", "f", "g"} {
			if !sameGaps(gx, hb, id) {
				t.Fatalf("trial %d, window %+v: router %s's gaps differ from the log's", trial, win, id)
			}
		}
	}
}

// TestAvailabilityAllocBudget: Table 2 and Figs. 3–6 over the seed-7
// study, as a page builds them, allocate within a budget. While each
// figure ran the gap analysis of every router again — about six times
// per router per page — they made 9,915 allocations here; with one
// GapIndex per window, 3,240. A batch, or a dashboard's first page,
// still makes every router's entry; a page after it, of no new rows,
// beats or registrations, takes them all from the last page.
func TestAvailabilityAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	st, w := study(t)
	exhibits := func(v *analysis.Rollup, ro *analysis.Roster) {
		a := v.Availability(st.Heartbeats, ro, w.Availability)
		table2(a)
		fig3(a)
		fig4(a)
		fig5(a)
		fig6(st.Heartbeats, a)
	}
	rollups := make(chan *analysis.Rollup, 4)
	for range cap(rollups) {
		rollups <- analysis.RollupOf(st)
	}
	ro := analysis.NewRoster(st)
	batch := testing.AllocsPerRun(3, func() { exhibits(<-rollups, ro) })
	p := analysis.NewPartial()
	p.Fold(st)
	page := func() {
		sn := analysis.NewSnapshot(dataset.NewStore())
		sn.Capture(p)
		exhibits(sn.Rollup(), sn.Roster())
	}
	page()
	carried := testing.AllocsPerRun(3, page)
	t.Logf("Table 2 and Figs. 3–6: %.0f allocations in a batch, %.0f on a carried page", batch, carried)
	if batch > 5_000 {
		t.Errorf("a batch's Table 2 and Figs. 3–6 made %.0f allocations, budget 5,000", batch)
	}
	if carried > 5_000 {
		t.Errorf("a carried page's Table 2 and Figs. 3–6 made %.0f allocations, budget 5,000", carried)
	}
}
