package figures

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"natpeek/internal/analysis"
	"natpeek/internal/dataset"
	"natpeek/internal/mac"
	"natpeek/internal/rng"
)

// TestCarriedUsageMatchesBatch: a live page's Figs. 15–20 come from
// aggregates carried from the last page — sorted utilization samples,
// Fig. 16's rows, the first-flow order, the base's best devices —
// changed by the homes the page replaced. Over seeded sequences of
// uploads and seals, with a page after every step, each page equals
// figures.All over the store's merged rows byte for byte, and the steps
// that move the carried state are planted among the uploads: a home
// whose uplink crosses Fig. 16's line one way and back again, homes
// whose first flow rows arrive in the tail (one with sealed kept rows,
// one new), a tail device that overtakes the base's best four, a tail
// row that takes volume off the base's best device in a tail the page
// extends, and seals before and after them.
func TestCarriedUsageMatchesBatch(t *testing.T) {
	const routers = 24
	at := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	flow := func(id string, dev mac.Addr, bytes int64) dataset.FlowRecord {
		return dataset.FlowRecord{RouterID: id, Device: dev, Domain: "netflix.com", Proto: "tcp",
			First: at, Last: at.Add(time.Minute), DownBytes: bytes, Conns: 1}
	}
	bloat := func(dst *dataset.Store, upBps float64) {
		dst.RouterCountry["bloat-home"] = "US"
		for i := 0; i < 3; i++ {
			dst.Capacity = append(dst.Capacity, dataset.CapacityMeasure{RouterID: "bloat-home",
				MeasuredAt: at.Add(time.Duration(i) * time.Hour), UpBps: upBps, DownBps: 5e7})
		}
	}
	overtaker := mac.FromOUI(0x001CB3, 999_999)
	for seed := uint64(1); seed <= 3; seed++ {
		seg := openSeg(t)
		d, err := NewDashboard(seg, DefaultWindows())
		if err != nil {
			t.Fatal(err)
		}
		s := rng.New(seed).Child("carried")
		next := 0
		var top mac.Addr // the base's best device, as of the last seal
		var topBytes int64
		planted := map[int]struct {
			what string
			rows func(dst *dataset.Store)
			seal bool
		}{
			4: {what: "kept rows of a home with no flows yet, sealed", seal: true, rows: func(dst *dataset.Store) {
				dst.RouterCountry["late-home"] = "IN"
				dst.Capacity = append(dst.Capacity, dataset.CapacityMeasure{RouterID: "late-home", MeasuredAt: at, UpBps: 1e6, DownBps: 1e7})
			}},
			6: {what: "that home's first flow rows, and a new home's, in the tail", rows: func(dst *dataset.Store) {
				dst.RouterCountry["new-home"] = "BR"
				dst.Flows = append(dst.Flows, flow("late-home", mac.FromOUI(0x001CB3, 900_001), 5e6), flow("new-home", mac.FromOUI(0x001CB3, 900_002), 7e6))
			}},
			9: {what: "an uplink pushed over its capacity", rows: func(dst *dataset.Store) {
				bloat(dst, 1e6)
				for i := 0; i < 6; i++ {
					dst.Throughput = append(dst.Throughput, dataset.ThroughputSample{RouterID: "bloat-home",
						Minute: at.Add(time.Duration(i) * time.Minute), Dir: "up", PeakBps: 4e6, TotalBytes: 1e6})
				}
			}},
			12: {what: "its capacity measured far higher", rows: func(dst *dataset.Store) { bloat(dst, 1e9); bloat(dst, 1e9) }},
			14: {what: "a seal", seal: true},
			16: {what: "a tail device that overtakes the base's best four", rows: func(dst *dataset.Store) {
				dst.Flows = append(dst.Flows, flow("load-00003", overtaker, 1e13))
			}},
			20: {what: "a seal", seal: true},
			21: {what: "a flow row: a tail that the next page extends", rows: func(dst *dataset.Store) {
				dst.Flows = append(dst.Flows, flow("load-00005", mac.FromOUI(0x001CB3, 900_003), 1e3))
			}},
			22: {what: "a tail row taking all but a byte off the base's best device", rows: func(dst *dataset.Store) {
				dst.Flows = append(dst.Flows, flow("load-00003", top, 1-topBytes))
			}},
			24: {what: "the uplink measured low again", rows: func(dst *dataset.Store) {
				bloat(dst, 1e5)
				bloat(dst, 1e5)
				bloat(dst, 1e5)
			}},
		}
		seal := func() {
			if err := seg.Flush(); err != nil {
				t.Fatal(err)
			}
			st := seg.Merge()
			if devs := analysis.RollupOf(st).TopDevices(1); len(devs) > 0 {
				top, topBytes = devs[0], 0
				for _, f := range st.Flows {
					if f.Device == top {
						topBytes += f.Bytes()
					}
				}
			}
		}
		for step := 0; step < 30; step++ {
			what := ""
			if p, ok := planted[step]; ok {
				what = p.what
				if p.rows != nil {
					seg.Append("planted", p.rows)
				}
				if p.seal {
					seal()
				}
			} else if s.Bool(0.15) {
				seal()
				what = "a random seal"
			} else {
				n := 1 + s.Intn(10)
				seg.Append("carried", func(dst *dataset.Store) { loadgenMix(dst, s, next, n, routers, 0.65) })
				next += n
				what = fmt.Sprintf("%d uploads", n)
			}
			what = fmt.Sprintf("seed %d, step %d (%s)", seed, step, what)
			reports := d.Render()
			st := seg.Merge()
			if got, want := renderString(reports), renderString(All(st, DefaultWindows())); got != want {
				t.Fatalf("%s: the page:\n%s\nthe batch exhibits over the store:\n%s", what, got, want)
			}
			// The next page carries all of this one's; its sums hold the
			// batch's bits, which the text's rounding would hide.
			_, _, v, _ := d.snapshot()
			diffRollups(t, what, st, analysis.RollupOf(st), v)
			fig16, fig20 := reportOf(t, reports, "Figure 16").String(), reportOf(t, reports, "Figure 20")
			bloated := strings.Contains(fig16, "home=bloat-home ")
			if want := step >= 9 && step < 12 || step >= 24; bloated != want {
				t.Fatalf("%s: Fig. 16 lists bloat-home: %v, want %v:\n%s", what, bloated, want, fig16)
			}
			if first := fig20.Lines[0]; step >= 16 && step < 21 && !strings.Contains(first, overtaker.String()) {
				t.Fatalf("%s: Fig. 20 starts %q, not with the device that overtook the base's", what, first)
			}
		}
	}
}

// reportOf is the report with the given ID.
func reportOf(t *testing.T, reports []*Report, id string) *Report {
	t.Helper()
	for _, r := range reports {
		if r.ID == id {
			return r
		}
	}
	t.Fatalf("no %s on the page", id)
	return nil
}
