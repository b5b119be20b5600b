package figures

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"natpeek/internal/analysis"
	"natpeek/internal/dataset"
	"natpeek/internal/geo"
	"natpeek/internal/ouidb"
	"natpeek/internal/stats"
)

// fig14 reproduces one home's diurnal utilization time series.
func fig14(st *dataset.Store, v *analysis.Rollup) *Report {
	r := &Report{
		ID:         "Figure 14",
		Title:      "Diurnal link utilization for one home (per-minute peak vs capacity)",
		PaperClaim: "capacity flat; utilization tracks daily cycles well below capacity",
	}
	id := v.BusiestHome()
	if id == "" {
		r.add("(no traffic data)")
		return r
	}
	up, down := v.HomeCapacity(id)
	r.add("home=%s capacity: up=%.1f Mbps down=%.1f Mbps", id, up/1e6, down/1e6)
	// Bin by the home's local hour so the diurnal shape reads correctly.
	var offset time.Duration
	if c, ok := geo.Lookup(st.RouterCountry[id]); ok {
		offset = c.UTCOffset
	}
	for _, dir := range []string{"up", "down"} {
		// Daily profile: mean peak by local hour of day, summed in time order.
		var bins stats.HourBins
		n := v.UtilizationSeries(id, dir, func(p analysis.UtilizationPoint) {
			bins.Add(p.Minute.Add(offset).Hour(), p.PeakBps)
		})
		if n == 0 {
			continue
		}
		r.add("%-4s minutes=%-5d hourly mean peak (Mbps): %s",
			dir, n, hourSeriesMbps(bins))
	}
	return r
}

func hourSeriesMbps(h stats.HourBins) string {
	means := h.Means()
	parts := make([]string, 0, 8)
	for _, hr := range []int{0, 3, 6, 9, 12, 15, 18, 21} {
		parts = append(parts, fmt.Sprintf("%02d=%.2f", hr, means[hr]/1e6))
	}
	return strings.Join(parts, " ")
}

// fig15 reproduces the saturation scatter from the sorted samples.
func fig15(v *analysis.Rollup) *Report {
	r := &Report{
		ID:         "Figure 15",
		Title:      "95th-percentile link utilization vs measured capacity",
		PaperClaim: "most homes <50% utilization; only two saturate; some uplinks exceed 1.0 (bufferbloat)",
	}
	downUtil, upUtil := v.Utilization("down"), v.Utilization("up")
	if len(downUtil)+len(upUtil) == 0 {
		r.add("(no traffic data)")
		return r
	}
	if len(downUtil) > 0 {
		r.add("downlink n=%-3d util CDF: %s", len(downUtil), cdfSorted(downUtil, ""))
	}
	if len(upUtil) > 0 {
		over := len(upUtil) - sort.Search(len(upUtil), func(i int) bool { return upUtil[i] > 1 })
		r.add("uplink   n=%-3d util CDF: %s  homes>1.0=%d", len(upUtil), cdfSorted(upUtil, ""), over)
	}
	if len(downUtil) > 0 { // NaNs sort first, and are not under 0.5
		nan := sort.Search(len(downUtil), func(i int) bool { return !math.IsNaN(downUtil[i]) })
		under50 := sort.Search(len(downUtil), func(i int) bool { return downUtil[i] >= 0.5 }) - nan
		r.add("downlink homes under 50%% utilization at p95: %.0f%%", 100*float64(under50)/float64(len(downUtil)))
	}
	return r
}

// fig16 reproduces the bufferbloat case studies: rows made with the home
// summaries, in a list carried from page to page, which it shares.
func fig16(v *analysis.Rollup) *Report {
	r := &Report{
		ID:         "Figure 16",
		Title:      "Homes whose uplink utilization exceeds measured capacity",
		PaperClaim: "a continuous uploader saturates the uplink; bufferbloat makes measured throughput exceed capacity",
	}
	rows := v.Oversaturated()
	if len(rows) == 0 {
		r.add("(no oversaturating homes in this run)")
		return r
	}
	r.Lines = slices.Clip(rows)
	return r
}

// fig17 reproduces the per-device traffic share breakdown, summed in
// router order over the home summaries' shares, Ginis included.
func fig17(flows *analysis.Rollup) *Report {
	r := &Report{
		ID:         "Figure 17",
		Title:      "Breakdown of traffic volume by device rank within each home",
		PaperClaim: "dominant device ≈60–65% on average; second ≈20%",
	}
	const maxRank = 5
	var sums [maxRank]float64
	var counts [maxRank]int
	var ginis float64
	homes := 0
	flows.DeviceShares(func(sh []float64) {
		for i, s := range sh[:min(len(sh), maxRank)] {
			sums[i] += s
			counts[i]++
		}
		if g, ok := gini(sh); ok {
			ginis += g
			homes++
		}
	})
	if counts[0] == 0 {
		r.add("(no traffic data)")
		return r
	}
	for i := 0; i < maxRank && counts[i] > 0; i++ {
		r.add("device rank %d: mean share=%.0f%% (over %d homes)",
			i+1, 100*sums[i]/float64(counts[i]), counts[i])
	}
	r.add("mean top-device share (homes with ≥3 devices) = %.0f%%",
		100*flows.MeanTopShare())
	if homes > 0 {
		r.add("mean per-home usage Gini = %.2f", ginis/float64(homes))
	}
	return r
}

// gini is the concentration beyond the top shares: Gini over one home's
// per-device volumes (0 = even use, →1 = one device does it all), ok for
// two or more devices. The shares are descending, so it is stats.Gini's
// sum walking them backwards — no copy, no sort, the same bits.
func gini(sh []float64) (g float64, ok bool) {
	n := len(sh)
	if n < 2 {
		return 0, false
	}
	var cum, total float64
	for i := range sh {
		x := sh[n-1-i]
		cum += x * float64(i+1)
		total += x
	}
	return (2*cum)/(float64(n)*total) - (float64(n)+1)/float64(n), true
}

// fig18 reproduces the top-5/top-10 domain popularity histogram.
func fig18(flows *analysis.Rollup) *Report {
	r := &Report{
		ID:         "Figure 18",
		Title:      "Homes in which a domain ranks top-5 / top-10 by volume",
		PaperClaim: "Google, YouTube, Facebook, Amazon, Apple, Twitter consistently popular; long tail",
	}
	const limit = 15
	pop, n := flows.PopularDomains(limit)
	for _, p := range pop {
		r.add("%-28s top5=%-3d top10=%-3d", p.Domain, p.Top5, p.Top10)
	}
	if n > limit {
		r.add("… %d more domains in the tail", n-limit)
	}
	if n == 0 {
		r.add("(no traffic data)")
	}
	return r
}

// fig19 reproduces the domain share curves.
func fig19(flows *analysis.Rollup) *Report {
	r := &Report{
		ID:         "Figure 19",
		Title:      "Domain share of volume and connections, by rank",
		PaperClaim: "top domain ≈38% of volume but <14% of connections; #2 ≈11%/7%; top-by-connections ≈19%",
	}
	curves := flows.DomainShares(10)
	if len(curves.VolumeShare) == 0 || curves.VolumeShare[0] == 0 {
		r.add("(no traffic data)")
		return r
	}
	r.add("(a) volume share by volume rank:      %s", pctSeries(curves.VolumeShare[:5]))
	r.add("(b) conn share by connection rank:    %s", pctSeries(curves.ConnShareByConnRank[:5]))
	r.add("(c) conn share of top-by-volume rank: %s", pctSeries(curves.ConnShareByVolRank[:5]))
	r.add("whitelisted share of volume = %.0f%% (paper ≈65%%)",
		100*flows.WhitelistedVolumeShare())
	return r
}

func pctSeries(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("#%d=%.0f%%", i+1, 100*x)
	}
	return strings.Join(parts, " ")
}

// fig20 reproduces the device-fingerprinting domain mixes: the two
// highest-volume devices with clearly different profiles.
func fig20(flows *analysis.Rollup) *Report {
	r := &Report{
		ID:         "Figure 20",
		Title:      "Per-device domain mix (device fingerprinting)",
		PaperClaim: "a desktop splits across many domains (Dropbox-heavy); a Roku is almost all streaming",
	}
	// A device's mix is empty only when its volume is zero, and those
	// rank last: the first four devices are the ones shown.
	devs := flows.TopDevices(4)
	shown := 0
	for _, d := range devs {
		if shown == 4 {
			break
		}
		mix := flows.DeviceDomains(d, 4)
		if len(mix) == 0 {
			continue
		}
		e := ouidb.Lookup(d)
		label := string(e.Category)
		if e.Manufacturer != "" {
			label = e.Manufacturer
		}
		var parts []string
		for _, m := range mix {
			parts = append(parts, fmt.Sprintf("%s=%.0f%%", m.Domain, 100*m.Share))
		}
		r.add("%-16s %s  %s", label, d, strings.Join(parts, " "))
		shown++
	}
	if shown == 0 {
		r.add("(no traffic data)")
	}
	return r
}

// All regenerates every exhibit in paper order. Every exhibit but the
// heartbeat ones reads one Rollup of st's rows; exhibits that read the
// same intermediate share it: Figs. 3–6 and the group-wise exhibits one
// roster index, Figs. 3–6 one gap index, Figs. 8/9 the connected-device
// averages.
func All(st *dataset.Store, w Windows) []*Report {
	return all(st, analysis.NewRoster(st), analysis.RollupOf(st), w)
}

// all is All with the roster index and the rollup supplied: the batch
// path builds them from st, a dashboard page brings its captured ones,
// and st then holds the roster and the heartbeats but no rows. The gap
// index is built on every page, batch or live. The exhibits only read —
// the Rollup and its home summaries, the Roster, the GapIndex, st's
// roster and its heartbeat log, which locks its own reads — so they
// run on GOMAXPROCS goroutines, the caller one of them: each takes the
// next exhibit from a shared counter, and reports land in paper order.
func all(st *dataset.Store, ro *analysis.Roster, v *analysis.Rollup, w Windows) []*Report {
	conn := sync.OnceValue(func() map[analysis.Group]analysis.ConnectedAverages { return v.ConnectedByGroup(ro) })
	gaps := sync.OnceValue(func() *analysis.GapIndex { return analysis.NewGapIndex(st.Heartbeats, w.Availability) })
	exhibits := [...]func() *Report{
		func() *Report { return table1(st) },
		func() *Report { return table2(st, v) },
		func() *Report { return fig3(gaps(), ro) },
		func() *Report { return fig4(st.Heartbeats, gaps(), ro, v) },
		func() *Report { return fig5(gaps(), ro) },
		func() *Report { return fig6(st.Heartbeats, gaps(), ro, v) },
		func() *Report { return fig7(v) },
		func() *Report { return fig8(conn()) },
		func() *Report { return fig9(conn()) },
		func() *Report { return table5(v, ro) },
		func() *Report { return fig10(v) },
		func() *Report { return fig11(v, ro) },
		func() *Report { return fig12(v) },
		func() *Report { return fig13(v, ro) },
		func() *Report { return fig14(st, v) },
		func() *Report { return fig15(v) },
		func() *Report { return fig16(v) },
		func() *Report { return fig17(v) },
		func() *Report { return fig18(v) },
		func() *Report { return fig19(v) },
		func() *Report { return fig20(v) },
	}
	// The schedule is paper order rotated to start at Fig. 15: the
	// costliest, Figs. 15–19, go first.
	const fig15 = 15
	out := make([]*Report, len(exhibits))
	var next atomic.Int32
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(exhibits) {
				return
			}
			k := (fig15 + i) % len(exhibits)
			out[k] = exhibits[k]()
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(exhibits)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return out
}
