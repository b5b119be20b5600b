package figures

import (
	"fmt"
	"strings"
	"time"

	"natpeek/internal/analysis"
	"natpeek/internal/dataset"
	"natpeek/internal/geo"
	"natpeek/internal/ouidb"
	"natpeek/internal/stats"
)

// Fig14 reproduces one home's diurnal utilization time series.
func Fig14(st *dataset.Store) *Report { return fig14(st, analysis.RollupFlows(st)) }

func fig14(st *dataset.Store, flows *analysis.FlowRollup) *Report {
	r := &Report{
		ID:         "Figure 14",
		Title:      "Diurnal link utilization for one home (per-minute peak vs capacity)",
		PaperClaim: "capacity flat; utilization tracks daily cycles well below capacity",
	}
	id := flows.BusiestHome()
	if id == "" {
		r.add("(no traffic data)")
		return r
	}
	up, down := analysis.HomeCapacity(st, id)
	r.add("home=%s capacity: up=%.1f Mbps down=%.1f Mbps", id, up/1e6, down/1e6)
	// Bin by the home's local hour so the diurnal shape reads correctly.
	var offset time.Duration
	if c, ok := geo.Lookup(st.RouterCountry[id]); ok {
		offset = c.UTCOffset
	}
	for _, dir := range []string{"up", "down"} {
		series := analysis.UtilizationSeries(st, id, dir)
		if len(series) == 0 {
			continue
		}
		// Daily profile: mean peak by local hour of day.
		var bins stats.HourBins
		for _, p := range series {
			bins.Add(p.Minute.Add(offset).Hour(), p.PeakBps)
		}
		r.add("%-4s minutes=%-5d hourly mean peak (Mbps): %s",
			dir, len(series), hourSeriesMbps(bins))
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

// Fig15 reproduces the saturation scatter.
func Fig15(st *dataset.Store) *Report { return fig15(analysis.Saturation(st)) }

func fig15(sats []analysis.LinkSaturation) *Report {
	r := &Report{
		ID:         "Figure 15",
		Title:      "95th-percentile link utilization vs measured capacity",
		PaperClaim: "most homes <50% utilization; only two saturate; some uplinks exceed 1.0 (bufferbloat)",
	}
	if len(sats) == 0 {
		r.add("(no traffic data)")
		return r
	}
	var upUtil, downUtil []float64
	over := 0
	for _, s := range sats {
		if s.Dir == "up" {
			upUtil = append(upUtil, s.Utilization)
			if s.Utilization > 1 {
				over++
			}
		} else {
			downUtil = append(downUtil, s.Utilization)
		}
	}
	if len(downUtil) > 0 {
		r.add("downlink n=%-3d util CDF: %s", len(downUtil), cdfLine(downUtil, ""))
	}
	if len(upUtil) > 0 {
		r.add("uplink   n=%-3d util CDF: %s  homes>1.0=%d", len(upUtil), cdfLine(upUtil, ""), over)
	}
	under50 := 0
	for _, u := range downUtil {
		if u < 0.5 {
			under50++
		}
	}
	if len(downUtil) > 0 {
		r.add("downlink homes under 50%% utilization at p95: %.0f%%", 100*float64(under50)/float64(len(downUtil)))
	}
	return r
}

// Fig16 reproduces the bufferbloat case studies.
func Fig16(st *dataset.Store) *Report { return fig16(analysis.Saturation(st)) }

func fig16(sats []analysis.LinkSaturation) *Report {
	r := &Report{
		ID:         "Figure 16",
		Title:      "Homes whose uplink utilization exceeds measured capacity",
		PaperClaim: "a continuous uploader saturates the uplink; bufferbloat makes measured throughput exceed capacity",
	}
	found := 0
	for _, s := range sats {
		if s.Dir != "up" || s.Utilization <= 1 {
			continue
		}
		found++
		r.add("home=%s upCapacity=%.2f Mbps p95=%.2f Mbps util=%.2f  minutes>capacity=%d/%d",
			s.RouterID, s.CapacityBps/1e6, s.P95Bps/1e6, s.Utilization, s.MinutesOver, s.Minutes)
	}
	if found == 0 {
		r.add("(no oversaturating homes in this run)")
	}
	return r
}

// Fig17 reproduces the per-device traffic share breakdown.
func Fig17(st *dataset.Store) *Report { return fig17(analysis.RollupFlows(st)) }

func fig17(flows *analysis.FlowRollup) *Report {
	r := &Report{
		ID:         "Figure 17",
		Title:      "Breakdown of traffic volume by device rank within each home",
		PaperClaim: "dominant device ≈60–65% on average; second ≈20%",
	}
	shares := flows.DeviceShares()
	maxRank := 5
	sums := make([]float64, maxRank)
	counts := make([]int, maxRank)
	for _, id := range sortedKeys(shares) {
		for i, s := range shares[id] {
			if i >= maxRank {
				break
			}
			sums[i] += s
			counts[i]++
		}
	}
	if counts[0] == 0 {
		r.add("(no traffic data)")
		return r
	}
	for i := 0; i < maxRank && counts[i] > 0; i++ {
		r.add("device rank %d: mean share=%.0f%% (over %d homes)",
			i+1, 100*sums[i]/float64(counts[i]), counts[i])
	}
	r.add("mean top-device share (homes with ≥3 devices) = %.0f%%",
		100*analysis.MeanTopShare(shares, 3))
	// Concentration beyond the top shares: Gini over per-device volumes,
	// averaged across homes (0 = even use, →1 = one device does it all).
	var ginis []float64
	for _, sh := range shares {
		if len(sh) >= 2 {
			ginis = append(ginis, stats.Gini(sh))
		}
	}
	if len(ginis) > 0 {
		r.add("mean per-home usage Gini = %.2f", stats.Mean(ginis))
	}
	return r
}

// Fig18 reproduces the top-5/top-10 domain popularity histogram.
func Fig18(st *dataset.Store) *Report { return fig18(analysis.RollupFlows(st)) }

func fig18(flows *analysis.FlowRollup) *Report {
	r := &Report{
		ID:         "Figure 18",
		Title:      "Homes in which a domain ranks top-5 / top-10 by volume",
		PaperClaim: "Google, YouTube, Facebook, Amazon, Apple, Twitter consistently popular; long tail",
	}
	pop := flows.PopularDomains()
	limit := 15
	for i, p := range pop {
		if i >= limit {
			r.add("… %d more domains in the tail", len(pop)-limit)
			break
		}
		r.add("%-28s top5=%-3d top10=%-3d", p.Domain, p.Top5, p.Top10)
	}
	if len(pop) == 0 {
		r.add("(no traffic data)")
	}
	return r
}

// Fig19 reproduces the domain share curves.
func Fig19(st *dataset.Store) *Report { return fig19(analysis.RollupFlows(st)) }

func fig19(flows *analysis.FlowRollup) *Report {
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

// Fig20 reproduces the device-fingerprinting domain mixes: the two
// highest-volume devices with clearly different profiles.
func Fig20(st *dataset.Store) *Report { return fig20(analysis.RollupFlows(st)) }

func fig20(flows *analysis.FlowRollup) *Report {
	r := &Report{
		ID:         "Figure 20",
		Title:      "Per-device domain mix (device fingerprinting)",
		PaperClaim: "a desktop splits across many domains (Dropbox-heavy); a Roku is almost all streaming",
	}
	devs := flows.TopDevicesByVolume()
	shown := 0
	for _, d := range devs {
		if shown == 4 {
			break
		}
		mix := flows.DeviceDomains(d)
		if len(mix) == 0 {
			continue
		}
		e := ouidb.Lookup(d)
		label := string(e.Category)
		if e.Manufacturer != "" {
			label = e.Manufacturer
		}
		var parts []string
		for i, m := range mix {
			if i == 4 {
				break
			}
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

// All regenerates every exhibit in paper order. Exhibits that read the
// same intermediate share it: the flow exhibits one rollup of the Traffic
// flows, Figs. 8/9 the connected-device averages, Figs. 15/16 the links.
func All(st *dataset.Store, w Windows) []*Report {
	flows := analysis.RollupFlows(st)
	conn := analysis.ConnectedByGroup(st)
	sats := analysis.Saturation(st)
	return []*Report{
		Table1(st), table2(st, flows),
		Fig3(st, w), Fig4(st, w), Fig5(st, w), Fig6(st, w),
		Fig7(st), fig8(conn), fig9(conn), Table5(st), Fig10(st), Fig11(st), fig12(flows),
		Fig13(st), fig14(st, flows), fig15(sats), fig16(sats), fig17(flows), fig18(flows), fig19(flows), fig20(flows),
	}
}

// ExtUsageByCountry is the §7 extension exhibit: the usage-structure
// comparison across country groups the paper left as future work
// ("Expanding the study of usage to more countries"). It is meaningful
// when the world ran with GlobalTraffic consent.
func ExtUsageByCountry(st *dataset.Store) *Report {
	r := &Report{
		ID:         "Extension §7",
		Title:      "Usage structure by country group (future work implemented)",
		PaperClaim: "paper's Traffic data covered only US homes; §7 asks how usage differs by country",
	}
	byGroup := analysis.UsageByGroup(st)
	for _, g := range []analysis.Group{analysis.Developed, analysis.Developing} {
		u := byGroup[g]
		if u.Homes == 0 {
			r.add("%-10s (no consenting traffic homes — run the world with GlobalTraffic)", g)
			continue
		}
		r.add("%-10s homes=%-3d volume=%.1f GB  whitelisted=%.0f%%  streaming=%.0f%%  topDomain(mean)=%.0f%%",
			g, u.Homes, float64(u.TotalBytes)/1e9,
			100*u.WhitelistedShare, 100*u.StreamingShare, 100*u.TopDomainShare)
	}
	return r
}
