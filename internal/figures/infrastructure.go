package figures

import (
	"fmt"
	"time"

	"natpeek/internal/analysis"
	"natpeek/internal/dataset"
	"natpeek/internal/stats"
)

// Fig7 reproduces the devices-per-home CDF.
func Fig7(st *dataset.Store) *Report { return fig7(analysis.RollupOf(st)) }

func fig7(v *analysis.Rollup) *Report {
	r := &Report{
		ID:         "Figure 7",
		Title:      "Number of unique devices per home network",
		PaperClaim: "more than half of homes have ≥5 devices; ≈7 devices on average",
	}
	uniq := v.UniqueDevicesPerHome()
	// Counts sum exactly in any order: no need to sort the homes.
	xs := make([]float64, 0, len(uniq))
	atLeast5 := 0
	for _, n := range uniq {
		xs = append(xs, float64(n))
		if n >= 5 {
			atLeast5++
		}
	}
	if len(xs) == 0 {
		r.add("(no device data)")
		return r
	}
	r.add("homes=%d  CDF: %s", len(xs), cdfLine(xs, ""))
	r.add("mean=%.2f  share with ≥5 devices=%.0f%%",
		stats.Mean(xs), 100*float64(atLeast5)/float64(len(xs)))
	return r
}

// Fig8 reproduces the connected wired/wireless averages per group.
func Fig8(st *dataset.Store) *Report { return fig8(analysis.ConnectedByGroup(st)) }

func fig8(byGroup map[analysis.Group]analysis.ConnectedAverages) *Report {
	r := &Report{
		ID:         "Figure 8",
		Title:      "Average devices connected at any time (wired vs wireless, by group)",
		PaperClaim: "wireless > wired in both groups; developed ≈1 more device overall, gap larger for wired",
	}
	for _, g := range []analysis.Group{analysis.Developed, analysis.Developing} {
		a := byGroup[g]
		r.add("%-10s wired=%.2f±%.2f  wireless=%.2f±%.2f  total=%.2f",
			g, a.Wired.Mean, a.Wired.Stddev, a.Wireless.Mean, a.Wireless.Stddev,
			a.Wired.Mean+a.Wireless.Mean)
	}
	return r
}

// Fig9 reproduces the per-band connected averages.
func Fig9(st *dataset.Store) *Report { return fig9(analysis.ConnectedByGroup(st)) }

func fig9(byGroup map[analysis.Group]analysis.ConnectedAverages) *Report {
	r := &Report{
		ID:         "Figure 9",
		Title:      "Average wireless devices connected per spectrum, by group",
		PaperClaim: "significantly more devices on 2.4 GHz than on 5 GHz",
	}
	for _, g := range []analysis.Group{analysis.Developed, analysis.Developing} {
		a := byGroup[g]
		r.add("%-10s 2.4GHz=%.2f±%.2f  5GHz=%.2f±%.2f",
			g, a.W24.Mean, a.W24.Stddev, a.W5.Mean, a.W5.Stddev)
	}
	return r
}

// Table5 reproduces the always-connected household shares.
func Table5(st *dataset.Store) *Report { return table5(analysis.RollupOf(st), analysis.NewRoster(st)) }

func table5(v *analysis.Rollup, ro *analysis.Roster) *Report {
	r := &Report{
		ID:         "Table 5",
		Title:      "Households with a device that never disconnects (≥5 weeks)",
		PaperClaim: "developed: 43% wired / 20% wireless; developing: 12% / 12%",
	}
	shares := v.AlwaysConnected(ro, 35*24*time.Hour)
	for _, g := range []analysis.Group{analysis.Developed, analysis.Developing} {
		s := shares[g]
		r.add("%-10s homes=%-4d always-wired=%d (%.0f%%)  always-wireless=%d (%.0f%%)",
			g, s.Homes, s.WithWired, 100*s.WiredShare, s.WithWireless, 100*s.WirelessShare)
	}
	return r
}

// Fig10 reproduces the unique-devices-per-band CDF.
func Fig10(st *dataset.Store) *Report { return fig10(analysis.RollupOf(st)) }

func fig10(v *analysis.Rollup) *Report {
	r := &Report{
		ID:         "Figure 10",
		Title:      "Unique devices seen per wireless spectrum",
		PaperClaim: "median ≈5 devices on 2.4 GHz, ≈2 on 5 GHz",
	}
	b24, b5 := v.UniqueDevicesPerBand()
	if len(b24) == 0 {
		r.add("(no data)")
		return r
	}
	r.add("2.4GHz CDF: %s  median=%.1f", cdfLine(b24, ""), stats.Median(b24))
	r.add("5GHz   CDF: %s  median=%.1f", cdfLine(b5, ""), stats.Median(b5))
	return r
}

// Fig11 reproduces the visible-APs CDF.
func Fig11(st *dataset.Store) *Report { return fig11(analysis.RollupOf(st), analysis.NewRoster(st)) }

func fig11(v *analysis.Rollup, ro *analysis.Roster) *Report {
	r := &Report{
		ID:         "Figure 11",
		Title:      "Access points visible on 2.4 GHz, by group",
		PaperClaim: "developed median ≈20, bimodal (very few or a lot); developing median ≈2",
	}
	byGroup := v.VisibleAPsByGroup(ro)
	for _, g := range []analysis.Group{analysis.Developed, analysis.Developing} {
		xs := byGroup[g]
		if len(xs) == 0 {
			r.add("%-10s (no scans)", g)
			continue
		}
		r.add("%-10s homes=%-4d CDF: %s  median=%.1f",
			g, len(xs), cdfLine(xs, ""), stats.Median(xs))
	}
	ports := v.AllFourPortsShares(ro)
	r.add("all-4-ethernet-ports share: developed=%.0f%% developing=%.0f%% (paper: 9%% both)",
		100*ports[analysis.Developed], 100*ports[analysis.Developing])
	return r
}

// Fig12 reproduces the manufacturer histogram.
func Fig12(st *dataset.Store) *Report { return fig12(analysis.RollupOf(st)) }

func fig12(flows *analysis.Rollup) *Report {
	r := &Report{
		ID:         "Figure 12",
		Title:      "Devices by manufacturer/type in the Traffic homes (≥100 KB, Netgear removed)",
		PaperClaim: "Apple most common, then Intel; Samsung and smart phones also common",
	}
	hist := flows.ManufacturerHistogram(100_000)
	if len(hist) == 0 {
		r.add("(no traffic data)")
		return r
	}
	for _, h := range hist {
		r.add("%-16s %3d %s", h.Category, h.Devices, bar(h.Devices))
	}
	return r
}

func bar(n int) string {
	if n > 60 {
		n = 60
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

// Fig13 reproduces the diurnal device-count curves.
func Fig13(st *dataset.Store) *Report { return fig13(analysis.RollupOf(st), analysis.NewRoster(st)) }

func fig13(v *analysis.Rollup, ro *analysis.Roster) *Report {
	r := &Report{
		ID:         "Figure 13",
		Title:      "Mean wireless devices online by local hour (weekday vs weekend)",
		PaperClaim: "weekday clearly diurnal (evening peak, afternoon trough); weekend flatter",
	}
	weekday, weekend := v.DiurnalDevices(ro)
	r.add("weekday: %s", hourSeries(weekday))
	r.add("weekend: %s", hourSeries(weekend))
	r.add("peak/trough ratio: weekday=%.2f weekend=%.2f",
		weekday.PeakToTroughRatio(), weekend.PeakToTroughRatio())
	return r
}

func hourSeries(h stats.HourBins) string {
	means := h.Means()
	parts := make([]string, 0, 8)
	for _, hr := range []int{0, 3, 6, 9, 12, 15, 18, 21} {
		parts = append(parts, fmt.Sprintf("%02d:00=%.2f", hr, means[hr]))
	}
	return fmt.Sprintf("%v", parts)
}
