package figures

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strconv"
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

// fig15 reproduces the saturation scatter.
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
	stats.SortFloats(downUtil)
	stats.SortFloats(upUtil)
	if len(downUtil) > 0 {
		r.add("downlink n=%-3d util CDF: %s", len(downUtil), cdfSorted(downUtil, ""))
	}
	if len(upUtil) > 0 {
		r.add("uplink   n=%-3d util CDF: %s  homes>1.0=%d", len(upUtil), cdfSorted(upUtil, ""), over)
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

// fig16 reproduces the bufferbloat case studies. Most homes of a large
// fleet can be listed, so each row is appended with strconv into one
// reused buffer — the bytes fmt's "%.2f" and "%d" give — and copied out
// as its line.
func fig16(sats []analysis.LinkSaturation) *Report {
	r := &Report{
		ID:         "Figure 16",
		Title:      "Homes whose uplink utilization exceeds measured capacity",
		PaperClaim: "a continuous uploader saturates the uplink; bufferbloat makes measured throughput exceed capacity",
	}
	over := func(s *analysis.LinkSaturation) bool { return s.Dir == "up" && s.Utilization > 1 }
	n := 0
	for i := range sats {
		if over(&sats[i]) {
			n++
		}
	}
	if n == 0 {
		r.add("(no oversaturating homes in this run)")
		return r
	}
	r.Lines = make([]string, 0, n)
	var b []byte
	for i := range sats {
		if over(&sats[i]) {
			b = appendOversaturated(b[:0], &sats[i])
			r.Lines = append(r.Lines, string(b))
		}
	}
	return r
}

// appendOversaturated appends s as Fig. 16 lists it:
// "home=%s upCapacity=%.2f Mbps p95=%.2f Mbps util=%.2f  minutes>capacity=%d/%d".
func appendOversaturated(b []byte, s *analysis.LinkSaturation) []byte {
	b = append(b, "home="...)
	b = append(b, s.RouterID...)
	b = append(b, " upCapacity="...)
	b = appendFixed2(b, s.CapacityBps/1e6)
	b = append(b, " Mbps p95="...)
	b = appendFixed2(b, s.P95Bps/1e6)
	b = append(b, " Mbps util="...)
	b = appendFixed2(b, s.Utilization)
	b = append(b, "  minutes>capacity="...)
	b = strconv.AppendInt(b, int64(s.MinutesOver), 10)
	b = append(b, '/')
	return strconv.AppendInt(b, int64(s.Minutes), 10)
}

// decades are the powers of ten from 10^-2 to 10^15 as float64: the
// nearest ones below 1, exact from 1 on.
var decades = [...]float64{1e-2, 1e-1, 1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// appendFixed2 appends v as strconv.AppendFloat(b, v, 'f', 2, 64) does.
// That call takes strconv's multiprecision path for every value. A value
// of magnitude from 0.01 up to 1e15 is rounded instead by the 'e'
// format's fixed-digit path to as many significant digits as reach the
// hundredths (at most 17) — the same rounding: of the exact binary
// value, to nearest, ties to even — and the digits are laid out with two
// decimals. Any other value goes through AppendFloat.
func appendFixed2(b []byte, v float64) []byte {
	a := math.Abs(v)
	if !(a >= decades[0] && a < decades[len(decades)-1]) {
		return strconv.AppendFloat(b, v, 'f', 2, 64)
	}
	e := 0 // a < decades[e+1]: its decimal exponent is e-2, it has e+1 digits to the hundredths
	for a >= decades[e+1] {
		e++
	}
	var buf [32]byte
	s := strconv.AppendFloat(buf[:0], a, 'e', e, 64) // "d.ddde±xx", or "de±xx"
	at := bytes.IndexByte(s, 'e')
	exp := 0 // e-2, or e-1 where rounding carried into a new digit
	for _, c := range s[at+2:] {
		exp = exp*10 + int(c-'0')
	}
	if s[at+1] == '-' {
		exp = -exp
	}
	// The digits of a in hundredths: the mantissa's, and a 0 for the
	// hundredths a carry left out.
	var digits [24]byte
	d := append(digits[:0], s[0])
	if at > 1 {
		d = append(d, s[2:at]...)
	}
	for n := exp + 3 - len(d); n > 0; n-- {
		d = append(d, '0')
	}
	if v < 0 {
		b = append(b, '-')
	}
	if len(d) <= 2 {
		return append(append(b, "0.00"[:4-len(d)]...), d...)
	}
	b = append(append(b, d[:len(d)-2]...), '.')
	return append(b, d[len(d)-2:]...)
}

// fig17 reproduces the per-device traffic share breakdown.
func fig17(flows *analysis.Rollup) *Report {
	r := &Report{
		ID:         "Figure 17",
		Title:      "Breakdown of traffic volume by device rank within each home",
		PaperClaim: "dominant device ≈60–65% on average; second ≈20%",
	}
	shares := flows.DeviceShares()
	maxRank := 5
	sums := make([]float64, maxRank)
	counts := make([]int, maxRank)
	for _, sh := range shares {
		for i, s := range sh {
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
	if g, ok := meanGini(shares); ok {
		r.add("mean per-home usage Gini = %.2f", g)
	}
	return r
}

// meanGini is the concentration beyond the top shares: Gini over
// per-device volumes, averaged across homes with at least two devices
// (0 = even use, →1 = one device does it all); ok is false when there
// are none. Each home's shares are descending already, so its Gini is
// stats.Gini's sum taken walking them backwards — no copy, no sort, the
// same bits.
func meanGini(shares [][]float64) (g float64, ok bool) {
	var ginis []float64
	for _, sh := range shares {
		n := len(sh)
		if n < 2 {
			continue
		}
		var cum, total float64
		for i := range sh {
			x := sh[n-1-i]
			cum += x * float64(i+1)
			total += x
		}
		ginis = append(ginis, (2*cum)/(float64(n)*total)-(float64(n)+1)/float64(n))
	}
	if len(ginis) == 0 {
		return 0, false
	}
	return stats.Mean(ginis), true
}

// fig18 reproduces the top-5/top-10 domain popularity histogram.
func fig18(flows *analysis.Rollup) *Report {
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
// averages, Figs. 15/16 the links.
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
	sats := sync.OnceValue(v.Saturation)
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
		func() *Report { return fig15(sats()) },
		func() *Report { return fig16(sats()) },
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
