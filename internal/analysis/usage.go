package analysis

import (
	"cmp"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"time"

	"natpeek/internal/domains"
	"natpeek/internal/stats"
)

// DiurnalDevices aggregates the Devices censuses into mean connected
// wireless devices per local hour, split weekday/weekend — Fig. 13. Each
// router's half-hour-of-week bins are rotated by its country's offset
// (summary.diurnalAt); routers of unknown country are left out.
func (r *Rollup) DiurnalDevices(ro *Roster) (weekday, weekend stats.HourBins) {
	var sums [48]int64
	var counts [48]int
	for k, p := range r.placed(ro) {
		s := r.sums[k]
		if p.group < 0 || s.has&HasCensus == 0 {
			continue
		}
		for _, c := range s.diurnalAt(int(p.shift)).cells {
			sums[c.at] += c.sum
			counts[c.at] += int(c.n)
		}
	}
	for h := 0; h < 24; h++ {
		weekday.Sum[h], weekday.Count[h] = float64(sums[h]), counts[h]
		weekend.Sum[h], weekend.Count[h] = float64(sums[24+h]), counts[24+h]
	}
	return weekday, weekend
}

// quantile is the q-quantile of a's values and b's, which must not both
// be empty.
func quantile(q float64, a, b *run[float64]) float64 {
	var buf [8][]float64
	return stats.QuantileRuns(q, bothRuns(buf[:], a, b)...)
}

// medianOrZero is the median of a's values and b's, 0 when there are none.
func medianOrZero(a, b *run[float64]) float64 {
	if a.n+b.n == 0 {
		return 0
	}
	return quantile(0.5, a, b)
}

// HomeCapacity returns a home's median measured capacity per direction
// over the Capacity data set.
func (r *Rollup) HomeCapacity(id string) (upBps, downBps float64) {
	b, t := r.of(id).both()
	return medianOrZero(&b.capUp, &t.capUp), medianOrZero(&b.capDown, &t.capDown)
}

// LinkSaturation is one Fig. 15 point: a home's capacity vs its 95th
// percentile utilization in one direction.
type LinkSaturation struct {
	RouterID    string
	Dir         string
	CapacityBps float64
	P95Bps      float64
	Utilization float64 // P95 / capacity; can exceed 1 under bufferbloat
	// Minutes counts the link's throughput samples, MinutesOver those
	// whose peak exceeded the measured capacity (Fig. 16).
	Minutes, MinutesOver int
}

// Utilization returns Fig. 15's sample of link utilizations in one
// direction, "up" or "down", ascending. It must not be changed.
func (r *Rollup) Utilization(dir string) []float64 {
	if l := linkOf(dir); l >= 0 {
		return r.samples[l]
	}
	return nil
}

// DeviceCounts returns Fig. 7's sample: the distinct devices of each
// home with any, ascending. It must not be changed.
func (r *Rollup) DeviceCounts() []float64 { return r.samples[deviceCounts] }

// Oversaturated returns Fig. 16's rows, one per home whose uplink
// utilization exceeds 1, in router order. It must not be changed.
func (r *Rollup) Oversaturated() []string { return r.over }

// overRow is Fig. 16's row for the uplink among links when its
// utilization exceeds 1, else "".
func overRow(links []LinkSaturation) string {
	for i := range links {
		if l := &links[i]; l.Dir == "up" && l.Utilization > 1 {
			return string(AppendOversaturated(nil, l))
		}
	}
	return ""
}

// AppendOversaturated appends s as Fig. 16 lists it:
// "home=%s upCapacity=%.2f Mbps p95=%.2f Mbps util=%.2f  minutes>capacity=%d/%d",
// with strconv rather than fmt.
func AppendOversaturated(b []byte, s *LinkSaturation) []byte {
	b = append(append(b, "home="...), s.RouterID...)
	b = stats.AppendFixed2(append(b, " upCapacity="...), s.CapacityBps/1e6)
	b = stats.AppendFixed2(append(b, " Mbps p95="...), s.P95Bps/1e6)
	b = stats.AppendFixed2(append(b, " Mbps util="...), s.Utilization)
	b = strconv.AppendInt(append(b, "  minutes>capacity="...), int64(s.MinutesOver), 10)
	return strconv.AppendInt(append(b, '/'), int64(s.Minutes), 10)
}

// usage is a page's Figs. 15–20 aggregates over its home summaries: the
// last page's, less what the summaries that went put in and plus what
// those that came put in (carry). Fig. 19's float sums are not exact in
// any order: only their order is carried.
type usage struct {
	samples [numSamples][]float64 // ascending (resorted)
	over    []string              // Fig. 16's rows, in router order
	pop     popCounts             // Fig. 18
	totals  homeTotals            // every home's flow totals (WhitelistedVolumeShare)
	flow    []int32               // Fig. 19: flow homes' summary positions, in first-flow order
	devs    []bestDevice          // Fig. 20: the best devices (bestDevices)
}

// The carried samples: Fig. 15's link utilizations, by linkOf, Fig.
// 17's top-device shares of the homes with at least topShareMin
// devices, and Fig. 7's device counts of the homes with any.
const (
	topShares, deviceCounts, numSamples = len(linkDirs), len(linkDirs) + 1, len(linkDirs) + 2
	topShareMin                         = 3
)

// sample appends s's values in sample i to xs: its link's utilization
// in that direction, or its top device's share.
func (s *summary) sample(i int, xs []float64) []float64 {
	for _, l := range s.links {
		if linkOf(l.Dir) == i {
			xs = append(xs, l.Utilization)
		}
	}
	if i == topShares && len(s.shares) >= topShareMin {
		xs = append(xs, s.shares[0])
	}
	if i == deviceCounts && s.devices > 0 {
		xs = append(xs, float64(s.devices))
	}
	return xs
}

// carry sets r's usage aggregates: prev's, less what the summaries that
// went put in, plus what those that came put in (summarize). same
// reports that every home is where it was on prev, in the same router
// order; where it does not hold, or a changed summary has a row or
// flows, Fig. 16's rows and the first-flow order are laid out again.
func (r *Rollup) carry(prev *Rollup, went, came []*summary, same bool) {
	var moved [numSamples][2][]float64 // by sample: the values out, and in
	pop := popCounts{}
	over, flows := !same, !same
	r.totals = prev.totals
	for side, ss := range [2][]*summary{went, came} {
		by := 2*side - 1
		for _, s := range ss {
			for i := range moved {
				moved[i][side] = s.sample(i, moved[i][side])
			}
			r.totals.merge(s.totals, int64(by))
			pop.count(s, by)
			over = over || s.over != ""
			flows = flows || s.has&HasTraffic != 0
		}
	}
	for i := range r.samples {
		r.samples[i] = resorted(prev.samples[i], moved[i][0], moved[i][1])
	}
	r.pop = prev.pop
	if len(pop) > 0 {
		r.pop = maps.Clone(prev.pop)
		for name, c := range pop {
			r.pop.add(name, c)
		}
	}
	r.over = prev.over
	if over {
		r.over = make([]string, 0, len(prev.over)+1)
		for _, k := range r.order {
			if s := r.sums[k]; s.over != "" {
				r.over = append(r.over, s.over)
			}
		}
		if len(r.over) == 0 {
			r.over = nil // as a batch over no homes has it
		}
	}
	r.flow = prev.flow
	if flows {
		r.flow = r.firstFlows()
	}
	r.devs = r.bestDevices(prev, went, came, same)
}

// resorted returns sorted, in stats.SortFloats' order, less gone's
// values (which it must hold) and with came's: itself when the two hold
// the same values, nil when none is left, else a new slice, as a page
// may still read sorted. It sorts gone and came.
func resorted(sorted, gone, came []float64) []float64 {
	switch {
	case len(gone)+len(came) == 0:
		return sorted
	case len(gone) == len(sorted) && len(came) == 0:
		return nil
	}
	stats.SortFloats(gone)
	stats.SortFloats(came)
	if slices.EqualFunc(gone, came, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		return sorted // a home's values replaced by the same ones
	}
	if len(sorted) == 0 {
		return came
	}
	out := make([]float64, 0, len(sorted)-len(gone)+len(came))
	for _, x := range sorted {
		if len(gone) > 0 && cmp.Compare(x, gone[0]) == 0 {
			gone = gone[1:]
			continue
		}
		for len(came) > 0 && cmp.Compare(came[0], x) < 0 {
			out, came = append(out, came[0]), came[1:]
		}
		out = append(out, x)
	}
	return append(out, came...)
}

// popularity is one domain's Fig. 18 counts: the homes that rank it in
// their top 5 and in their top 10 by whitelisted volume.
type popularity struct{ top5, top10 int }

// popCounts are Fig. 18's counts over a view's summaries, by domain, or
// a change to them.
type popCounts map[string]popularity

// count adds s's domains to the counts, by ±1 a home.
func (pop popCounts) count(s *summary, by int) {
	for i, d := range s.top[byVolumeWhitelisted] {
		c := popularity{top10: by}
		if i < 5 {
			c.top5 = by
		}
		pop.add(d.name, c)
	}
}

// add adds c to name's counts; a domain left with none is dropped.
func (pop popCounts) add(name string, c popularity) {
	c.top5 += pop[name].top5
	c.top10 += pop[name].top10
	if c == (popularity{}) {
		delete(pop, name)
	} else {
		pop[name] = c
	}
}

// countAbove counts the values of r greater than x.
func countAbove(r *run[float64], x float64) int {
	n := r.n
	for _, s := range r.runs {
		n -= sort.Search(len(s), func(i int) bool { return s[i] > x })
	}
	return n
}

// UtilizationPoint is one sample of a home's utilization time series
// (Fig. 14/16).
type UtilizationPoint struct {
	Minute  time.Time
	PeakBps float64
}

// UtilizationSeries calls fn for each point of a home's per-minute peak
// throughput series in one direction, "up" or "down", in time order —
// the points of one minute in arrival order — and returns their number.
// The series is read where it lies: base and tail each hold it as runs
// that ascend in time (link.descents), and fn gets the next point of
// whichever run has the earliest (merge), so a page neither copies nor
// sorts it.
func (r *Rollup) UtilizationSeries(id, dir string, fn func(UtilizationPoint)) int {
	l := linkOf(dir)
	if l < 0 {
		return 0
	}
	b, t := r.of(id).both()
	bl, tl := &b.links[l], &t.links[l]
	var buf [16]cursor
	merge(tl.runs(bl.runs(buf[:0])), fn)
	return bl.series.n + tl.series.n
}

// GroupUsage summarizes Traffic-data usage structure per country group —
// the §7 extension ("Expanding the study of usage to more countries"):
// does the volume concentration the paper found in US homes hold
// elsewhere?
type GroupUsage struct {
	Homes            int
	WhitelistedShare float64 // of volume
	StreamingShare   float64 // of volume, by domain category
	TopDomainShare   float64 // mean per-home top-domain volume share
	TotalBytes       int64
}

// UsageByGroup computes the extension comparison over the homes with
// flow rows, grouped by ro. A home's streaming volume is that of its
// whitelisted domains of the streaming category; its top-domain share is
// its largest named domain's share of its named volume.
func (r *Rollup) UsageByGroup(ro *Roster) map[Group]GroupUsage {
	type agg struct {
		homes                   int
		named, streaming, total int64
		tops                    []float64
	}
	var groups [2]agg
	var sc rankScratch
	r.each(func(v homeView) {
		if v.has()&HasTraffic == 0 {
			return
		}
		g, ok := ro.group(v.id())
		if !ok {
			return
		}
		a := &groups[g]
		s := v.totals()
		a.homes++
		a.total += s.bytes
		a.named += s.whitelisted
		for _, h := range [2]*home{v.b, v.t} {
			if h == nil {
				continue
			}
			for _, d := range h.domains {
				if byVolumeWhitelisted.keep(d.name) && domains.CategoryOf(d.name) == domains.Streaming {
					a.streaming += d.bytes
				}
			}
		}
		if s.namedBytes > 0 {
			top := v.top(byVolumeNamed, 1, &sc)
			a.tops = append(a.tops, float64(top[0].bytes)/float64(s.namedBytes))
		}
	})
	out := map[Group]GroupUsage{}
	for g, a := range groups {
		gu := GroupUsage{Homes: a.homes, TotalBytes: a.total}
		if a.total > 0 {
			gu.WhitelistedShare = float64(a.named) / float64(a.total)
			gu.StreamingShare = float64(a.streaming) / float64(a.total)
		}
		if len(a.tops) > 0 {
			sort.Float64s(a.tops) // home order must not reach the sum's rounding
			gu.TopDomainShare = stats.Mean(a.tops)
		}
		out[Group(g)] = gu
	}
	return out
}
