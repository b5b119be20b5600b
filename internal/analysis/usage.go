package analysis

import (
	"sort"
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

// Saturation computes Fig. 15: per home and direction, the 95th
// percentile of per-minute peak throughput against measured capacity,
// over minutes with any traffic — each home's links as its summary holds
// them (homeView.links), by router and direction.
func (r *Rollup) Saturation() []LinkSaturation {
	var out []LinkSaturation
	for _, k := range r.order {
		out = append(out, r.sums[k].links...)
	}
	return out
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
