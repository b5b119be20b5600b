package analysis

import (
	"slices"
	"sort"
	"strings"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/domains"
	"natpeek/internal/stats"
)

// DiurnalDevices aggregates the Devices censuses into mean connected
// wireless devices per local hour, split weekday/weekend — Fig. 13. Each
// router's half-hour-of-week bins are rotated by its country's offset;
// routers of unknown country are left out.
func (r *Rollup) DiurnalDevices(ro *Roster) (weekday, weekend stats.HourBins) {
	var sums [2][24]int64
	var counts [2][24]int
	r.kept.each(func(p keptPair) {
		c, ok := ro.country(p.id())
		if !ok {
			return
		}
		shift := int(c.UTCOffset / (30 * time.Minute))
		for _, h := range [2]*keptHome{p.b, p.t} {
			if h == nil {
				continue
			}
			for _, b := range h.census.bins {
				if b.n == 0 {
					continue
				}
				local := (int(b.at) + shift + weekHalfHours) % weekHalfHours
				we := 0
				if day := time.Weekday(local / 48); day == time.Saturday || day == time.Sunday {
					we = 1
				}
				sums[we][local%48/2] += b.sum
				counts[we][local%48/2] += int(b.n)
			}
		}
	})
	for h := 0; h < 24; h++ {
		weekday.Sum[h], weekday.Count[h] = float64(sums[0][h]), counts[0][h]
		weekend.Sum[h], weekend.Count[h] = float64(sums[1][h]), counts[1][h]
	}
	return weekday, weekend
}

// DiurnalDevices is Rollup.DiurnalDevices over st's censuses.
func DiurnalDevices(st *dataset.Store) (weekday, weekend stats.HourBins) {
	return keptRollup(st).DiurnalDevices(NewRoster(st))
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
	b, t := r.kept.of(id).both()
	return medianOrZero(&b.capUp, &t.capUp), medianOrZero(&b.capDown, &t.capDown)
}

// HomeCapacity is Rollup.HomeCapacity over st's capacity rows.
func HomeCapacity(st *dataset.Store, id string) (upBps, downBps float64) {
	return keptRollup(st).HomeCapacity(id)
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
// over minutes with any traffic. The percentile, the capacity median
// and the minutes over capacity are selections and binary searches over
// each link's sorted peaks and each home's sorted capacities, base and
// tail. A link is "up" or "down"; samples with any other Dir stay stored
// but have no capacity to be measured against, so they are left out.
func (r *Rollup) Saturation() []LinkSaturation {
	out := make([]LinkSaturation, 0, 2*len(r.kept.homes))
	r.kept.each(func(p keptPair) {
		b, t := p.both()
		for l, dir := range linkDirs {
			bp, tp := &b.links[l].peaks, &t.links[l].peaks
			if bp.n+tp.n == 0 {
				continue
			}
			capBps := medianOrZero(&b.capDown, &t.capDown)
			if dir == "up" {
				capBps = medianOrZero(&b.capUp, &t.capUp)
			}
			if capBps <= 0 {
				continue
			}
			p95 := quantile(0.95, bp, tp)
			out = append(out, LinkSaturation{
				RouterID:    p.id(),
				Dir:         dir,
				CapacityBps: capBps,
				P95Bps:      p95,
				Utilization: p95 / capBps,
				Minutes:     bp.n + tp.n,
				MinutesOver: countAbove(bp, capBps) + countAbove(tp, capBps),
			})
		}
	})
	slices.SortFunc(out, func(a, b LinkSaturation) int {
		if c := strings.Compare(a.RouterID, b.RouterID); c != 0 {
			return c
		}
		return strings.Compare(a.Dir, b.Dir)
	})
	if len(out) == 0 {
		return nil
	}
	return out
}

// Saturation is Rollup.Saturation over st's rows.
func Saturation(st *dataset.Store) []LinkSaturation { return keptRollup(st).Saturation() }

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

// UtilizationSeries returns a home's per-minute peak throughput series in
// one direction, "up" or "down", sorted by time. Its samples are taken in
// arrival order and sorted as one slice, so minutes that repeat come out
// as a row scan would have them.
func (r *Rollup) UtilizationSeries(id, dir string) []UtilizationPoint {
	l := linkOf(dir)
	if l < 0 {
		return nil
	}
	b, t := r.kept.of(id).both()
	bs, ts := &b.links[l].series, &t.links[l].series
	if bs.n+ts.n == 0 {
		return nil
	}
	out := make([]UtilizationPoint, 0, bs.n+ts.n)
	add := func(p UtilizationPoint) { out = append(out, p) }
	bs.each(0, add)
	ts.each(0, add)
	sort.Slice(out, func(i, j int) bool { return out[i].Minute.Before(out[j].Minute) })
	return out
}

// UtilizationSeries is Rollup.UtilizationSeries over st's rows.
func UtilizationSeries(st *dataset.Store, id, dir string) []UtilizationPoint {
	return keptRollup(st).UtilizationSeries(id, dir)
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

// UsageByGroup computes the extension comparison.
func UsageByGroup(st *dataset.Store) map[Group]GroupUsage {
	ro := NewRoster(st)
	type agg struct {
		named, streaming, total float64
		homes                   map[string]bool
	}
	groups := map[Group]*agg{
		Developed:  {homes: map[string]bool{}},
		Developing: {homes: map[string]bool{}},
	}
	for _, f := range st.Flows {
		g, ok := ro.group(f.RouterID)
		if !ok {
			continue
		}
		a := groups[g]
		b := float64(f.Bytes())
		a.total += b
		a.homes[f.RouterID] = true
		if f.Domain != "" && !isAnonToken(f.Domain) {
			a.named += b
			if domains.CategoryOf(f.Domain) == domains.Streaming {
				a.streaming += b
			}
		}
	}
	// Mean per-home top-domain share, split by group.
	topByHome := map[string]float64{}
	for id, shares := range perHomeDomainShares(st) {
		if len(shares) > 0 {
			topByHome[id] = shares[0]
		}
	}
	out := map[Group]GroupUsage{}
	for g, a := range groups {
		gu := GroupUsage{Homes: len(a.homes), TotalBytes: int64(a.total)}
		if a.total > 0 {
			gu.WhitelistedShare = a.named / a.total
			gu.StreamingShare = a.streaming / a.total
		}
		var tops []float64
		for id, top := range topByHome {
			if hg, ok := ro.group(id); ok && hg == g {
				tops = append(tops, top)
			}
		}
		if len(tops) > 0 {
			sort.Float64s(tops) // map order must not reach the sum's rounding
			gu.TopDomainShare = stats.Mean(tops)
		}
		out[g] = gu
	}
	return out
}

// perHomeDomainShares returns each home's descending domain volume
// shares (named domains only).
func perHomeDomainShares(st *dataset.Store) map[string][]float64 {
	vol := map[string]map[string]float64{}
	for _, f := range st.Flows {
		if f.Domain == "" {
			continue
		}
		m := vol[f.RouterID]
		if m == nil {
			m = map[string]float64{}
			vol[f.RouterID] = m
		}
		m[f.Domain] += float64(f.Bytes())
	}
	out := map[string][]float64{}
	for id, m := range vol {
		var vs []float64
		for _, v := range m {
			vs = append(vs, v)
		}
		out[id] = stats.Share(vs)
	}
	return out
}
