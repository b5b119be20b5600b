package analysis

import (
	"sort"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/domains"
	"natpeek/internal/geo"
	"natpeek/internal/stats"
)

// localHour converts a UTC instant to the router's local hour and weekend
// flag using the deployment roster.
func localHour(st *dataset.Store, id string, at time.Time) (hour int, weekend bool, ok bool) {
	code, found := st.RouterCountry[id]
	if !found {
		return 0, false, false
	}
	c, found := geo.Lookup(code)
	if !found {
		return 0, false, false
	}
	local := at.Add(c.UTCOffset)
	d := local.Weekday()
	return local.Hour(), d == time.Saturday || d == time.Sunday, true
}

// DiurnalDevices aggregates the Devices censuses into mean connected
// wireless devices per local hour, split weekday/weekend — Fig. 13.
func DiurnalDevices(st *dataset.Store) (weekday, weekend stats.HourBins) {
	for _, c := range st.Counts {
		h, we, ok := localHour(st, c.RouterID, c.At)
		if !ok {
			continue
		}
		v := float64(c.W24 + c.W5)
		if we {
			weekend.Add(h, v)
		} else {
			weekday.Add(h, v)
		}
	}
	return weekday, weekend
}

// capacityRuns collects one home's positive capacity measurements per
// direction.
type capacityRuns struct {
	ups, downs []float64
}

func (m *capacityRuns) add(c dataset.CapacityMeasure) {
	if c.UpBps > 0 {
		m.ups = append(m.ups, c.UpBps)
	}
	if c.DownBps > 0 {
		m.downs = append(m.downs, c.DownBps)
	}
}

func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Median(xs)
}

// HomeCapacity returns a home's median measured capacity per direction
// over the Capacity data set.
func HomeCapacity(st *dataset.Store, id string) (upBps, downBps float64) {
	var m capacityRuns
	for _, c := range st.Capacity {
		if c.RouterID == id {
			m.add(c)
		}
	}
	return medianOrZero(m.ups), medianOrZero(m.downs)
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
// over minutes with any traffic. One pass groups the throughput samples
// by link and two group the positive capacity measurements by home. A
// link is "up" or "down"; samples with any other Dir stay stored but
// have no capacity to be measured against, so they are left out.
func Saturation(st *dataset.Store) []LinkSaturation {
	type link struct {
		id, dir string
	}
	peaks := groupBy(st.Throughput,
		func(s *dataset.ThroughputSample) (link, bool) {
			return link{s.RouterID, s.Dir}, s.Dir == "up" || s.Dir == "down"
		},
		func(s *dataset.ThroughputSample) float64 { return s.PeakBps })
	ups := groupBy(st.Capacity,
		func(c *dataset.CapacityMeasure) (string, bool) { return c.RouterID, c.UpBps > 0 },
		func(c *dataset.CapacityMeasure) float64 { return c.UpBps })
	downs := groupBy(st.Capacity,
		func(c *dataset.CapacityMeasure) (string, bool) { return c.RouterID, c.DownBps > 0 },
		func(c *dataset.CapacityMeasure) float64 { return c.DownBps })
	var out []LinkSaturation
	for i, k := range peaks.keys {
		ps := peaks.vals[i]
		capBps := medianOrZero(downs.of(k.id))
		if k.dir == "up" {
			capBps = medianOrZero(ups.of(k.id))
		}
		if capBps <= 0 {
			continue
		}
		over := 0
		for _, p := range ps {
			if p > capBps {
				over++
			}
		}
		p95 := stats.Percentile(ps, 95)
		out = append(out, LinkSaturation{
			RouterID:    k.id,
			Dir:         k.dir,
			CapacityBps: capBps,
			P95Bps:      p95,
			Utilization: p95 / capBps,
			Minutes:     len(ps),
			MinutesOver: over,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].RouterID != out[j].RouterID {
			return out[i].RouterID < out[j].RouterID
		}
		return out[i].Dir < out[j].Dir
	})
	return out
}

// UtilizationPoint is one sample of a home's utilization time series
// (Fig. 14/16).
type UtilizationPoint struct {
	Minute  time.Time
	PeakBps float64
}

// UtilizationSeries returns a home's per-minute peak throughput series in
// one direction, sorted by time.
func UtilizationSeries(st *dataset.Store, id, dir string) []UtilizationPoint {
	var out []UtilizationPoint
	for _, s := range st.Throughput {
		if s.RouterID == id && s.Dir == dir {
			out = append(out, UtilizationPoint{s.Minute, s.PeakBps})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Minute.Before(out[j].Minute) })
	return out
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
	type agg struct {
		named, streaming, total float64
		homes                   map[string]bool
	}
	groups := map[Group]*agg{
		Developed:  {homes: map[string]bool{}},
		Developing: {homes: map[string]bool{}},
	}
	for _, f := range st.Flows {
		dev, ok := isDeveloped(st, f.RouterID)
		if !ok {
			continue
		}
		g := Developing
		if dev {
			g = Developed
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
			dev, ok := isDeveloped(st, id)
			if ok && dev == (g == Developed) {
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
