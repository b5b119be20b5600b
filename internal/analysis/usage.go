package analysis

import (
	"sort"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/domains"
	"natpeek/internal/geo"
	"natpeek/internal/mac"
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
// by link and one groups the capacity measurements by home.
func Saturation(st *dataset.Store) []LinkSaturation {
	type link struct {
		id, dir string
	}
	peaks := map[link][]float64{}
	for _, s := range st.Throughput {
		k := link{s.RouterID, s.Dir}
		peaks[k] = append(peaks[k], s.PeakBps)
	}
	caps := map[string]*capacityRuns{}
	for _, c := range st.Capacity {
		m := caps[c.RouterID]
		if m == nil {
			m = &capacityRuns{}
			caps[c.RouterID] = m
		}
		m.add(c)
	}
	var out []LinkSaturation
	for k, ps := range peaks {
		m := caps[k.id]
		if m == nil {
			continue
		}
		capBps := medianOrZero(m.downs)
		if k.dir == "up" {
			capBps = medianOrZero(m.ups)
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

// DeviceShares computes Fig. 17: for each home, the descending fractional
// volume contribution of its devices.
func DeviceShares(st *dataset.Store) map[string][]float64 {
	vol := map[string]map[mac.Addr]float64{}
	for _, f := range st.Flows {
		m := vol[f.RouterID]
		if m == nil {
			m = map[mac.Addr]float64{}
			vol[f.RouterID] = m
		}
		m[f.Device] += float64(f.Bytes())
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

// MeanTopDeviceShare averages the dominant device's share across homes
// with at least minDevices devices (§6.3: ≈60–65%).
func MeanTopDeviceShare(st *dataset.Store, minDevices int) float64 {
	var tops []float64
	for _, shares := range DeviceShares(st) {
		if len(shares) >= minDevices {
			tops = append(tops, shares[0])
		}
	}
	return stats.Mean(tops)
}

// DomainPopularity counts how many homes have a domain in their top-5 and
// top-10 by volume — Fig. 18. Only named (whitelisted) domains count.
type DomainPopularity struct {
	Domain string
	Top5   int
	Top10  int
}

// PopularDomains computes Fig. 18 ranked by top-5 appearances.
func PopularDomains(st *dataset.Store) []DomainPopularity {
	perHome := map[string]map[string]float64{}
	for _, f := range st.Flows {
		// Fig. 18 plots nameable domains; obfuscated tokens cannot appear
		// on its x-axis.
		if f.Domain == "" || isAnonToken(f.Domain) {
			continue
		}
		m := perHome[f.RouterID]
		if m == nil {
			m = map[string]float64{}
			perHome[f.RouterID] = m
		}
		m[f.Domain] += float64(f.Bytes())
	}
	top5 := stats.NewCounter()
	top10 := stats.NewCounter()
	for _, m := range perHome {
		type dv struct {
			d string
			v float64
		}
		var ds []dv
		for d, v := range m {
			ds = append(ds, dv{d, v})
		}
		sort.Slice(ds, func(i, j int) bool {
			if ds[i].v != ds[j].v {
				return ds[i].v > ds[j].v
			}
			return ds[i].d < ds[j].d
		})
		for i, e := range ds {
			if i < 5 {
				top5.Add(e.d, 1)
			}
			if i < 10 {
				top10.Add(e.d, 1)
			} else {
				break
			}
		}
	}
	var out []DomainPopularity
	for _, rc := range top10.Ranked() {
		out = append(out, DomainPopularity{
			Domain: rc.Key,
			Top5:   top5.Get(rc.Key),
			Top10:  rc.Count,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Top5 != out[j].Top5 {
			return out[i].Top5 > out[j].Top5
		}
		if out[i].Top10 != out[j].Top10 {
			return out[i].Top10 > out[j].Top10
		}
		return out[i].Domain < out[j].Domain
	})
	return out
}

// DomainShareCurves computes Fig. 19: per home, domains ranked by volume
// with their volume share, connection share, and the connection share of
// the top-by-volume ranks. Returns the mean curves across homes, truncated
// to maxRank.
type DomainShareCurves struct {
	// VolumeShare[i] is the mean share of total volume of each home's
	// rank-(i+1) domain by volume (Fig. 19a).
	VolumeShare []float64
	// ConnShareByConnRank[i] is the mean share of connections of each
	// home's rank-(i+1) domain by connections (Fig. 19b).
	ConnShareByConnRank []float64
	// ConnShareByVolRank[i] is the mean share of connections of each
	// home's rank-(i+1) domain *by volume* (Fig. 19c).
	ConnShareByVolRank []float64
}

// DomainShares computes the Fig. 19 curves.
func DomainShares(st *dataset.Store, maxRank int) DomainShareCurves {
	type homeAgg struct {
		vol   map[string]float64
		conns map[string]float64
	}
	homes := map[string]*homeAgg{}
	for _, f := range st.Flows {
		if f.Domain == "" {
			continue
		}
		h := homes[f.RouterID]
		if h == nil {
			h = &homeAgg{vol: map[string]float64{}, conns: map[string]float64{}}
			homes[f.RouterID] = h
		}
		h.vol[f.Domain] += float64(f.Bytes())
		h.conns[f.Domain] += float64(f.Conns)
	}
	volSum := make([]float64, maxRank)
	connSum := make([]float64, maxRank)
	connByVolSum := make([]float64, maxRank)
	n := 0
	for _, h := range homes {
		var volTotal, connTotal float64
		for _, v := range h.vol {
			volTotal += v
		}
		for _, c := range h.conns {
			connTotal += c
		}
		if volTotal == 0 || connTotal == 0 {
			continue
		}
		n++
		// Rank by volume.
		type dv struct {
			d string
			v float64
		}
		var byVol, byConn []dv
		for d, v := range h.vol {
			byVol = append(byVol, dv{d, v})
		}
		for d, c := range h.conns {
			byConn = append(byConn, dv{d, c})
		}
		less := func(s []dv) func(i, j int) bool {
			return func(i, j int) bool {
				if s[i].v != s[j].v {
					return s[i].v > s[j].v
				}
				return s[i].d < s[j].d
			}
		}
		sort.Slice(byVol, less(byVol))
		sort.Slice(byConn, less(byConn))
		for i := 0; i < maxRank && i < len(byVol); i++ {
			volSum[i] += byVol[i].v / volTotal
			connByVolSum[i] += h.conns[byVol[i].d] / connTotal
		}
		for i := 0; i < maxRank && i < len(byConn); i++ {
			connSum[i] += byConn[i].v / connTotal
		}
	}
	out := DomainShareCurves{
		VolumeShare:         make([]float64, maxRank),
		ConnShareByConnRank: make([]float64, maxRank),
		ConnShareByVolRank:  make([]float64, maxRank),
	}
	if n == 0 {
		return out
	}
	for i := 0; i < maxRank; i++ {
		out.VolumeShare[i] = volSum[i] / float64(n)
		out.ConnShareByConnRank[i] = connSum[i] / float64(n)
		out.ConnShareByVolRank[i] = connByVolSum[i] / float64(n)
	}
	return out
}

// WhitelistedVolumeShare returns the fraction of Traffic volume going to
// named (non-anonymized) domains (§6.4: ≈65%).
func WhitelistedVolumeShare(st *dataset.Store) float64 {
	var named, total float64
	for _, f := range st.Flows {
		b := float64(f.Bytes())
		total += b
		if f.Domain != "" && !isAnonToken(f.Domain) {
			named += b
		}
	}
	if total == 0 {
		return 0
	}
	return named / total
}

func isAnonToken(d string) bool {
	return len(d) > 5 && d[:5] == "anon-"
}

// DeviceDomainMix returns one device's volume distribution over domains —
// Fig. 20's fingerprinting view. Shares are of the device's total volume,
// ranked descending.
type DomainShare struct {
	Domain string
	Share  float64
}

// DeviceDomains computes the Fig. 20 mix for a device.
func DeviceDomains(st *dataset.Store, dev mac.Addr) []DomainShare {
	vol := map[string]float64{}
	total := 0.0
	for _, f := range st.Flows {
		if f.Device != dev {
			continue
		}
		vol[f.Domain] += float64(f.Bytes())
		total += float64(f.Bytes())
	}
	if total == 0 {
		return nil
	}
	var out []DomainShare
	for d, v := range vol {
		out = append(out, DomainShare{Domain: d, Share: v / total})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Domain < out[j].Domain
	})
	return out
}

// TopDevicesByVolume lists the Traffic data set's devices ranked by
// volume (used to pick Fig. 20 subjects).
func TopDevicesByVolume(st *dataset.Store) []mac.Addr {
	vol := map[mac.Addr]float64{}
	for _, f := range st.Flows {
		vol[f.Device] += float64(f.Bytes())
	}
	devs := make([]mac.Addr, 0, len(vol))
	for d := range vol {
		devs = append(devs, d)
	}
	sort.Slice(devs, func(i, j int) bool {
		if vol[devs[i]] != vol[devs[j]] {
			return vol[devs[i]] > vol[devs[j]]
		}
		return devs[i].String() < devs[j].String()
	})
	return devs
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
