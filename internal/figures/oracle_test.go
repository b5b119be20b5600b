package figures

// The per-exhibit flow analyses as they stood before analysis.FlowRollup:
// every one its own pass over st.Flows, its own maps, full sorts. Kept as
// the reference the rollup is compared against (TestRollupMatchesOracles).

import (
	"sort"

	"natpeek/internal/analysis"
	"natpeek/internal/dataset"
	"natpeek/internal/mac"
	"natpeek/internal/ouidb"
	"natpeek/internal/stats"
)

func oracleDeviceShares(st *dataset.Store) map[string][]float64 {
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

func oracleMeanTopDeviceShare(st *dataset.Store, minDevices int) float64 {
	var tops []float64
	for _, shares := range oracleDeviceShares(st) {
		if len(shares) >= minDevices {
			tops = append(tops, shares[0])
		}
	}
	return stats.Mean(tops)
}

func oraclePopularDomains(st *dataset.Store) []analysis.DomainPopularity {
	perHome := map[string]map[string]float64{}
	for _, f := range st.Flows {
		// Fig. 18 plots nameable domains; obfuscated tokens cannot appear
		// on its x-axis.
		if f.Domain == "" || oracleIsAnonToken(f.Domain) {
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
	var out []analysis.DomainPopularity
	for _, rc := range top10.Ranked() {
		out = append(out, analysis.DomainPopularity{
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

func oracleDomainShares(st *dataset.Store, maxRank int) analysis.DomainShareCurves {
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
	out := analysis.DomainShareCurves{
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

func oracleWhitelistedVolumeShare(st *dataset.Store) float64 {
	var named, total float64
	for _, f := range st.Flows {
		b := float64(f.Bytes())
		total += b
		if f.Domain != "" && !oracleIsAnonToken(f.Domain) {
			named += b
		}
	}
	if total == 0 {
		return 0
	}
	return named / total
}

func oracleIsAnonToken(d string) bool {
	return len(d) > 5 && d[:5] == "anon-"
}

func oracleDeviceDomains(st *dataset.Store, dev mac.Addr) []analysis.DomainShare {
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
	var out []analysis.DomainShare
	for d, v := range vol {
		out = append(out, analysis.DomainShare{Domain: d, Share: v / total})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Domain < out[j].Domain
	})
	return out
}

func oracleTopDevicesByVolume(st *dataset.Store) []mac.Addr {
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

func oracleManufacturerHistogram(st *dataset.Store, minBytes int64) []analysis.ManufacturerCount {
	// Volume per device across flows.
	vol := map[mac.Addr]int64{}
	for _, f := range st.Flows {
		vol[f.Device] += f.Bytes()
	}
	counts := map[ouidb.Category]map[mac.Addr]bool{}
	for dev, b := range vol {
		if b < minBytes || ouidb.IsBISmarkRouter(dev) {
			continue
		}
		e := ouidb.Lookup(dev)
		if e.Category == ouidb.CatUnknown {
			continue
		}
		m := counts[e.Category]
		if m == nil {
			m = map[mac.Addr]bool{}
			counts[e.Category] = m
		}
		m[dev] = true
	}
	var out []analysis.ManufacturerCount
	for cat, m := range counts {
		out = append(out, analysis.ManufacturerCount{Category: cat, Devices: len(m)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Devices != out[j].Devices {
			return out[i].Devices > out[j].Devices
		}
		return out[i].Category < out[j].Category
	})
	return out
}

func oracleBusiestTrafficHome(st *dataset.Store) string {
	vol := map[string]int64{}
	for _, f := range st.Flows {
		vol[f.RouterID] += f.Bytes()
	}
	best, bestV := "", int64(-1)
	for _, id := range sortedKeys(vol) {
		if vol[id] > bestV {
			best, bestV = id, vol[id]
		}
	}
	return best
}
