package analysis

import (
	"bytes"
	"slices"
	"sort"

	"natpeek/internal/dataset"
	"natpeek/internal/mac"
	"natpeek/internal/ouidb"
	"natpeek/internal/stats"
)

// FlowRollup is the Traffic flows summed once into what the usage
// exhibits read: per home, the bytes and connections of every domain and
// the bytes of every device. Table 2 and Figs. 12, 14 and 17–20 are all
// answered from it, so a page costs one pass over the flows rather than
// one per exhibit. Sums are kept as integers; they are exact in any
// order, which is what lets an exhibit computed from the rollup match,
// bit for bit, one computed row by row.
type FlowRollup struct {
	flows   []dataset.FlowRecord // Fig. 20 reads its few subjects' rows directly
	homes   []*homeFlows         // first-seen order
	devices []deviceTotals       // fleet-wide: a device's bytes across every home it is in
}

type homeFlows struct {
	id      string
	bytes   int64
	domains []domainTotals // first-seen order; may include the unnamed domain ""
	devices []deviceTotals // first-seen order
	domIdx  map[string]int32
	devIdx  map[mac.Addr]int32
}

type domainTotals struct {
	name         string
	bytes, conns int64
}

type deviceTotals struct {
	dev   mac.Addr
	bytes int64
}

// RollupFlows makes the one pass over st.Flows.
func RollupFlows(st *dataset.Store) *FlowRollup {
	r := &FlowRollup{flows: st.Flows}
	byID := map[string]*homeFlows{}
	var h *homeFlows
	for i := range st.Flows {
		f := &st.Flows[i]
		// Rows arrive in per-router runs, so most skip the home lookup.
		if h == nil || h.id != f.RouterID {
			if h = byID[f.RouterID]; h == nil {
				h = &homeFlows{id: f.RouterID, domIdx: map[string]int32{}, devIdx: map[mac.Addr]int32{}}
				byID[f.RouterID] = h
				r.homes = append(r.homes, h)
			}
		}
		b := f.UpBytes + f.DownBytes
		h.bytes += b
		j, ok := h.domIdx[f.Domain]
		if !ok {
			j = int32(len(h.domains))
			h.domIdx[f.Domain] = j
			h.domains = append(h.domains, domainTotals{name: f.Domain})
		}
		h.domains[j].bytes += b
		h.domains[j].conns += f.Conns
		j, ok = h.devIdx[f.Device]
		if !ok {
			j = int32(len(h.devices))
			h.devIdx[f.Device] = j
			h.devices = append(h.devices, deviceTotals{dev: f.Device})
		}
		h.devices[j].bytes += b
	}
	idx := map[mac.Addr]int{}
	for _, h := range r.homes {
		for _, d := range h.devices {
			i, ok := idx[d.dev]
			if !ok {
				i = len(r.devices)
				idx[d.dev] = i
				r.devices = append(r.devices, deviceTotals{dev: d.dev})
			}
			r.devices[i].bytes += d.bytes
		}
	}
	return r
}

// Homes lists the routers with any flow row, in first-seen order.
func (r *FlowRollup) Homes() []string {
	out := make([]string, len(r.homes))
	for i, h := range r.homes {
		out[i] = h.id
	}
	return out
}

// BusiestHome returns the home with the most Traffic volume (the lowest
// ID among equals), "" when there are no flows — Fig. 14's subject.
func (r *FlowRollup) BusiestHome() string {
	best, bestV := "", int64(-1)
	for _, h := range r.homes {
		if h.bytes > bestV || h.bytes == bestV && h.id < best {
			best, bestV = h.id, h.bytes
		}
	}
	return best
}

// DeviceShares computes Fig. 17: for each home, the descending fractional
// volume contribution of its devices.
func (r *FlowRollup) DeviceShares() map[string][]float64 {
	out := make(map[string][]float64, len(r.homes))
	for _, h := range r.homes {
		vs := make([]float64, len(h.devices))
		for i, d := range h.devices {
			vs[i] = float64(d.bytes)
		}
		out[h.id] = stats.Share(vs)
	}
	return out
}

// MeanTopShare averages the dominant device's share across the homes of
// a DeviceShares result with at least minDevices devices (§6.3: ≈60–65%).
func MeanTopShare(shares map[string][]float64, minDevices int) float64 {
	var tops []float64
	for _, sh := range shares {
		if len(sh) >= minDevices {
			tops = append(tops, sh[0])
		}
	}
	sort.Float64s(tops) // map order must not reach the sum's rounding
	return stats.Mean(tops)
}

// topDomains returns the at most k domains of h that rank highest by val
// — ties broken by name, which is unique within a home — among those keep
// accepts. It holds the running top k in order, so a home's long tail of
// single-flow anonymised domains costs one comparison each, not a sort.
func topDomains(h *homeFlows, k int, val func(*domainTotals) int64, keep func(*domainTotals) bool) []*domainTotals {
	before := func(a, b *domainTotals) bool {
		if v, w := val(a), val(b); v != w {
			return v > w
		}
		return a.name < b.name
	}
	top := make([]*domainTotals, 0, k)
	for i := range h.domains {
		d := &h.domains[i]
		switch {
		case !keep(d):
			continue
		case len(top) < k:
			top = append(top, d)
		case k > 0 && before(d, top[k-1]):
			top[k-1] = d
		default:
			continue
		}
		for j := len(top) - 1; j > 0 && before(top[j], top[j-1]); j-- {
			top[j], top[j-1] = top[j-1], top[j]
		}
	}
	return top
}

func domainBytes(d *domainTotals) int64 { return d.bytes }
func domainConns(d *domainTotals) int64 { return d.conns }
func isNamed(d *domainTotals) bool      { return d.name != "" }
func isWhitelisted(d *domainTotals) bool {
	return d.name != "" && !isAnonToken(d.name)
}

// DomainPopularity counts how many homes have a domain in their top-5 and
// top-10 by volume — Fig. 18. Only named (whitelisted) domains count.
type DomainPopularity struct {
	Domain string
	Top5   int
	Top10  int
}

// PopularDomains computes Fig. 18 ranked by top-5 appearances. Fig. 18
// plots nameable domains; obfuscated tokens cannot appear on its x-axis.
func (r *FlowRollup) PopularDomains() []DomainPopularity {
	top5 := stats.NewCounter()
	top10 := stats.NewCounter()
	for _, h := range r.homes {
		for i, d := range topDomains(h, 10, domainBytes, isWhitelisted) {
			if i < 5 {
				top5.Add(d.name, 1)
			}
			top10.Add(d.name, 1)
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

// DomainShareCurves is Fig. 19: per home, domains ranked by volume with
// their volume share, connection share, and the connection share of the
// top-by-volume ranks, as mean curves across homes truncated to maxRank.
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

// DomainShares computes the Fig. 19 curves over the named domains.
func (r *FlowRollup) DomainShares(maxRank int) DomainShareCurves {
	out := DomainShareCurves{
		VolumeShare:         make([]float64, maxRank),
		ConnShareByConnRank: make([]float64, maxRank),
		ConnShareByVolRank:  make([]float64, maxRank),
	}
	n := 0
	for _, h := range r.homes {
		var vol, conns int64
		for i := range h.domains {
			if d := &h.domains[i]; isNamed(d) {
				vol += d.bytes
				conns += d.conns
			}
		}
		if vol == 0 || conns == 0 {
			continue
		}
		n++
		volTotal, connTotal := float64(vol), float64(conns)
		for i, d := range topDomains(h, maxRank, domainBytes, isNamed) {
			out.VolumeShare[i] += float64(d.bytes) / volTotal
			out.ConnShareByVolRank[i] += float64(d.conns) / connTotal
		}
		for i, d := range topDomains(h, maxRank, domainConns, isNamed) {
			out.ConnShareByConnRank[i] += float64(d.conns) / connTotal
		}
	}
	if n == 0 {
		return out
	}
	for i := 0; i < maxRank; i++ {
		out.VolumeShare[i] /= float64(n)
		out.ConnShareByConnRank[i] /= float64(n)
		out.ConnShareByVolRank[i] /= float64(n)
	}
	return out
}

// WhitelistedVolumeShare returns the fraction of Traffic volume going to
// named (non-anonymized) domains (§6.4: ≈65%).
func (r *FlowRollup) WhitelistedVolumeShare() float64 {
	var named, total int64
	for _, h := range r.homes {
		total += h.bytes
		for i := range h.domains {
			if d := &h.domains[i]; isWhitelisted(d) {
				named += d.bytes
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(named) / float64(total)
}

func isAnonToken(d string) bool {
	return len(d) > 5 && d[:5] == "anon-"
}

// TopDevicesByVolume lists the Traffic data set's devices ranked by
// volume, ties by address (used to pick Fig. 20 subjects).
func (r *FlowRollup) TopDevicesByVolume() []mac.Addr {
	vols := slices.Clone(r.devices)
	sort.Slice(vols, func(i, j int) bool {
		if vols[i].bytes != vols[j].bytes {
			return vols[i].bytes > vols[j].bytes
		}
		// Addr.String is fixed-width hex, so the bytes order as it does.
		return bytes.Compare(vols[i].dev[:], vols[j].dev[:]) < 0
	})
	devs := make([]mac.Addr, len(vols))
	for i, v := range vols {
		devs[i] = v.dev
	}
	return devs
}

// DomainShare is one domain of a device's volume distribution — Fig. 20's
// fingerprinting view. Shares are of the device's total volume.
type DomainShare struct {
	Domain string
	Share  float64
}

// DeviceDomains computes the Fig. 20 mix for a device, ranked descending.
func (r *FlowRollup) DeviceDomains(dev mac.Addr) []DomainShare {
	vol := map[string]int64{}
	var total int64
	for i := range r.flows {
		if f := &r.flows[i]; f.Device == dev {
			b := f.UpBytes + f.DownBytes
			vol[f.Domain] += b
			total += b
		}
	}
	if total == 0 {
		return nil
	}
	out := make([]DomainShare, 0, len(vol))
	for d, v := range vol {
		out = append(out, DomainShare{Domain: d, Share: float64(v) / float64(total)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Domain < out[j].Domain
	})
	return out
}

// ManufacturerCount is one Fig. 12 bar.
type ManufacturerCount struct {
	Category ouidb.Category
	Devices  int
}

// ManufacturerHistogram counts devices per Fig. 12 category across the
// Traffic-subset homes, excluding the platform's own Netgear hardware and
// devices below the paper's 100 KB traffic floor.
func (r *FlowRollup) ManufacturerHistogram(minBytes int64) []ManufacturerCount {
	counts := map[ouidb.Category]int{}
	for _, d := range r.devices {
		if d.bytes < minBytes || ouidb.IsBISmarkRouter(d.dev) {
			continue
		}
		if cat := ouidb.Lookup(d.dev).Category; cat != ouidb.CatUnknown {
			counts[cat]++
		}
	}
	var out []ManufacturerCount
	for cat, n := range counts {
		out = append(out, ManufacturerCount{Category: cat, Devices: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Devices != out[j].Devices {
			return out[i].Devices > out[j].Devices
		}
		return out[i].Category < out[j].Category
	})
	return out
}

// The stand-alone forms of the exhibits above. Each pays for a rollup of
// its own; code that renders several (figures.All) builds one and calls
// the methods.

// DeviceShares is FlowRollup.DeviceShares over st's flows.
func DeviceShares(st *dataset.Store) map[string][]float64 { return RollupFlows(st).DeviceShares() }

// MeanTopDeviceShare is MeanTopShare of st's DeviceShares.
func MeanTopDeviceShare(st *dataset.Store, minDevices int) float64 {
	return MeanTopShare(DeviceShares(st), minDevices)
}

// PopularDomains is FlowRollup.PopularDomains over st's flows.
func PopularDomains(st *dataset.Store) []DomainPopularity { return RollupFlows(st).PopularDomains() }

// DomainShares is FlowRollup.DomainShares over st's flows.
func DomainShares(st *dataset.Store, maxRank int) DomainShareCurves {
	return RollupFlows(st).DomainShares(maxRank)
}

// WhitelistedVolumeShare is FlowRollup.WhitelistedVolumeShare over st's flows.
func WhitelistedVolumeShare(st *dataset.Store) float64 {
	return RollupFlows(st).WhitelistedVolumeShare()
}

// TopDevicesByVolume is FlowRollup.TopDevicesByVolume over st's flows.
func TopDevicesByVolume(st *dataset.Store) []mac.Addr { return RollupFlows(st).TopDevicesByVolume() }

// DeviceDomains is FlowRollup.DeviceDomains over st's flows; it needs no
// sums, only the device's own rows.
func DeviceDomains(st *dataset.Store, dev mac.Addr) []DomainShare {
	return (&FlowRollup{flows: st.Flows}).DeviceDomains(dev)
}

// ManufacturerHistogram is FlowRollup.ManufacturerHistogram over st's flows.
func ManufacturerHistogram(st *dataset.Store, minBytes int64) []ManufacturerCount {
	return RollupFlows(st).ManufacturerHistogram(minBytes)
}
