package analysis

import (
	"sort"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/stats"
)

// UniqueDevicesPerHome counts the distinct (anonymized) devices each home
// ever connected — Fig. 7's distribution.
func (r *Rollup) UniqueDevicesPerHome() map[string]int {
	out := map[string]int{}
	r.each(func(v homeView) {
		if n := v.deviceCount(); n > 0 {
			out[v.id()] = n
		}
	})
	return out
}

// ConnectedAverages is Fig. 8/9's summary: the mean (and stddev) number of
// devices connected at any given census instant, split by kind.
type ConnectedAverages struct {
	Wired, Wireless, W24, W5 stats.Summary
}

// ConnectedByGroup computes per-group connected-device averages across
// all census rows, from each router's exact integer moments (see
// stats.Moments for how the deviation is computed).
func (r *Rollup) ConnectedByGroup(ro *Roster) map[Group]ConnectedAverages {
	var sums [2]censusTotals
	r.each(func(v homeView) {
		if g, ok := ro.group(v.id()); ok {
			c := v.census()
			sums[g].merge(&c)
		}
	})
	out := map[Group]ConnectedAverages{}
	for g, c := range sums {
		if c.n > 0 {
			out[Group(g)] = ConnectedAverages{
				Wired:    c.wired.Summary(),
				Wireless: c.wireless.Summary(),
				W24:      c.w24.Summary(),
				W5:       c.w5.Summary(),
			}
		}
	}
	return out
}

// UniqueDevicesPerBand counts each home's distinct devices per wireless
// band — Fig. 10 (paper: median 5 on 2.4 GHz, 2 on 5 GHz).
func (r *Rollup) UniqueDevicesPerBand() (b24, b5 []float64) {
	w24, w5 := kindBit(dataset.Wireless24), kindBit(dataset.Wireless5)
	r.each(func(v homeView) {
		var n, n24, n5 int
		v.eachDevice(func(d deviceSeen) {
			n++
			if d.kinds&w24 != 0 {
				n24++
			}
			if d.kinds&w5 != 0 {
				n5++
			}
		})
		if n == 0 {
			return
		}
		b24 = append(b24, float64(n24))
		b5 = append(b5, float64(n5))
	})
	sort.Float64s(b24)
	sort.Float64s(b5)
	return b24, b5
}

// AlwaysConnectedShare computes Table 5: the fraction of homes in each
// group with at least one device present in *every* census its router
// took over a span of at least minSpan (five weeks in the paper), split
// by wired/wireless attachment.
type AlwaysConnectedShare struct {
	Homes         int
	WithWired     int
	WithWireless  int
	WiredShare    float64
	WirelessShare float64
}

// AlwaysConnected computes Table 5 per group: a device sighted at least
// as often as its router took censuses counts, under the kind it was
// last seen as.
func (r *Rollup) AlwaysConnected(ro *Roster, minSpan time.Duration) map[Group]AlwaysConnectedShare {
	out := map[Group]AlwaysConnectedShare{}
	r.each(func(v homeView) {
		c := v.census()
		g, ok := ro.group(v.id())
		if !ok || c.n == 0 {
			return
		}
		share := out[g]
		share.Homes++
		if c.last.Sub(c.first) >= minSpan {
			wired, wireless := false, false
			v.eachDevice(func(d deviceSeen) {
				if int64(d.count) < c.n {
					return
				}
				if d.kind == dataset.Wired {
					wired = true
				} else {
					wireless = true
				}
			})
			if wired {
				share.WithWired++
			}
			if wireless {
				share.WithWireless++
			}
		}
		out[g] = share
	})
	for g, s := range out {
		if s.Homes > 0 {
			s.WiredShare = float64(s.WithWired) / float64(s.Homes)
			s.WirelessShare = float64(s.WithWireless) / float64(s.Homes)
		}
		out[g] = s
	}
	return out
}

// VisibleAPsByGroup returns each home's median number of 2.4 GHz visible
// APs, per group — Fig. 11 (developed median ≈20, developing ≈2).
func (r *Rollup) VisibleAPsByGroup(ro *Roster) map[Group][]float64 {
	out := map[Group][]float64{}
	r.each(func(v homeView) {
		b, t := v.both()
		if b.aps.n+t.aps.n == 0 {
			return
		}
		if g, ok := ro.group(v.id()); ok {
			out[g] = append(out[g], quantile(0.5, &b.aps, &t.aps))
		}
	})
	for g := range out {
		sort.Float64s(out[g])
	}
	return out
}

// AllFourPortsShares returns, per group, the fraction of homes that ever
// used all four Ethernet ports (§5.2: "only a few households use all four
// Ethernet ports (9%)"). Homes are the group's whole roster.
func (r *Rollup) AllFourPortsShares(ro *Roster) map[Group]float64 {
	var full [2]int
	r.each(func(v homeView) {
		if v.census().maxWired < 4 {
			return
		}
		if g, ok := ro.group(v.id()); ok {
			full[g]++
		}
	})
	out := map[Group]float64{}
	for _, g := range []Group{Developed, Developing} {
		if n := len(ro.InGroup(g)); n > 0 {
			out[g] = float64(full[g]) / float64(n)
		}
	}
	return out
}
