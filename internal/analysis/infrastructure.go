package analysis

import (
	"time"

	"natpeek/internal/stats"
)

// The kept-kind exhibits are passes over the home summaries (summary),
// which hold what each reads of a home, with the roster laid over them
// once per page (placed).

// UniqueDevicesPerHome counts the distinct (anonymized) devices each home
// ever connected — Fig. 7's distribution.
func (r *Rollup) UniqueDevicesPerHome() map[string]int {
	out := make(map[string]int, len(r.sums))
	for _, s := range r.sums {
		if s.devices > 0 {
			out[s.id()] = int(s.devices)
		}
	}
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
	for k, p := range r.placed(ro) {
		if p.group >= 0 {
			sums[p.group].merge(&r.sums[k].census)
		}
	}
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
// band — Fig. 10 (paper: median 5 on 2.4 GHz, 2 on 5 GHz). Both samples
// come back sorted.
func (r *Rollup) UniqueDevicesPerBand() (b24, b5 []float64) {
	n := 0
	for _, s := range r.sums {
		if s.devices > 0 {
			n++
		}
	}
	if n == 0 {
		return nil, nil
	}
	b24, b5 = make([]float64, 0, n), make([]float64, 0, n)
	for _, s := range r.sums {
		if s.devices > 0 {
			b24 = append(b24, float64(s.dev24))
			b5 = append(b5, float64(s.dev5))
		}
	}
	stats.SortFloats(b24)
	stats.SortFloats(b5)
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
	var shares [2]AlwaysConnectedShare
	for k, p := range r.placed(ro) {
		s := r.sums[k]
		if p.group < 0 || s.census.n == 0 {
			continue
		}
		share := &shares[p.group]
		share.Homes++
		if s.census.last.Sub(s.census.first) >= minSpan {
			if s.alwaysWired {
				share.WithWired++
			}
			if s.alwaysWireless {
				share.WithWireless++
			}
		}
	}
	out := map[Group]AlwaysConnectedShare{}
	for g, s := range shares {
		if s.Homes > 0 {
			s.WiredShare = float64(s.WithWired) / float64(s.Homes)
			s.WirelessShare = float64(s.WithWireless) / float64(s.Homes)
			out[Group(g)] = s
		}
	}
	return out
}

// VisibleAPsByGroup returns each home's median number of 2.4 GHz visible
// APs, per group, sorted — Fig. 11 (developed median ≈20, developing ≈2).
func (r *Rollup) VisibleAPsByGroup(ro *Roster) map[Group][]float64 {
	out := map[Group][]float64{}
	for k, p := range r.placed(ro) {
		if s := r.sums[k]; s.aps && p.group >= 0 {
			out[Group(p.group)] = append(out[Group(p.group)], s.apMedian)
		}
	}
	for g := range out {
		stats.SortFloats(out[g])
	}
	return out
}

// AllFourPortsShares returns, per group, the fraction of homes that ever
// used all four Ethernet ports (§5.2: "only a few households use all four
// Ethernet ports (9%)"). Homes are the group's whole roster.
func (r *Rollup) AllFourPortsShares(ro *Roster) map[Group]float64 {
	var full [2]int
	for k, p := range r.placed(ro) {
		if p.group >= 0 && r.sums[k].census.maxWired >= 4 {
			full[p.group]++
		}
	}
	out := map[Group]float64{}
	for _, g := range []Group{Developed, Developing} {
		if n := len(ro.InGroup(g)); n > 0 {
			out[g] = float64(full[g]) / float64(n)
		}
	}
	return out
}
