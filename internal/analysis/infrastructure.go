package analysis

import (
	"sort"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/mac"
	"natpeek/internal/stats"
)

// UniqueDevicesPerHome counts the distinct (anonymized) devices each home
// ever connected — Fig. 7's distribution.
func UniqueDevicesPerHome(st *dataset.Store) map[string]int {
	seen := map[string]map[mac.Addr]bool{}
	for _, s := range st.Sightings {
		m := seen[s.RouterID]
		if m == nil {
			m = map[mac.Addr]bool{}
			seen[s.RouterID] = m
		}
		m[s.Device] = true
	}
	out := make(map[string]int, len(seen))
	for id, m := range seen {
		out[id] = len(m)
	}
	return out
}

// ConnectedAverages is Fig. 8/9's summary: the mean (and stddev) number of
// devices connected at any given census instant, split by kind.
type ConnectedAverages struct {
	Wired, Wireless, W24, W5 stats.Summary
}

// ConnectedByGroup computes per-group connected-device averages across
// all census rows.
func ConnectedByGroup(st *dataset.Store) map[Group]ConnectedAverages {
	type samples struct{ wired, wireless, w24, w5 []float64 }
	byGroup := map[Group]*samples{}
	for _, c := range st.Counts {
		dev, ok := isDeveloped(st, c.RouterID)
		if !ok {
			continue
		}
		g := Developing
		if dev {
			g = Developed
		}
		s := byGroup[g]
		if s == nil {
			series := func() []float64 { return make([]float64, 0, len(st.Counts)) }
			s = &samples{series(), series(), series(), series()}
			byGroup[g] = s
		}
		s.wired = append(s.wired, float64(c.Wired))
		s.wireless = append(s.wireless, float64(c.W24+c.W5))
		s.w24 = append(s.w24, float64(c.W24))
		s.w5 = append(s.w5, float64(c.W5))
	}
	out := map[Group]ConnectedAverages{}
	for g, s := range byGroup {
		out[g] = ConnectedAverages{
			Wired:    stats.Summarize(s.wired),
			Wireless: stats.Summarize(s.wireless),
			W24:      stats.Summarize(s.w24),
			W5:       stats.Summarize(s.w5),
		}
	}
	return out
}

// UniqueDevicesPerBand counts each home's distinct devices per wireless
// band — Fig. 10 (paper: median 5 on 2.4 GHz, 2 on 5 GHz).
func UniqueDevicesPerBand(st *dataset.Store) (b24, b5 []float64) {
	type key struct {
		id   string
		kind dataset.ConnKind
	}
	seen := map[key]map[mac.Addr]bool{}
	homes := map[string]bool{}
	for _, s := range st.Sightings {
		homes[s.RouterID] = true
		if s.Kind == dataset.Wired {
			continue
		}
		k := key{s.RouterID, s.Kind}
		m := seen[k]
		if m == nil {
			m = map[mac.Addr]bool{}
			seen[k] = m
		}
		m[s.Device] = true
	}
	for id := range homes {
		b24 = append(b24, float64(len(seen[key{id, dataset.Wireless24}])))
		b5 = append(b5, float64(len(seen[key{id, dataset.Wireless5}])))
	}
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

// AlwaysConnected computes Table 5 per group.
func AlwaysConnected(st *dataset.Store, minSpan time.Duration) map[Group]AlwaysConnectedShare {
	// Census instants per router.
	censuses := map[string][]time.Time{}
	for _, c := range st.Counts {
		censuses[c.RouterID] = append(censuses[c.RouterID], c.At)
	}
	// Sightings grouped per router, then per device, so the scan below
	// only visits each home's own devices (a flat device map made this
	// O(homes × fleet-wide devices), which bites at fleet scale).
	type devInfo struct {
		count int
		kind  dataset.ConnKind
	}
	sightings := map[string]map[mac.Addr]*devInfo{}
	for _, s := range st.Sightings {
		m := sightings[s.RouterID]
		if m == nil {
			m = map[mac.Addr]*devInfo{}
			sightings[s.RouterID] = m
		}
		d := m[s.Device]
		if d == nil {
			d = &devInfo{}
			m[s.Device] = d
		}
		d.count++
		d.kind = s.Kind
	}
	out := map[Group]AlwaysConnectedShare{}
	for id, cs := range censuses {
		dev, ok := isDeveloped(st, id)
		if !ok || len(cs) == 0 {
			continue
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i].Before(cs[j]) })
		span := cs[len(cs)-1].Sub(cs[0])
		g := Developing
		if dev {
			g = Developed
		}
		share := out[g]
		share.Homes++
		if span >= minSpan {
			wired, wireless := false, false
			for _, d := range sightings[id] {
				if d.count < len(cs) {
					continue
				}
				if d.kind == dataset.Wired {
					wired = true
				} else {
					wireless = true
				}
			}
			if wired {
				share.WithWired++
			}
			if wireless {
				share.WithWireless++
			}
		}
		out[g] = share
	}
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
func VisibleAPsByGroup(st *dataset.Store) map[Group][]float64 {
	perHome := map[string][]float64{}
	for _, s := range st.WiFi {
		if s.Band != "2.4GHz" {
			continue
		}
		perHome[s.RouterID] = append(perHome[s.RouterID], float64(s.VisibleAPs))
	}
	out := map[Group][]float64{}
	for id, aps := range perHome {
		dev, ok := isDeveloped(st, id)
		if !ok {
			continue
		}
		g := Developing
		if dev {
			g = Developed
		}
		out[g] = append(out[g], stats.Median(aps))
	}
	for g := range out {
		sort.Float64s(out[g])
	}
	return out
}

// AllFourPortsShares returns, per group, the fraction of homes that ever
// used all four Ethernet ports (§5.2: "only a few households use all four
// Ethernet ports (9%)"). Homes are the group's whole roster.
func AllFourPortsShares(st *dataset.Store) map[Group]float64 {
	maxWired := map[string]int{}
	for _, c := range st.Counts {
		if c.Wired > maxWired[c.RouterID] {
			maxWired[c.RouterID] = c.Wired
		}
	}
	homes, full := map[Group]int{}, map[Group]int{}
	for id := range st.RouterCountry {
		dev, ok := isDeveloped(st, id)
		if !ok {
			continue
		}
		g := Developing
		if dev {
			g = Developed
		}
		homes[g]++
		if maxWired[id] >= 4 {
			full[g]++
		}
	}
	out := map[Group]float64{}
	for g, n := range homes {
		out[g] = float64(full[g]) / float64(n)
	}
	return out
}

// AllFourPortsShare is AllFourPortsShares for one group.
func AllFourPortsShare(st *dataset.Store, g Group) float64 { return AllFourPortsShares(st)[g] }
