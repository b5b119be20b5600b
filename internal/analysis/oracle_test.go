package analysis

// The kept-kind analyses as they stood before the kept kinds were
// folded (kept.go): every exhibit its own pass over the rows, its own
// grouping, its own sorts. Kept as the reference the folded exhibits are
// compared against (TestKeptMatchesOracles).

import (
	"cmp"
	"slices"
	"sort"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/geo"
	"natpeek/internal/heartbeat"
	"natpeek/internal/mac"
	"natpeek/internal/stats"
)

// oracleLocalHour converts a UTC instant to the router's local hour and weekend
// flag using the deployment roster.
func oracleLocalHour(st *dataset.Store, id string, at time.Time) (hour int, weekend bool, ok bool) {
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

// oracleDiurnalDevices aggregates the Devices censuses into mean connected
// wireless devices per local hour, split weekday/weekend — Fig. 13.
func oracleDiurnalDevices(st *dataset.Store) (weekday, weekend stats.HourBins) {
	for _, c := range st.Counts {
		h, we, ok := oracleLocalHour(st, c.RouterID, c.At)
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

// oracleCapacityRuns collects one home's positive capacity measurements per
// direction.
type oracleCapacityRuns struct {
	ups, downs []float64
}

func (m *oracleCapacityRuns) add(c dataset.CapacityMeasure) {
	if c.UpBps > 0 {
		m.ups = append(m.ups, c.UpBps)
	}
	if c.DownBps > 0 {
		m.downs = append(m.downs, c.DownBps)
	}
}

func oracleMedianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Median(xs)
}

// oracleHomeCapacity returns a home's median measured capacity per direction
// over the Capacity data set.
func oracleHomeCapacity(st *dataset.Store, id string) (upBps, downBps float64) {
	var m oracleCapacityRuns
	for _, c := range st.Capacity {
		if c.RouterID == id {
			m.add(c)
		}
	}
	return oracleMedianOrZero(m.ups), oracleMedianOrZero(m.downs)
}

// oracleSaturation computes Fig. 15: per home and direction, the 95th
// percentile of per-minute peak throughput against measured capacity,
// over minutes with any traffic. One pass groups the throughput samples
// by link and two group the positive capacity measurements by home. A
// link is "up" or "down"; samples with any other Dir stay stored but
// have no capacity to be measured against, so they are left out.
func oracleSaturation(st *dataset.Store) []LinkSaturation {
	type link struct {
		id, dir string
	}
	peaks := oracleGroupBy(st.Throughput,
		func(s *dataset.ThroughputSample) (link, bool) {
			return link{s.RouterID, s.Dir}, s.Dir == "up" || s.Dir == "down"
		},
		func(s *dataset.ThroughputSample) float64 { return s.PeakBps })
	ups := oracleGroupBy(st.Capacity,
		func(c *dataset.CapacityMeasure) (string, bool) { return c.RouterID, c.UpBps > 0 },
		func(c *dataset.CapacityMeasure) float64 { return c.UpBps })
	downs := oracleGroupBy(st.Capacity,
		func(c *dataset.CapacityMeasure) (string, bool) { return c.RouterID, c.DownBps > 0 },
		func(c *dataset.CapacityMeasure) float64 { return c.DownBps })
	var out []LinkSaturation
	for i, k := range peaks.keys {
		ps := peaks.vals[i]
		capBps := oracleMedianOrZero(downs.of(k.id))
		if k.dir == "up" {
			capBps = oracleMedianOrZero(ups.of(k.id))
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

// oracleUtilizationSeries returns a home's per-minute peak throughput series in
// one direction, sorted by time, the points of one minute in row order.
func oracleUtilizationSeries(st *dataset.Store, id, dir string) []UtilizationPoint {
	var out []UtilizationPoint
	for _, s := range st.Throughput {
		if s.RouterID == id && s.Dir == dir {
			out = append(out, UtilizationPoint{s.Minute, s.PeakBps})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Minute.Before(out[j].Minute) })
	return out
}

// oracleUniqueDevicesPerHome counts the distinct (anonymized) devices each home
// ever connected — Fig. 7's distribution.
func oracleUniqueDevicesPerHome(st *dataset.Store) map[string]int {
	seen := map[string]map[mac.Addr]bool{}
	var id string
	var m map[mac.Addr]bool // id's devices: sightings come in per-router runs
	for _, s := range st.Sightings {
		if m == nil || s.RouterID != id {
			id = s.RouterID
			if m = seen[id]; m == nil {
				m = map[mac.Addr]bool{}
				seen[id] = m
			}
		}
		m[s.Device] = true
	}
	out := make(map[string]int, len(seen))
	for id, m := range seen {
		out[id] = len(m)
	}
	return out
}

// oracleConnectedByGroup computes per-group connected-device averages across
// all census rows.
func oracleConnectedByGroup(st *dataset.Store) map[Group]ConnectedAverages {
	type samples struct{ wired, wireless, w24, w5 []float64 }
	byGroup := map[Group]*samples{}
	for _, c := range st.Counts {
		dev, ok := oracleIsDeveloped(st, c.RouterID)
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

// oracleUniqueDevicesPerBand counts each home's distinct devices per wireless
// band — Fig. 10 (paper: median 5 on 2.4 GHz, 2 on 5 GHz).
func oracleUniqueDevicesPerBand(st *dataset.Store) (b24, b5 []float64) {
	type key struct {
		id   string
		kind dataset.ConnKind
	}
	seen := map[key]map[mac.Addr]bool{}
	homes := map[string]bool{}
	devices := func(k key) map[mac.Addr]bool {
		m := seen[k]
		if m == nil {
			m = map[mac.Addr]bool{}
			seen[k] = m
		}
		return m
	}
	// Sightings come in per-router runs: a run marks its home and looks
	// up each band's devices once.
	var id string
	var w24, w5 map[mac.Addr]bool
	for i, s := range st.Sightings {
		if i == 0 || s.RouterID != id {
			id, w24, w5 = s.RouterID, nil, nil
			homes[id] = true
		}
		switch s.Kind {
		case dataset.Wireless24:
			if w24 == nil {
				w24 = devices(key{id, s.Kind})
			}
			w24[s.Device] = true
		case dataset.Wireless5:
			if w5 == nil {
				w5 = devices(key{id, s.Kind})
			}
			w5[s.Device] = true
		}
	}
	for id := range homes {
		b24 = append(b24, float64(len(seen[key{id, dataset.Wireless24}])))
		b5 = append(b5, float64(len(seen[key{id, dataset.Wireless5}])))
	}
	sort.Float64s(b24)
	sort.Float64s(b5)
	return b24, b5
}

// oracleAlwaysConnected computes Table 5 per group.
func oracleAlwaysConnected(st *dataset.Store, minSpan time.Duration) map[Group]AlwaysConnectedShare {
	// Census instants per router.
	censuses := oracleGroupBy(st.Counts,
		func(c *dataset.DeviceCount) (string, bool) { return c.RouterID, true },
		func(c *dataset.DeviceCount) time.Time { return c.At })
	// Sightings grouped per router, then per device, so the scan below
	// only visits each home's own devices (a flat device map made this
	// O(homes × fleet-wide devices), which bites at fleet scale).
	type devInfo struct {
		count int
		kind  dataset.ConnKind
	}
	sightings := map[string]map[mac.Addr]*devInfo{}
	var id string
	var m map[mac.Addr]*devInfo // id's devices, kept while its run lasts
	for _, s := range st.Sightings {
		if m == nil || s.RouterID != id {
			id = s.RouterID
			if m = sightings[id]; m == nil {
				m = map[mac.Addr]*devInfo{}
				sightings[id] = m
			}
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
	for i, id := range censuses.keys {
		cs := censuses.vals[i]
		dev, ok := oracleIsDeveloped(st, id)
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

// oracleVisibleAPsByGroup returns each home's median number of 2.4 GHz visible
// APs, per group — Fig. 11 (developed median ≈20, developing ≈2).
func oracleVisibleAPsByGroup(st *dataset.Store) map[Group][]float64 {
	perHome := oracleGroupBy(st.WiFi,
		func(s *dataset.WiFiScan) (string, bool) { return s.RouterID, s.Band == "2.4GHz" },
		func(s *dataset.WiFiScan) float64 { return float64(s.VisibleAPs) })
	out := map[Group][]float64{}
	for i, id := range perHome.keys {
		aps := perHome.vals[i]
		dev, ok := oracleIsDeveloped(st, id)
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

// oracleAllFourPortsShares returns, per group, the fraction of homes that ever
// used all four Ethernet ports (§5.2: "only a few households use all four
// Ethernet ports (9%)"). Homes are the group's whole roster.
func oracleAllFourPortsShares(st *dataset.Store) map[Group]float64 {
	maxWired := map[string]int{}
	for _, c := range st.Counts {
		if c.Wired > maxWired[c.RouterID] {
			maxWired[c.RouterID] = c.Wired
		}
	}
	homes, full := map[Group]int{}, map[Group]int{}
	for id := range st.RouterCountry {
		dev, ok := oracleIsDeveloped(st, id)
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

// oracleClassifyAvailability labels a router by combining heartbeat uptime with
// the Uptime data set: high availability → always-on; low availability
// with uptime counters that reset at every report → appliance (the
// router is being power-cycled); low availability with long-running
// uptime counters → the ISP is flaky while the router stays powered.
func oracleClassifyAvailability(st *dataset.Store, id string, w AvailabilityWindow) AvailabilityMode {
	frac := st.Heartbeats.UptimeFraction(id, w.From, w.To, w.Threshold)
	if frac >= 0.93 {
		return ModeAlwaysOn
	}
	var reports []dataset.UptimeReport
	for _, r := range st.Uptime {
		if r.RouterID == id {
			reports = append(reports, r)
		}
	}
	if len(reports) == 0 {
		return ModeAppliance
	}
	long := 0
	for _, r := range reports {
		if r.Uptime >= 24*time.Hour {
			long++
		}
	}
	if float64(long)/float64(len(reports)) >= 0.5 {
		return ModeFlakyISP
	}
	return ModeAppliance
}

// oracleClassifyDowntime infers the cause of one downtime for a router.
func oracleClassifyDowntime(st *dataset.Store, id string, d heartbeat.Downtime) DowntimeCause {
	var reports []dataset.UptimeReport
	for _, r := range st.Uptime {
		if r.RouterID == id {
			reports = append(reports, r)
		}
	}
	oracleSortUptime(reports)
	return oracleClassifyFromReports(reports, d)
}

// oracleSortUptime orders one router's reports by report time, then counter:
// a total order on what classification reads, so reports taken at one
// instant classify the same whatever order they were uploaded in.
func oracleSortUptime(reports []dataset.UptimeReport) {
	slices.SortFunc(reports, oracleCmpUptime)
}

func oracleCmpUptime(a, b dataset.UptimeReport) int {
	if c := a.ReportedAt.Compare(b.ReportedAt); c != 0 {
		return c
	}
	return cmp.Compare(a.Uptime, b.Uptime)
}

// oracleClassifyFromReports is oracleClassifyDowntime over a pre-sorted slice of one
// router's uptime reports, so callers tallying many downtimes can index
// once and binary-search per gap.
func oracleClassifyFromReports(reports []dataset.UptimeReport, d heartbeat.Downtime) DowntimeCause {
	// The first uptime report at or after the gap's end tells us when the
	// router last booted.
	i := sort.Search(len(reports), func(i int) bool {
		return !reports[i].ReportedAt.Before(d.End)
	})
	if i == len(reports) || reports[i].ReportedAt.Sub(d.End) > 24*time.Hour {
		return CauseUnknown
	}
	best := reports[i]
	bootedAt := best.ReportedAt.Add(-best.Uptime)
	// Booted before the gap began (with slack for report cadence): the
	// router was powered throughout — a network outage.
	if bootedAt.Before(d.Start.Add(-time.Minute)) {
		return CauseNetwork
	}
	return CausePowerOff
}

// oracleDowntimeCauses tallies causes for every downtime of a group within the
// window where Uptime data exists.
func oracleDowntimeCauses(st *dataset.Store, ro *Roster, g Group, w AvailabilityWindow) map[DowntimeCause]int {
	byRouter := oracleGroupBy(st.Uptime,
		func(r *dataset.UptimeReport) (string, bool) { return r.RouterID, true },
		func(r *dataset.UptimeReport) dataset.UptimeReport { return *r })
	for _, reports := range byRouter.vals {
		oracleSortUptime(reports)
	}
	out := map[DowntimeCause]int{}
	for _, id := range ro.InGroup(g) {
		for _, d := range st.Heartbeats.Downtimes(id, w.From, w.To, w.Threshold) {
			out[oracleClassifyFromReports(byRouter.of(id), d)]++
		}
	}
	return out
}

// groups holds a row kind's values grouped by key: keys in first-seen
// order, each key's values in row order.
type oracleGroups[K comparable, V any] struct {
	index map[K]int32
	keys  []K
	vals  [][]V
}

// oracleGroupBy groups the values of rows by key, skipping rows key rejects.
// A row whose key is one of the last two distinct keys reuses its index,
// so the map is consulted once per run, not once per row: rows arrive in
// per-router runs, and within one a router's throughput alternates "up"
// and "down" minute by minute. Allocations are a handful set by the
// number of keys: the values are carved from one array after a counting
// pass. A map of appended slices would cost every key a doubling series
// of allocations, whose length grows with the rows per key — with
// history, on a page that should cost the same however much is sealed.
func oracleGroupBy[R any, K comparable, V any](rows []R, key func(*R) (K, bool), val func(*R) V) *oracleGroups[K, V] {
	g := &oracleGroups[K, V]{index: map[K]int32{}}
	of := make([]int32, len(rows))
	var counts []int
	total := 0
	var recent [2]K             // the last two distinct keys, newest first
	recentJ := [2]int32{-1, -1} // their indexes; -1 while unset
	for i := range rows {
		k, ok := key(&rows[i])
		if !ok {
			of[i] = -1
			continue
		}
		var j int32
		switch {
		case recentJ[0] >= 0 && k == recent[0]:
			j = recentJ[0]
		case recentJ[1] >= 0 && k == recent[1]:
			j = recentJ[1]
		default:
			var seen bool
			if j, seen = g.index[k]; !seen {
				j = int32(len(g.keys))
				g.index[k] = j
				g.keys = append(g.keys, k)
				counts = append(counts, 0)
			}
			recent[1], recentJ[1] = recent[0], recentJ[0]
			recent[0], recentJ[0] = k, j
		}
		of[i] = j
		counts[j]++
		total++
	}
	flat := make([]V, total)
	g.vals = make([][]V, len(g.keys))
	off := 0
	for j, n := range counts {
		g.vals[j] = flat[off : off : off+n]
		off += n
	}
	for i := range rows {
		if j := of[i]; j >= 0 {
			g.vals[j] = append(g.vals[j], val(&rows[i]))
		}
	}
	return g
}

// of returns k's values, nil when no row had key k.
func (g *oracleGroups[K, V]) of(k K) []V {
	if j, ok := g.index[k]; ok {
		return g.vals[j]
	}
	return nil
}

// oracleIsDeveloped resolves a router's group through the roster.
func oracleIsDeveloped(st *dataset.Store, routerID string) (bool, bool) {
	code, ok := st.RouterCountry[routerID]
	if !ok {
		return false, false
	}
	c, ok := geo.Lookup(code)
	if !ok {
		return false, false
	}
	return c.Developed, true
}
