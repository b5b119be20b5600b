// Package analysis computes the paper's statistics from the collected
// data sets. It is organized by paper section: availability (§4),
// infrastructure (§5), and usage (§6). All functions are pure reads over
// a dataset.Store.
package analysis

import (
	"sort"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/geo"
	"natpeek/internal/heartbeat"
	"natpeek/internal/stats"
)

// Group selects the developed/developing split of Table 1.
type Group int

// Country groups.
const (
	Developed Group = iota
	Developing
)

func (g Group) String() string {
	if g == Developed {
		return "developed"
	}
	return "developing"
}

// Roster is a store's deployment roster indexed once: the router IDs
// sorted and split per country and per group. A page enumerates routers
// per group and per country many times over; it builds one Roster and
// none of those calls sorts or scans the roster again.
type Roster struct {
	countries map[string]string // router → country code: st's roster
	byCountry map[string][]string
	byGroup   [2][]string // indexed by Group
}

// NewRoster indexes st's roster. It keeps st.RouterCountry, which must
// not change while the Roster is in use.
func NewRoster(st *dataset.Store) *Roster {
	ro := &Roster{countries: st.RouterCountry, byCountry: map[string][]string{}}
	for _, id := range st.Routers() {
		code := st.RouterCountry[id]
		ro.byCountry[code] = append(ro.byCountry[code], id)
		if c, ok := geo.Lookup(code); ok {
			g := Developing
			if c.Developed {
				g = Developed
			}
			ro.byGroup[g] = append(ro.byGroup[g], id)
		}
	}
	return ro
}

// country resolves a router's country, ok false when the roster does not
// know the router or its country.
func (ro *Roster) country(id string) (geo.Country, bool) {
	code, ok := ro.countries[id]
	if !ok {
		return geo.Country{}, false
	}
	return geo.Lookup(code)
}

// group resolves a router's group.
func (ro *Roster) group(id string) (Group, bool) {
	c, ok := ro.country(id)
	if !ok {
		return 0, false
	}
	if c.Developed {
		return Developed, true
	}
	return Developing, true
}

// InGroup returns the router IDs belonging to a group, sorted. The
// result is shared: callers must not modify it.
func (ro *Roster) InGroup(g Group) []string { return ro.byGroup[g] }

// InCountry returns the router IDs deployed in the country code, sorted.
// The result is shared: callers must not modify it.
func (ro *Roster) InCountry(code string) []string { return ro.byCountry[code] }

// AvailabilityWindow is the analysis window for heartbeat statistics.
type AvailabilityWindow struct {
	From, To  time.Time
	Threshold time.Duration // gap threshold; 0 = the paper's 10 minutes
}

// DowntimesPerDayByGroup computes, per group, each router's average number
// of downtimes per day — the distribution behind Fig. 3.
func DowntimesPerDayByGroup(st *dataset.Store, ro *Roster, w AvailabilityWindow) map[Group][]float64 {
	out := map[Group][]float64{}
	for _, g := range []Group{Developed, Developing} {
		for _, id := range ro.InGroup(g) {
			out[g] = append(out[g], st.Heartbeats.DowntimesPerDay(id, w.From, w.To, w.Threshold))
		}
	}
	return out
}

// DowntimeDurationsByGroup pools every downtime duration (seconds) per
// group — Fig. 4's distribution.
func DowntimeDurationsByGroup(st *dataset.Store, ro *Roster, w AvailabilityWindow) map[Group][]float64 {
	out := map[Group][]float64{}
	for _, g := range []Group{Developed, Developing} {
		for _, id := range ro.InGroup(g) {
			for _, d := range st.Heartbeats.Downtimes(id, w.From, w.To, w.Threshold) {
				out[g] = append(out[g], d.Duration().Seconds())
			}
		}
	}
	return out
}

// MedianTimeBetweenDowntimes returns the per-group median of each
// router's mean time between downtimes (the §4.1 "more than a month vs
// less than a day" comparison). Routers with no downtime contribute the
// window length.
func MedianTimeBetweenDowntimes(st *dataset.Store, ro *Roster, w AvailabilityWindow) map[Group]time.Duration {
	out := map[Group]time.Duration{}
	span := w.To.Sub(w.From)
	for _, g := range []Group{Developed, Developing} {
		var gaps []float64
		for _, id := range ro.InGroup(g) {
			n := len(st.Heartbeats.Downtimes(id, w.From, w.To, w.Threshold))
			if n == 0 {
				gaps = append(gaps, span.Seconds())
			} else {
				gaps = append(gaps, span.Seconds()/float64(n))
			}
		}
		if len(gaps) > 0 {
			out[g] = time.Duration(stats.Median(gaps) * float64(time.Second))
		}
	}
	return out
}

// CountryDowntime is one Fig. 5 scatter point.
type CountryDowntime struct {
	Code            string
	GDPPPP          float64
	Routers         int
	MedianDowntimes float64       // median per-home count over the window
	MedianDuration  time.Duration // median downtime duration (marker size)
}

// DowntimesByCountry computes Fig. 5: the median number of downtimes per
// home in each country with at least minRouters deployed, against GDP.
func DowntimesByCountry(st *dataset.Store, ro *Roster, w AvailabilityWindow, minRouters int) []CountryDowntime {
	var out []CountryDowntime
	for _, c := range geo.All() {
		ids := ro.InCountry(c.Code)
		if len(ids) < minRouters {
			continue
		}
		var counts, durs []float64
		for _, id := range ids {
			downs := st.Heartbeats.Downtimes(id, w.From, w.To, w.Threshold)
			counts = append(counts, float64(len(downs)))
			for _, d := range downs {
				durs = append(durs, d.Duration().Seconds())
			}
		}
		cd := CountryDowntime{
			Code:            c.Code,
			GDPPPP:          c.GDPPPP,
			Routers:         len(ids),
			MedianDowntimes: stats.Median(counts),
		}
		if len(durs) > 0 {
			cd.MedianDuration = time.Duration(stats.Median(durs) * float64(time.Second))
		}
		out = append(out, cd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].GDPPPP < out[j].GDPPPP })
	return out
}

// MedianUptimeFraction returns the median per-router uptime fraction for
// a country (§4.2: US 98.25%, IN 76.01%, ZA 85.57%).
func MedianUptimeFraction(st *dataset.Store, ro *Roster, code string, w AvailabilityWindow) float64 {
	var ups []float64
	for _, id := range ro.InCountry(code) {
		ups = append(ups, st.Heartbeats.UptimeFraction(id, w.From, w.To, w.Threshold))
	}
	if len(ups) == 0 {
		return 0
	}
	return stats.Median(ups)
}

// AvailabilityMode classifies a router's availability pattern into the
// three Fig. 6 archetypes.
type AvailabilityMode string

// Fig. 6 archetypes.
const (
	ModeAlwaysOn  AvailabilityMode = "always-on" // Fig. 6a
	ModeAppliance AvailabilityMode = "appliance" // Fig. 6b
	ModeFlakyISP  AvailabilityMode = "flaky-isp" // Fig. 6c
)

// ClassifyAvailability labels a router by combining heartbeat uptime with
// the Uptime data set: high availability → always-on; low availability
// with uptime counters that reset at every report → appliance (the
// router is being power-cycled); low availability with long-running
// uptime counters → the ISP is flaky while the router stays powered.
func (r *Rollup) ClassifyAvailability(hb *heartbeat.Log, id string, w AvailabilityWindow) AvailabilityMode {
	frac := hb.UptimeFraction(id, w.From, w.To, w.Threshold)
	if frac >= 0.93 {
		return ModeAlwaysOn
	}
	b, t := r.kept.of(id).both()
	n := b.uptime.n + t.uptime.n
	if n == 0 {
		return ModeAppliance
	}
	if float64(b.longUp+t.longUp)/float64(n) >= 0.5 {
		return ModeFlakyISP
	}
	return ModeAppliance
}

// ClassifyAvailability is Rollup.ClassifyAvailability over st.
func ClassifyAvailability(st *dataset.Store, id string, w AvailabilityWindow) AvailabilityMode {
	return keptRollup(st).ClassifyAvailability(st.Heartbeats, id, w)
}

// Timeline returns a router's availability as on-intervals derived from
// its heartbeat runs, for rendering Fig. 6 style strips.
func Timeline(st *dataset.Store, id string, w AvailabilityWindow) []heartbeat.Downtime {
	return st.Heartbeats.Downtimes(id, w.From, w.To, w.Threshold)
}

// FractionWithFrequentDowntime returns the share of a group's routers
// whose downtime frequency exceeds once per every `days` days — the §1
// claim "only 10% of home networks in the developed world saw
// connectivity interruptions … more frequently than once every 10 days,
// but about 50% of home networks in developing countries experienced such
// connectivity interruptions once every 3 days".
func FractionWithFrequentDowntime(st *dataset.Store, ro *Roster, g Group, w AvailabilityWindow, days float64) float64 {
	ids := ro.InGroup(g)
	if len(ids) == 0 {
		return 0
	}
	n := 0
	for _, id := range ids {
		if st.Heartbeats.DowntimesPerDay(id, w.From, w.To, w.Threshold) > 1/days {
			n++
		}
	}
	return float64(n) / float64(len(ids))
}

// DowntimeCause labels why a heartbeat gap happened, inferred by
// cross-referencing the Uptime data set the way §3.3/§4 describe: "we
// can positively verify downtimes caused by powered off routers using
// the Uptime data set", while a router whose uptime counter spans the
// gap was powered the whole time — the outage was in the network.
type DowntimeCause string

// Downtime causes.
const (
	CausePowerOff DowntimeCause = "power-off" // counter reset after the gap
	CauseNetwork  DowntimeCause = "network"   // counter spans the gap
	CauseUnknown  DowntimeCause = "unknown"   // no usable report
)

// ClassifyDowntime infers the cause of one downtime for a router.
func (r *Rollup) ClassifyDowntime(id string, d heartbeat.Downtime) DowntimeCause {
	b, t := r.kept.of(id).both()
	// The first uptime report at or after the gap's end, in (ReportedAt,
	// Uptime) order, tells us when the router last booted: the earliest
	// of the first in each of the base's runs and the tail's.
	var first *uptimeReport
	var buf [4][]uptimeReport
	for _, reports := range bothRuns(buf[:], &b.uptime, &t.uptime) {
		i := sort.Search(len(reports), func(i int) bool { return !reports[i].at.Before(d.End) })
		if i < len(reports) && (first == nil || cmpReport(reports[i], *first) < 0) {
			first = &reports[i]
		}
	}
	if first == nil || first.at.Sub(d.End) > 24*time.Hour {
		return CauseUnknown
	}
	bootedAt := first.at.Add(-first.up)
	// Booted before the gap began (with slack for report cadence): the
	// router was powered throughout — a network outage.
	if bootedAt.Before(d.Start.Add(-time.Minute)) {
		return CauseNetwork
	}
	return CausePowerOff
}

// ClassifyDowntime is Rollup.ClassifyDowntime over st's uptime reports.
func ClassifyDowntime(st *dataset.Store, id string, d heartbeat.Downtime) DowntimeCause {
	return keptRollup(st).ClassifyDowntime(id, d)
}

// DowntimeCauses tallies causes for every downtime of a group within the
// window where Uptime data exists.
func (r *Rollup) DowntimeCauses(hb *heartbeat.Log, ro *Roster, g Group, w AvailabilityWindow) map[DowntimeCause]int {
	out := map[DowntimeCause]int{}
	for _, id := range ro.InGroup(g) {
		for _, d := range hb.Downtimes(id, w.From, w.To, w.Threshold) {
			out[r.ClassifyDowntime(id, d)]++
		}
	}
	return out
}

// DowntimeCauses is Rollup.DowntimeCauses over st.
func DowntimeCauses(st *dataset.Store, ro *Roster, g Group, w AvailabilityWindow) map[DowntimeCause]int {
	return keptRollup(st).DowntimeCauses(st.Heartbeats, ro, g, w)
}
