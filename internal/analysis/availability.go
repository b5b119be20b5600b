// Package analysis computes the paper's statistics from the collected
// data sets. It is organized by paper section: availability (§4),
// infrastructure (§5), and usage (§6). The heartbeat exhibits read one
// GapIndex per window; every other exhibit is a method of a Rollup, a
// store's rows folded once (rollup.go): RollupOf(st).X(…).
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
			g := groupOf(c)
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
	return groupOf(c), ok
}

// groupOf is the group of a country.
func groupOf(c geo.Country) Group {
	if c.Developed {
		return Developed
	}
	return Developing
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

// GapIndex is every router's downtimes over one AvailabilityWindow,
// found once: a page reads a router's downtimes many times over — per
// group, per country, per cause, per archetype — and builds one index
// per window for all of those reads. It is a snapshot: what the log
// records after NewGapIndex does not show.
type GapIndex struct {
	w      AvailabilityWindow
	downs  map[string][]heartbeat.Downtime
	silent []heartbeat.Downtime // the downtimes of a router with no beats
}

// NewGapIndex runs the gap analysis over w once for every router of hb.
// A router hb has no beats of, such as one only the roster names, reads
// as hb.Downtimes reads it: silent for the whole window.
func NewGapIndex(hb *heartbeat.Log, w AvailabilityWindow) *GapIndex {
	ids := hb.Routers()
	gx := &GapIndex{
		w:      w,
		downs:  make(map[string][]heartbeat.Downtime, len(ids)),
		silent: heartbeat.NewLog().Downtimes("", w.From, w.To, w.Threshold),
	}
	for _, id := range ids {
		gx.downs[id] = hb.Downtimes(id, w.From, w.To, w.Threshold)
	}
	return gx
}

// Window returns the window the index covers.
func (gx *GapIndex) Window() AvailabilityWindow { return gx.w }

// Downtimes returns router id's downtimes over the window. The result is
// shared: callers must not modify it.
func (gx *GapIndex) Downtimes(id string) []heartbeat.Downtime {
	if downs, ok := gx.downs[id]; ok {
		return downs
	}
	return gx.silent
}

// UptimeFraction returns the share of the window not covered by router
// id's downtimes, as heartbeat.Log.UptimeFraction computes it.
func (gx *GapIndex) UptimeFraction(id string) float64 {
	if !gx.w.To.After(gx.w.From) {
		return 0
	}
	var down time.Duration
	for _, d := range gx.Downtimes(id) {
		down += d.Duration()
	}
	return 1 - float64(down)/float64(gx.w.To.Sub(gx.w.From))
}

// perDay returns router id's average number of downtimes per day over
// the window — Fig. 3's x-axis.
func (gx *GapIndex) perDay(id string) float64 {
	days := gx.w.To.Sub(gx.w.From).Hours() / 24
	if days <= 0 {
		return 0
	}
	return float64(len(gx.Downtimes(id))) / days
}

// DowntimesPerDayByGroup computes, per group, each router's average number
// of downtimes per day — the distribution behind Fig. 3.
func DowntimesPerDayByGroup(gx *GapIndex, ro *Roster) map[Group][]float64 {
	out := map[Group][]float64{}
	for _, g := range []Group{Developed, Developing} {
		for _, id := range ro.InGroup(g) {
			out[g] = append(out[g], gx.perDay(id))
		}
	}
	return out
}

// DowntimeDurationsByGroup pools every downtime duration (seconds) per
// group — Fig. 4's distribution.
func DowntimeDurationsByGroup(gx *GapIndex, ro *Roster) map[Group][]float64 {
	out := map[Group][]float64{}
	for _, g := range []Group{Developed, Developing} {
		for _, id := range ro.InGroup(g) {
			for _, d := range gx.Downtimes(id) {
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
func MedianTimeBetweenDowntimes(gx *GapIndex, ro *Roster) map[Group]time.Duration {
	out := map[Group]time.Duration{}
	span := gx.w.To.Sub(gx.w.From)
	for _, g := range []Group{Developed, Developing} {
		var gaps []float64
		for _, id := range ro.InGroup(g) {
			n := len(gx.Downtimes(id))
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
func DowntimesByCountry(gx *GapIndex, ro *Roster, minRouters int) []CountryDowntime {
	var out []CountryDowntime
	for _, c := range geo.All() {
		ids := ro.InCountry(c.Code)
		if len(ids) < minRouters {
			continue
		}
		var counts, durs []float64
		for _, id := range ids {
			downs := gx.Downtimes(id)
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
func MedianUptimeFraction(gx *GapIndex, ro *Roster, code string) float64 {
	var ups []float64
	for _, id := range ro.InCountry(code) {
		ups = append(ups, gx.UptimeFraction(id))
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
func (r *Rollup) ClassifyAvailability(gx *GapIndex, id string) AvailabilityMode {
	frac := gx.UptimeFraction(id)
	if frac >= 0.93 {
		return ModeAlwaysOn
	}
	b, t := r.of(id).both()
	n := b.uptime.n + t.uptime.n
	if n == 0 {
		return ModeAppliance
	}
	if float64(b.longUp+t.longUp)/float64(n) >= 0.5 {
		return ModeFlakyISP
	}
	return ModeAppliance
}

// FractionWithFrequentDowntime returns the share of a group's routers
// whose downtime frequency exceeds once per every `days` days — the §1
// claim "only 10% of home networks in the developed world saw
// connectivity interruptions … more frequently than once every 10 days,
// but about 50% of home networks in developing countries experienced such
// connectivity interruptions once every 3 days".
func FractionWithFrequentDowntime(gx *GapIndex, ro *Roster, g Group, days float64) float64 {
	ids := ro.InGroup(g)
	if len(ids) == 0 {
		return 0
	}
	n := 0
	for _, id := range ids {
		if gx.perDay(id) > 1/days {
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
	b, t := r.of(id).both()
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

// DowntimeCauses tallies causes for every downtime of a group within the
// index's window, which should be one where Uptime data exists.
func (r *Rollup) DowntimeCauses(gx *GapIndex, ro *Roster, g Group) map[DowntimeCause]int {
	out := map[DowntimeCause]int{}
	for _, id := range ro.InGroup(g) {
		for _, d := range gx.Downtimes(id) {
			out[r.ClassifyDowntime(id, d)]++
		}
	}
	return out
}
