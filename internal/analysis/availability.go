// Package analysis computes the paper's statistics from the collected
// data sets. It is organized by paper section: availability (§4),
// infrastructure (§5), and usage (§6). Every exhibit is a method of a
// Rollup, a store's rows folded once (rollup.go): RollupOf(st).X(…), or
// of the Availability a Rollup carries with a heartbeat log and a roster
// (availability.go) — the heartbeat exhibits and Table 2.
package analysis

import (
	"maps"
	"slices"
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
	all       []string          // every router, sorted
	byCountry map[string][]string
	byGroup   [2][]string // indexed by Group
}

// NewRoster indexes st's roster. It keeps st.RouterCountry, which must
// not change while the Roster is in use.
func NewRoster(st *dataset.Store) *Roster {
	ro := &Roster{countries: st.RouterCountry, all: st.Routers(), byCountry: map[string][]string{}}
	for _, id := range ro.all {
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

// CauseWindow is w cut to where the Uptime data set overlaps it: cause
// inference is only possible there (§3.3: the 12-hour uptime reports
// started in March).
func CauseWindow(w AvailabilityWindow) AvailabilityWindow {
	if w.From.Before(dataset.UptimeFrom) {
		w.From = dataset.UptimeFrom
	}
	if w.To.After(dataset.UptimeTo) {
		w.To = dataset.UptimeTo
	}
	return w
}

// Availability is Figs. 3–6 and Table 2 over one window: an entry per
// router of the roster, the heartbeat log and the homes, in ID order,
// and the aggregates the exhibits read of them, carried from page to
// page as the usage aggregates are (usage.go): a page takes the last
// page's entry of each router whose key has not moved, makes the others,
// and changes the last page's aggregates by the entries that went and
// came (carry). A batch is the same from no last page.
type Availability struct {
	hb      *heartbeat.Log
	ro      *Roster
	w       AvailabilityWindow
	entries []*entry
	made    int // the entries made, not taken from the last
	// By country geo knows and by group ("developed", "developing"):
	// sorted samples (samples).
	samples  map[string]*[numScoped][]float64
	causes   [2][len(causes)]int  // Fig. 4, by group
	codes    map[string]kindTally // Table 2's routers, by roster country
	examples [len(modes)]string   // Fig. 6: the log's first router in each mode
}

// The samples an entry adds to, in its country's and its group's: its
// downtimes per day (Fig. 3), the time between them in seconds (Fig.
// 3's median), their count (Fig. 5), each one's duration in seconds
// (Fig. 5, Fig. 4's longest) and in minutes (Fig. 4), its uptime
// fraction (Fig. 6).
const (
	perDay, between, counts, seconds, minutes, ups, numScoped = 0, 1, 2, 3, 4, 5, 6
)

// kindTally counts, per Table 2 row (KindCounts), routers of a country.
type kindTally [1 + len(tableKinds)]int32

// An entry is one router's availability over a window: its downtimes
// there and over the cause window, and what Figs. 3–6 and Table 2 read
// of them. It follows from three things: the router's heartbeat
// version, its home's summary and its roster country. The version
// moves whenever the log records a beat of it and a summary is replaced
// whenever a row of its home comes, so an entry whose three are the
// last page's is the last page's.
type entry struct {
	id                string
	ver               uint64   // its heartbeat version; 0 without beats
	s                 *summary // its home's; nil without rows
	code              string   // its roster country; "" where the roster lacks it
	downs, causeDowns []heartbeat.Downtime
	up                float64            // its uptime fraction
	tally             [len(causes)]int32 // causeDowns by cause
	mode              uint8              // by modes
}

// GapIndex is the availability of a heartbeat log's routers alone, with
// no roster and no homes: their downtimes and uptime fractions over one
// window (Downtimes, UptimeFraction).
type GapIndex = Availability

// NewGapIndex finds the downtimes over w of every router of hb.
func NewGapIndex(hb *heartbeat.Log, w AvailabilityWindow) *GapIndex {
	return new(Rollup).Availability(hb, new(Roster), w)
}

// Availability returns the availability over w of the routers of hb,
// ro and r's homes. It is made at the first call and kept for the next
// ones with the same arguments, carried from the last one made or, on a
// page, from the last page's (summarize); exhibits may call it at once.
// hb is read at its routers' versions at the call, the history of a
// router whose version moved as the log holds it then: a beat recorded
// during a page shows on it or on the next.
func (r *Rollup) Availability(hb *heartbeat.Log, ro *Roster, w AvailabilityWindow) *Availability {
	r.availMu.Lock()
	defer r.availMu.Unlock()
	last := r.avail.Load()
	if last != nil && last.hb == hb && last.ro == ro && last.w == w {
		return last
	}
	if last == nil {
		last = r.from
	}
	if last == nil || last.hb != hb || last.w != w {
		last = &Availability{}
	}
	a := &Availability{hb: hb, ro: ro, w: w}
	a.carry(last, a.walk(last, r))
	r.avail.Store(a)
	return a
}

// walk sets a's entries: one per router of the roster, the log and r's
// homes, merged in ID order, each the last's where its key holds, and
// the last's slice where every one does. It returns the last's entries
// that went and those a made (changes).
func (a *Availability) walk(last *Availability, r *Rollup) (ch changes) {
	ids, vers := a.hb.Versions()
	old, all := last.entries, a.ro.all
	var out []*entry // nil while every entry is the last's, old[:n]
	n, i, j, k, p := 0, 0, 0, 0, 0
	change := func() {
		if out == nil {
			out = append(make([]*entry, 0, len(old)+1), old[:n]...)
		}
	}
	home := func(j int) *summary { return r.sums[r.order[j]] }
	for {
		key, ok := entry{}, false
		if i < len(all) {
			key.id, ok = all[i], true
		}
		if j < len(r.order) && (!ok || home(j).id() < key.id) {
			key.id, ok = home(j).id(), true
		}
		if k < len(ids) && (!ok || ids[k] < key.id) {
			key.id, ok = ids[k], true
		}
		for ; p < len(old) && (!ok || old[p].id < key.id); p++ {
			change()
			ch.moved[0] = append(ch.moved[0], old[p])
		}
		if !ok {
			break
		}
		var was *entry
		if p < len(old) && old[p].id == key.id {
			was, p = old[p], p+1
		}
		if i < len(all) && all[i] == key.id {
			key.code, i = a.ro.countries[key.id], i+1
		}
		if j < len(r.order) && home(j).id() == key.id {
			key.s, j = home(j), j+1
		}
		if k < len(ids) && ids[k] == key.id {
			key.ver, k = vers[k], k+1
		}
		e := was
		if was == nil || was.ver != key.ver || was.s != key.s || was.code != key.code {
			change()
			e = a.entry(was, key)
			a.made++
			switch {
			case was != nil && was.ver == e.ver && was.code == e.code:
				ch.held = append(ch.held, [2]*entry{was, e})
			case was != nil:
				ch.moved[0] = append(ch.moved[0], was)
				fallthrough
			default:
				ch.moved[1] = append(ch.moved[1], e)
			}
		}
		if out != nil {
			out = append(out, e)
		} else {
			n++
		}
	}
	a.entries = old
	if out != nil {
		a.entries = out
	}
	return ch
}

// changes are the entries that went and came, in ID order: those that
// moved samples, and the pairs where a router's entry was made again for
// its home's new summary alone, whose downtimes and country, and so
// samples, held.
type changes struct {
	moved [2][]*entry // went, came
	held  [][2]*entry
}

// entry makes the entry of key's router for key's version, summary and
// country, taking from was, its last one, what still holds: the
// downtimes where the version has not moved, the causes and the mode
// where the summary has not either.
func (a *Availability) entry(was *entry, key entry) *entry {
	e := &key
	if was != nil && was.ver == e.ver {
		e.downs, e.causeDowns, e.up = was.downs, was.causeDowns, was.up
		if was.s == e.s {
			e.tally, e.mode = was.tally, was.mode
			return e
		}
	} else {
		cw := CauseWindow(a.w)
		e.downs = a.hb.Downtimes(e.id, a.w.From, a.w.To, a.w.Threshold)
		e.causeDowns = a.hb.Downtimes(e.id, cw.From, cw.To, cw.Threshold)
		e.up = uptime(e.downs, a.w)
	}
	var v homeView
	if e.s != nil {
		v.b, v.t = e.s.b, e.s.t
	}
	for _, d := range e.causeDowns {
		e.tally[v.cause(d)]++
	}
	e.mode = v.mode(e.up)
	return e
}

// uptime is the share of w that downs do not cover.
func uptime(downs []heartbeat.Downtime, w AvailabilityWindow) float64 {
	if !w.To.After(w.From) {
		return 0
	}
	var down time.Duration
	for _, d := range downs {
		down += d.Duration()
	}
	return 1 - float64(down)/float64(w.To.Sub(w.From))
}

// values appends e's values in sample i.
func (a *Availability) values(e *entry, i int, xs []float64) []float64 {
	n, span := float64(len(e.downs)), a.w.To.Sub(a.w.From)
	switch i {
	case perDay:
		if span <= 0 {
			return append(xs, 0)
		}
		return append(xs, n/(span.Hours()/24))
	case between:
		return append(xs, span.Seconds()/max(n, 1))
	case counts:
		return append(xs, n)
	case ups:
		return append(xs, e.up)
	}
	for _, d := range e.downs {
		if i == seconds {
			xs = append(xs, d.Duration().Seconds())
		} else {
			xs = append(xs, d.Duration().Seconds()*(1.0/60))
		}
	}
	return xs
}

// carry sets a's aggregates: last's, less what the entries that went
// put in, plus what those that came put in. A scope's samples and Table
// 2's tallies are new only where they moved.
func (a *Availability) carry(last *Availability, ch changes) {
	var values map[string]*[numScoped][2][]float64 // by scope and sample: out, and in
	var rows map[string]kindTally                  // Table 2's net change, by country
	a.causes, a.examples = last.causes, last.examples
	examples := false
	count := func(e *entry, by int32) {
		examples = examples || e.ver > 0
		rows = addTally(rows, e.code, e.rows(by))
		if c, ok := geo.Lookup(e.code); ok {
			for i, n := range e.tally {
				a.causes[groupOf(c)][i] += int(by * n)
			}
		}
	}
	for _, h := range ch.held {
		if h[0].rows(1) != h[1].rows(1) || h[0].tally != h[1].tally || h[0].mode != h[1].mode {
			count(h[0], -1)
			count(h[1], 1)
		}
	}
	for side, es := range ch.moved {
		by := int32(2*side - 1)
		for _, e := range es {
			count(e, by)
			c, ok := geo.Lookup(e.code)
			if !ok {
				continue
			}
			g := groupOf(c)
			if values == nil {
				values = map[string]*[numScoped][2][]float64{}
			}
			for _, scope := range [2]string{e.code, g.String()} {
				m := values[scope]
				if m == nil {
					m = new([numScoped][2][]float64)
					values[scope] = m
				}
				for i := range m {
					m[i][side] = a.values(e, i, m[i][side])
				}
			}
		}
	}
	a.samples, a.codes = last.samples, last.codes
	var cloned [2]bool
	for scope, m := range values {
		var was, now [numScoped][]float64
		if p := last.samples[scope]; p != nil {
			was = *p
		}
		moves := false
		for i := range now {
			now[i] = resorted(was[i], m[i][0], m[i][1])
			moves = moves || !sameArray(now[i], was[i])
		}
		if !moves {
			continue
		}
		a.samples = owned(a.samples, &cloned[0])
		if now[counts] == nil {
			delete(a.samples, scope) // its last router went
		} else {
			p := new([numScoped][]float64)
			*p = now
			a.samples[scope] = p
		}
	}
	for code, d := range rows {
		if d != (kindTally{}) {
			a.codes = addTally(owned(a.codes, &cloned[1]), code, d)
		}
	}
	if examples {
		a.examples = [len(modes)]string{}
		for _, e := range a.entries {
			if e.ver > 0 && a.examples[e.mode] == "" {
				a.examples[e.mode] = e.id
			}
		}
	}
}

// rows are the Table 2 rows e's router is counted in, by ±1: Heartbeats
// where the log has its beats, then the kinds its home has rows of.
func (e *entry) rows(by int32) (t kindTally) {
	if e.ver > 0 {
		t[0] = by
	}
	for i, k := range tableKinds {
		if e.s != nil && e.s.has&k != 0 {
			t[1+i] = by
		}
	}
	return t
}

// addTally adds t to code's tally in m, made where nil; a tally left at
// zero is dropped.
func addTally(m map[string]kindTally, code string, t kindTally) map[string]kindTally {
	if t == (kindTally{}) {
		return m
	}
	if m == nil {
		m = map[string]kindTally{}
	}
	c := m[code]
	for i := range c {
		c[i] += t[i]
	}
	if c == (kindTally{}) {
		delete(m, code)
	} else {
		m[code] = c
	}
	return m
}

// owned returns m, the last page's map, to change: cloned the first
// time, which sets cloned.
func owned[V any](m map[string]V, cloned *bool) map[string]V {
	if !*cloned {
		if m, *cloned = maps.Clone(m), true; m == nil {
			m = map[string]V{}
		}
	}
	return m
}

// sameArray reports whether a and b are one slice.
func sameArray(a, b []float64) bool { return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) }

// Made reports how many entries the Availability made; the others it
// took from the last one it was carried from. A batch makes them all.
func (a *Availability) Made() int { return a.made }

// Window returns the window the Availability covers.
func (a *Availability) Window() AvailabilityWindow { return a.w }

// of returns router id's entry, nil where it has none: no beats, no rows
// and no registration.
func (a *Availability) of(id string) *entry {
	i := sort.Search(len(a.entries), func(i int) bool { return a.entries[i].id >= id })
	if i < len(a.entries) && a.entries[i].id == id {
		return a.entries[i]
	}
	return nil
}

// Downtimes returns router id's downtimes over the window. The result is
// shared: callers must not modify it.
func (a *Availability) Downtimes(id string) []heartbeat.Downtime {
	if e := a.of(id); e != nil {
		return e.downs
	}
	return a.hb.Downtimes(id, a.w.From, a.w.To, a.w.Threshold)
}

// UptimeFraction returns the share of the window not covered by router
// id's downtimes, as heartbeat.Log.UptimeFraction computes it.
func (a *Availability) UptimeFraction(id string) float64 {
	if e := a.of(id); e != nil {
		return e.up
	}
	return uptime(a.Downtimes(id), a.w)
}

// sample returns sample i of scope, a country code or a group's name,
// ascending. It must not be changed.
func (a *Availability) sample(scope string, i int) []float64 {
	if p := a.samples[scope]; p != nil {
		return p[i]
	}
	return nil
}

// DowntimesPerDay returns each of a group's routers' average number of
// downtimes per day, ascending — the distribution behind Fig. 3. It must
// not be changed.
func (a *Availability) DowntimesPerDay(g Group) []float64 { return a.sample(g.String(), perDay) }

// DowntimeDurations returns every downtime duration of a group's
// routers, in minutes, ascending — Fig. 4's distribution. It must not be
// changed.
func (a *Availability) DowntimeDurations(g Group) []float64 { return a.sample(g.String(), minutes) }

// LongestDowntime returns the duration of a group's longest downtime,
// in seconds, 0 without any.
func (a *Availability) LongestDowntime(g Group) float64 {
	if s := a.sample(g.String(), seconds); len(s) > 0 {
		return s[len(s)-1]
	}
	return 0
}

// MedianTimeBetweenDowntimes returns the median of a group's routers'
// mean time between downtimes (the §4.1 "more than a month vs less than
// a day" comparison), 0 without routers. Routers with no downtime
// contribute the window length.
func (a *Availability) MedianTimeBetweenDowntimes(g Group) time.Duration {
	if gaps := a.sample(g.String(), between); len(gaps) > 0 {
		return time.Duration(stats.QuantileRuns(0.5, gaps) * float64(time.Second))
	}
	return 0
}

// FractionWithFrequentDowntime returns the share of a group's routers
// whose downtime frequency exceeds once per every `days` days — the §1
// claim "only 10% of home networks in the developed world saw
// connectivity interruptions … more frequently than once every 10 days,
// but about 50% of home networks in developing countries experienced such
// connectivity interruptions once every 3 days".
func (a *Availability) FractionWithFrequentDowntime(g Group, days float64) float64 {
	rates := a.DowntimesPerDay(g)
	if len(rates) == 0 {
		return 0
	}
	n := len(rates) - sort.Search(len(rates), func(i int) bool { return rates[i] > 1/days })
	return float64(n) / float64(len(rates))
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
func (a *Availability) DowntimesByCountry(minRouters int) []CountryDowntime {
	var out []CountryDowntime
	for _, c := range geo.All() {
		n := a.sample(c.Code, counts)
		if len(n) == 0 || len(n) < minRouters {
			continue
		}
		cd := CountryDowntime{Code: c.Code, GDPPPP: c.GDPPPP, Routers: len(n), MedianDowntimes: stats.QuantileRuns(0.5, n)}
		if durs := a.sample(c.Code, seconds); len(durs) > 0 {
			cd.MedianDuration = time.Duration(stats.QuantileRuns(0.5, durs) * float64(time.Second))
		}
		out = append(out, cd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].GDPPPP < out[j].GDPPPP })
	return out
}

// MedianUptimeFraction returns the median per-router uptime fraction for
// a country (§4.2: US 98.25%, IN 76.01%, ZA 85.57%).
func (a *Availability) MedianUptimeFraction(code string) float64 {
	if xs := a.sample(code, ups); len(xs) > 0 {
		return stats.QuantileRuns(0.5, xs)
	}
	return 0
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

// modes are the archetypes in Fig. 6's order, which entries index.
var modes = [...]AvailabilityMode{ModeAlwaysOn, ModeAppliance, ModeFlakyISP}

// ClassifyAvailability labels a router by combining heartbeat uptime with
// the Uptime data set: high availability → always-on; low availability
// with uptime counters that reset at every report → appliance (the
// router is being power-cycled); low availability with long-running
// uptime counters → the ISP is flaky while the router stays powered.
func (r *Rollup) ClassifyAvailability(gx *GapIndex, id string) AvailabilityMode {
	return modes[r.of(id).mode(gx.UptimeFraction(id))]
}

// Example returns the log's first router by ID in mode m, "" where none
// is: Fig. 6's case study.
func (a *Availability) Example(m AvailabilityMode) string {
	return a.examples[slices.Index(modes[:], m)]
}

// mode is ClassifyAvailability for v's home at uptime fraction up, as an
// index into modes.
func (v homeView) mode(up float64) uint8 {
	if up >= 0.93 {
		return 0
	}
	b, t := v.both()
	n := b.uptime.n + t.uptime.n
	if n > 0 && float64(b.longUp+t.longUp)/float64(n) >= 0.5 {
		return 2
	}
	return 1
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

// causes are the downtime causes in the order Fig. 4 lists them, which
// entries' tallies index.
var causes = [...]DowntimeCause{CausePowerOff, CauseNetwork, CauseUnknown}

// ClassifyDowntime infers the cause of one downtime for a router.
func (r *Rollup) ClassifyDowntime(id string, d heartbeat.Downtime) DowntimeCause {
	return causes[r.of(id).cause(d)]
}

// cause is ClassifyDowntime for v's home, as an index into causes.
func (v homeView) cause(d heartbeat.Downtime) int {
	b, t := v.both()
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
		return 2
	}
	bootedAt := first.at.Add(-first.up)
	// Booted before the gap began (with slack for report cadence): the
	// router was powered throughout — a network outage.
	if bootedAt.Before(d.Start.Add(-time.Minute)) {
		return 1
	}
	return 0
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

// DowntimeCauses tallies causes for every downtime of a group's routers
// within the cause window (CauseWindow).
func (a *Availability) DowntimeCauses(g Group) map[DowntimeCause]int {
	out := map[DowntimeCause]int{}
	for i, n := range a.causes[g] {
		if n > 0 {
			out[causes[i]] = n
		}
	}
	return out
}

// KindCount is one row of Table 2: how many routers have rows of a kind,
// and in how many countries of the roster they are, a router the roster
// lacks counting as one of country "".
type KindCount struct{ Routers, Countries int }

// KindCounts returns Table 2's rows: Heartbeats (the routers of the
// log), then the kinds of tableKinds, in order: capacity, uptime,
// censuses, WiFi scans, flows.
func (a *Availability) KindCounts() (rows [1 + len(tableKinds)]KindCount) {
	for _, t := range a.codes {
		for i, n := range t {
			if n > 0 {
				rows[i].Routers += int(n)
				rows[i].Countries++
			}
		}
	}
	return rows
}
