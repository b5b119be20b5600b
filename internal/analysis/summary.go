package analysis

import (
	"cmp"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/stats"
)

// A page summary is what every per-home exhibit reads of one home: its
// links against its capacity, its devices' volume shares, its best
// domains by each rank and their Fig. 19 share terms (Figs. 15–19), and
// its kept-kind statistics (Figs. 7–11, 13, Table 5, Table 2). The
// exhibits are cross-home aggregates of these per-home statistics, so a
// page builds them from summaries: the kept-kind exhibits in one pass
// over them with the page's roster laid over it (placed), and Figs.
// 15–19 from aggregates a page carries over from the last (usage.go).
//
// A summary is computed from one pair of versions, base b and tail t
// (either may be nil), and never changed after, but for Fig. 13's cache
// (diurnalAt). A version a view may read is never written again
// (rollup.own), so a later view whose home has the same two versions
// has the same summary: the identity of the b and t pointers is the
// whole staleness rule. A live page takes the last page's summary of
// every home whose versions no fold and no tail row has replaced since
// (Partial.last), and computes the others — the homes that the rows
// since the last page, or a seal, touched. Its router order, its
// first-flow order and its usage aggregates it takes from the last page
// too, changed by the summaries it replaced.
//
// Nothing in a summary depends on the roster: a re-registration moves a
// router to another country without a new version of its home. A home's
// group and country are looked up once per page (placed).
type summary struct {
	b, t   *home
	links  []LinkSaturation         // its Fig. 15 points, by direction
	over   string                   // Fig. 16: its uplink's row where the uplink is oversaturated, else ""
	shares []float64                // Fig. 17: its devices' shares, descending
	top    [numRanks][]domainTotals // its ≤ rankDepth best domains by each rank, base and tail added
	terms  *shareTerms              // Fig. 19, to rankDepth; nil without named volume and connections
	totals homeTotals               // its flow totals
	has    KindSet                  // Table 2
	// Figs. 7 and 10: its distinct sighted devices, and how many of them
	// were ever seen on 2.4 GHz and on 5 GHz.
	devices, dev24, dev5 int32
	// Table 5: whether some device sighted at least as often as the home
	// took censuses was last seen wired, and whether one was last seen
	// wireless. Read only where the home has censuses; the span test is
	// the caller's (AlwaysConnected).
	alwaysWired, alwaysWireless bool
	// Fig. 11: whether it has 2.4 GHz scans, and their median.
	aps      bool
	apMedian float64
	census   censusTotals // Figs. 8/9, Fig. 11's ports, Table 5; no bins
	// diurnal is its Fig. 13 contribution for the last UTC shift a page
	// asked for (diurnalAt).
	diurnal atomic.Pointer[diurnal]
}

func (s *summary) id() string { return homeView{b: s.b, t: s.t}.id() }

// newSummary computes v's summary.
func newSummary(v homeView, sc *rankScratch, devs *[]float64) *summary {
	s := &summary{b: v.b, t: v.t, links: v.links(), has: v.has(), census: v.census(), totals: v.totals()}
	s.over = overRow(s.links)
	if s.has&HasTraffic != 0 {
		*devs = v.deviceBytes(*devs)
		s.shares = stats.Share(*devs)
		for rk := range s.top {
			s.top[rk] = slices.Clone(v.top(rank(rk), rankDepth, sc))
		}
		v.s = s
		s.terms = v.shareTerms(rankDepth, sc)
	}
	w24, w5 := kindBit(dataset.Wireless24), kindBit(dataset.Wireless5)
	v.eachDevice(func(d deviceSeen) {
		s.devices++
		if d.kinds&w24 != 0 {
			s.dev24++
		}
		if d.kinds&w5 != 0 {
			s.dev5++
		}
		if int64(d.count) >= s.census.n {
			if d.kind == dataset.Wired {
				s.alwaysWired = true
			} else {
				s.alwaysWireless = true
			}
		}
	})
	if b, t := v.both(); b.aps.n+t.aps.n > 0 {
		s.aps, s.apMedian = true, quantile(0.5, &b.aps, &t.aps)
	}
	return s
}

// diurnal is one home's Fig. 13 contribution for a country shift half
// hours from UTC: its wireless-device sums and census counts in the
// local hours it has censuses in, in order.
type diurnal struct {
	shift int
	cells []hourCell
}

// hourCell is one local hour of a week: weekday hours at 0–23, weekend
// hours at 24–47.
type hourCell struct {
	at  uint8
	n   int32
	sum int64
}

// diurnalAt returns s's Fig. 13 contribution for a country shift half
// hours from UTC: its half-hour-of-week bins rotated into local time.
// It is kept for the last shift asked for, so a page rotates the bins
// only of the homes whose versions or country changed since. Pages
// that share the summary may ask at once: each then reads a
// contribution made whole before it was stored.
func (s *summary) diurnalAt(shift int) *diurnal {
	if d := s.diurnal.Load(); d != nil && d.shift == shift {
		return d
	}
	var hours [48]hourCell
	used := 0
	for _, h := range [2]*home{s.b, s.t} {
		if h == nil {
			continue
		}
		for _, b := range h.census.bins {
			if b.n == 0 {
				continue
			}
			local := (int(b.at) + shift + weekHalfHours) % weekHalfHours
			at := local % 48 / 2
			if day := time.Weekday(local / 48); day == time.Saturday || day == time.Sunday {
				at += 24
			}
			if hours[at].n == 0 {
				used++
			}
			hours[at].sum += b.sum
			hours[at].n += b.n
		}
	}
	d := &diurnal{shift: shift, cells: make([]hourCell, 0, used)}
	for at, c := range hours {
		if c.n > 0 {
			c.at = uint8(at)
			d.cells = append(d.cells, c)
		}
	}
	s.diurnal.Store(d)
	return d
}

// placement is a roster laid over a view's summaries: each home's group
// and its country's UTC offset in half hours, by summary position,
// looked up once per page and roster however many exhibits read them.
type placement struct {
	ro    *Roster
	homes []placed
}

type placed struct {
	group int8  // the home's Group, -1 where the roster does not know its country
	shift int16 // its country's UTC offset, in half hours
}

// placed returns where ro puts r's homes, by summary position. It is
// made at the first call with ro and kept for the next ones, and a page
// whose homes are the last page's at the same positions starts from the
// last page's (summarize); exhibits may call it at once.
func (r *Rollup) placed(ro *Roster) []placed {
	r.placeMu.Lock()
	defer r.placeMu.Unlock()
	if r.place.ro == ro && r.place.homes != nil {
		return r.place.homes
	}
	homes := make([]placed, len(r.sums))
	for k, s := range r.sums {
		homes[k].group = -1
		if c, ok := ro.country(s.id()); ok {
			homes[k] = placed{group: int8(groupOf(c)), shift: int16(c.UTCOffset / (30 * time.Minute))}
		}
	}
	r.place = placement{ro: ro, homes: homes}
	return homes
}

// summarize gives r a summary per home, in each's order, its router
// order, its first-flow order and its usage aggregates. It takes prev's
// summary at the same position where that was computed from the home's
// versions, and makes a new one elsewhere; prev is an earlier view over
// the same partial, nil for none.
func (r *Rollup) summarize(prev *Rollup) {
	if prev == nil {
		prev = &Rollup{usage: usage{pop: popCounts{}}} // a page of no homes
	}
	old := prev.sums
	sums := make([]*summary, 0, max(len(old), len(r.homes)))
	var sc rankScratch
	var devs []float64
	r.each(func(v homeView) {
		if k := len(sums); k < len(old) && old[k].b == v.b && old[k].t == v.t {
			sums = append(sums, old[k])
			return
		}
		sums = append(sums, newSummary(v, &sc, &devs))
		r.made++
	})
	r.sums = sums
	// The homes' IDs are those at the same positions on the last page
	// where every summary that changed names the same home: then so does
	// its router order, and so does where the last page's roster put
	// them (placed).
	same := len(sums) == len(old)
	d := usageDelta{pop: popCounts{}}
	for k := range max(len(sums), len(old)) {
		switch {
		case k >= len(old):
			d.count(sums[k], 1)
		case k >= len(sums):
			d.count(old[k], -1)
		case sums[k] != old[k]:
			d.count(old[k], -1)
			d.count(sums[k], 1)
			same = same && sums[k].id() == old[k].id()
		}
	}
	r.flow = r.firstFlows(prev.flow)
	if same {
		r.order = prev.order
		prev.placeMu.Lock()
		r.place = prev.place
		prev.placeMu.Unlock()
	} else {
		r.order = make([]int32, len(sums))
		for k := range r.order {
			r.order[k] = int32(k)
		}
		slices.SortFunc(r.order, func(a, b int32) int { return strings.Compare(sums[a].id(), sums[b].id()) })
	}
	r.carry(prev, &d, same)
}

// firstFlows returns the flow homes' positions in first-flow order, which
// float sums over homes follow to give a chunked fold's bits: the tail's
// first flows after the base's. It is last where every home is where it
// was on the last page.
func (r *Rollup) firstFlows(last []int32) []int32 {
	var late []int32
	for k, s := range r.sums {
		if (s.b == nil || s.b.has&HasTraffic == 0) && s.t != nil && s.t.has&HasTraffic != 0 {
			late = append(late, int32(k))
		}
	}
	slices.SortFunc(late, func(a, b int32) int { return cmp.Compare(r.sums[a].t.first, r.sums[b].t.first) })
	flow, mine := last, false
	if len(flow) != int(r.flowHomes)+len(late) {
		flow, mine = make([]int32, int(r.flowHomes)+len(late)), true
	}
	put := func(o, k int32) {
		if flow[o] != k {
			if !mine {
				flow, mine = slices.Clone(flow), true
			}
			flow[o] = k
		}
	}
	for k, s := range r.sums {
		if s.b != nil && s.b.has&HasTraffic != 0 {
			put(s.b.first, int32(k))
		}
	}
	for i, k := range late {
		put(r.flowHomes+int32(i), k)
	}
	return flow
}

// Summarized reports how many home summaries the view computed; the
// others it took from an earlier page. A batch view computes them all.
func (r *Rollup) Summarized() int { return r.made }

// links returns the home's Fig. 15 points: per direction, the 95th
// percentile of per-minute peak throughput against measured capacity,
// over minutes with any traffic. The percentile, the capacity median and
// the minutes over capacity are selections and binary searches over each
// link's sorted peaks and the home's sorted capacities, base and tail. A
// link is "up" or "down"; samples with any other Dir stay stored but have
// no capacity to be measured against, so they are left out. The points
// are in Saturation's order: "down" before "up".
func (v homeView) links() []LinkSaturation {
	b, t := v.both()
	var out []LinkSaturation
	for _, l := range [...]int{1, 0} {
		bp, tp := &b.links[l].peaks, &t.links[l].peaks
		if bp.n+tp.n == 0 {
			continue
		}
		dir := linkDirs[l]
		capBps := medianOrZero(&b.capDown, &t.capDown)
		if dir == "up" {
			capBps = medianOrZero(&b.capUp, &t.capUp)
		}
		if capBps <= 0 {
			continue
		}
		p95 := quantile(0.95, bp, tp)
		out = append(out, LinkSaturation{
			RouterID:    v.id(),
			Dir:         dir,
			CapacityBps: capBps,
			P95Bps:      p95,
			Utilization: p95 / capBps,
			Minutes:     bp.n + tp.n,
			MinutesOver: countAbove(bp, capBps) + countAbove(tp, capBps),
		})
	}
	return out
}
