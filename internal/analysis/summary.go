package analysis

import (
	"maps"
	"slices"
	"strings"

	"natpeek/internal/stats"
)

// A page summary is what Figs. 15–19 read of one home: its links against
// its capacity, its devices' volume shares and its best domains by each
// rank. The exhibits are cross-home aggregates of these per-home
// statistics, so a page builds them from summaries: Saturation in router
// order, PopularDomains from counts over them, and DeviceShares and
// DomainShares (through homeView.top) in each's and first-flow order.
//
// A summary is computed from one pair of versions, base b and tail t
// (either may be nil), and never changed after. A version a view may
// read is never written again (rollup.own), so a later view whose home
// has the same two versions has the same summary: the identity of the b
// and t pointers is the whole staleness rule. A live page takes the last
// page's summary of every home whose versions no fold and no tail row
// has replaced since (Partial.last), and computes the others — the homes
// that the rows since the last page, or a seal, touched. Its router
// order and its Fig. 18 counts it takes from the last page too, changed
// by the summaries it replaced.
type summary struct {
	b, t   *home
	links  []LinkSaturation         // its Fig. 15/16 points, by direction
	shares []float64                // Fig. 17: its devices' shares, descending
	top    [numRanks][]domainTotals // its ≤ rankDepth best domains by each rank, base and tail added
}

func (s *summary) id() string { return homeView{b: s.b, t: s.t}.id() }

// popularity is one domain's Fig. 18 counts: the homes that rank it in
// their top 5 and in their top 10 by whitelisted volume.
type popularity struct{ top5, top10 int }

// popCounts are Fig. 18's counts over a view's summaries, by domain.
type popCounts map[string]popularity

// summarize gives r a summary per home, in each's order, its router
// order and its Fig. 18 counts. It takes prev's summary at the same
// position where that was computed from the home's versions, and makes
// a new one elsewhere; prev is an earlier view over the same partial,
// nil for none.
func (r *Rollup) summarize(prev *Rollup) {
	var old []*summary
	if prev != nil {
		old = prev.sums
	}
	sums := make([]*summary, 0, max(len(old), len(r.homes)))
	var sc rankScratch
	var devs []float64
	r.each(func(v homeView) {
		if k := len(sums); k < len(old) && old[k].b == v.b && old[k].t == v.t {
			sums = append(sums, old[k])
			return
		}
		s := &summary{b: v.b, t: v.t, links: v.links()}
		if v.has()&HasTraffic != 0 {
			devs = v.deviceBytes(devs)
			s.shares = stats.Share(devs)
			for rk := range s.top {
				s.top[rk] = slices.Clone(v.top(rank(rk), rankDepth, &sc))
			}
		}
		sums = append(sums, s)
		r.made++
	})
	r.sums = sums
	// The homes' IDs are those at the same positions on the last page
	// where every summary that changed names the same home: then so does
	// its router order.
	same := prev != nil && len(sums) == len(old)
	r.pop = popCounts{}
	if prev != nil {
		r.pop = maps.Clone(prev.pop)
	}
	for k := range max(len(sums), len(old)) {
		switch {
		case k >= len(old):
			r.pop.count(sums[k], 1)
		case k >= len(sums):
			r.pop.count(old[k], -1)
		case sums[k] != old[k]:
			r.pop.count(old[k], -1)
			r.pop.count(sums[k], 1)
			same = same && sums[k].id() == old[k].id()
		}
	}
	if same {
		r.order = prev.order
		return
	}
	r.order = make([]int32, len(sums))
	for k := range r.order {
		r.order[k] = int32(k)
	}
	slices.SortFunc(r.order, func(a, b int32) int { return strings.Compare(sums[a].id(), sums[b].id()) })
}

// count adds s's domains to the counts, by ±1 a home; a domain no home
// ranks is dropped.
func (pop popCounts) count(s *summary, by int) {
	for i, d := range s.top[byVolumeWhitelisted] {
		c := pop[d.name]
		if i < 5 {
			c.top5 += by
		}
		c.top10 += by
		if c.top10 == 0 {
			delete(pop, d.name)
		} else {
			pop[d.name] = c
		}
	}
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
