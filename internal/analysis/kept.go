package analysis

import (
	"cmp"
	"slices"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/mac"
	"natpeek/internal/stats"
)

// The six kept row kinds — uptime, capacity, censuses, sightings, WiFi
// scans and per-minute throughput — folded into exact per-router state:
// the kept half of each router's version (home), beside its flows and
// under the same copy-on-write rule. The exhibits read a version as it
// is, or a base's with a page's tail laid over it, and resolve each
// router's group and country against the roster when they read, never
// when they fold: a router's rows may arrive before its country does.
//
// Every family is exact, whatever the chunking and whatever the mix of
// base and tail:
//   - order statistics (Figs. 11, 14–16's capacities and percentiles)
//     are kept as a few sorted runs each and selected across all of
//     them, base and tail (stats.QuantileRuns): a sample's order
//     statistics do not depend on the order its values came in, nor on
//     how they are split into runs;
//   - sums (Figs. 8/9's moments, Fig. 13's bins, the census and
//     sighting counts) are integers, exact in any order;
//   - last-wins state (a device's kind) follows stream order: the tail
//     comes after the base;
//   - Fig. 14's one series keeps its rows in arrival order, base then
//     tail, and is read in time order, the rows of one minute in
//     arrival order, as a stable sort of the row scan has them.

// KindSet records which kinds a router has rows of (Table 2).
type KindSet uint8

// The kinds Table 2 lists a router under.
const (
	HasUptime KindSet = 1 << iota
	HasCapacity
	HasCensus
	HasWiFi
	HasTraffic
)

type uptimeReport struct {
	at time.Time
	up time.Duration
}

// cmpReport orders one router's reports by report time, then counter: a
// total order on what classification reads, so reports taken at one
// instant classify the same whatever order they were uploaded in.
func cmpReport(a, b uptimeReport) int {
	if c := a.at.Compare(b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.up, b.up)
}

// censusTotals sums a router's censuses: their count and span, integer
// moments of the four series Figs. 8/9 summarize, the most wired devices
// any census saw (§5.2), and Fig. 13's half-hour-of-week bins.
type censusTotals struct {
	n                        int64
	first, last              time.Time
	wired, wireless, w24, w5 stats.Moments
	maxWired                 int
	bins                     weekBins
}

// weekBins are a router's wireless-device sums and census counts per
// UTC half hour of the week, Sunday 00:00 first. Every country's offset
// is a whole number of half hours, so its local bins are these rotated.
// They are held sparse — the bins in use, in first-use order — while a
// router has few, as a page's tail does, and dense (one per half hour,
// in order) once it has more.
type weekBins []weekBin

type weekBin struct {
	sum int64
	n   int32
	at  uint16 // the half hour
}

const (
	weekHalfHours = 7 * 48
	sparseBins    = 32 // bins in use past which weekBins goes dense
)

func weekBinOf(at time.Time) int {
	u := at.UTC()
	return int(u.Weekday())*48 + u.Hour()*2 + u.Minute()/30
}

// add adds a census of sum wireless devices to half hour at.
func (w *weekBins) add(at int, sum int64) {
	b := *w
	if len(b) == weekHalfHours {
		b[at].sum += sum
		b[at].n++
		return
	}
	for i := range b {
		if int(b[i].at) == at {
			b[i].sum += sum
			b[i].n++
			return
		}
	}
	if len(b) < sparseBins {
		*w = append(b, weekBin{sum: sum, n: 1, at: uint16(at)})
		return
	}
	dense := make(weekBins, weekHalfHours)
	for i := range dense {
		dense[i].at = uint16(i)
	}
	for _, e := range append(b, weekBin{sum: sum, n: 1, at: uint16(at)}) {
		dense[e.at].sum += e.sum
		dense[e.at].n += e.n
	}
	*w = dense
}

// deviceSeen is one device of a router: how many sightings it has, the
// kind of the latest, and a bit per kind it was ever seen as.
type deviceSeen struct {
	count int
	kind  dataset.ConnKind
	kinds uint8
}

// link is one direction of a router's throughput: its (minute, peak)
// pairs in arrival order, the positions where that order steps back in
// time, and the peaks of those settled so far, sorted.
type link struct {
	series series
	// descents holds the positions of the series' points that are earlier
	// than the point before them: the starts of its ascending runs after
	// the first.
	descents []int32
	peaks    run[float64] // the peaks of the series' first peaks.n points
}

// series holds points in arrival order in blocks that are never copied
// as it grows: a series folded chunk by chunk allocates about its own
// size once, not a copy per chunk. A version reads its blocks up to the
// lengths its own headers hold, so the next version of the same rollup
// appends into the spare room of the last block they share; a version
// shared by two rollups (clone) is copied with its last block clipped,
// so their appends land in blocks of their own (fork).
type series struct {
	blocks [][]UtilizationPoint
	n      int
}

// grow makes room for k more points and returns the block to append
// them to: the last block while it has room, else a new block of a
// quarter of the series or more. The caller appends exactly k points
// before growing s again.
func (s *series) grow(k int) *[]UtilizationPoint {
	s.n += k
	if last := len(s.blocks) - 1; last >= 0 && cap(s.blocks[last])-len(s.blocks[last]) >= k {
		return &s.blocks[last]
	}
	s.blocks = append(s.blocks, make([]UtilizationPoint, 0, max(k, (s.n-k)/4, 8)))
	return &s.blocks[len(s.blocks)-1]
}

// each calls fn for the points from the i-th on, in arrival order.
func (s *series) each(i int, fn func(UtilizationPoint)) {
	for _, b := range s.blocks {
		if i >= len(b) {
			i -= len(b)
			continue
		}
		for _, p := range b[i:] {
			fn(p)
		}
		i = 0
	}
}

// last returns the series' last point; ok is false when it has none.
func (s *series) last() (p UtilizationPoint, ok bool) {
	if len(s.blocks) == 0 {
		return p, false
	}
	b := s.blocks[len(s.blocks)-1]
	return b[len(b)-1], true
}

// cursor reads one ascending run of a series: the points from block
// blk, offset off on, left of them. run is the run's place in arrival
// order, which breaks ties between runs.
type cursor struct {
	s                   *series
	blk, off, left, run int32
}

// runs appends to cs a cursor per ascending run of l's series, in
// arrival order.
func (l *link) runs(cs []cursor) []cursor {
	s := &l.series
	blk, off, at := 0, 0, 0 // the position of point at
	for k := 0; k <= len(l.descents); k++ {
		end := s.n
		if k < len(l.descents) {
			end = int(l.descents[k])
		}
		if end == at {
			continue
		}
		cs = append(cs, cursor{s: s, blk: int32(blk), off: int32(off), left: int32(end - at), run: int32(len(cs))})
		for off += end - at; blk < len(s.blocks) && off >= len(s.blocks[blk]); blk++ {
			off -= len(s.blocks[blk])
		}
		at = end
	}
	return cs
}

// descend records that the series' point at i is earlier than the one
// before it.
func (l *link) descend(i int) { l.descents = append(l.descents, int32(i)) }

func (c *cursor) peek() UtilizationPoint { return c.s.blocks[c.blk][c.off] }

// advance moves past the point peek returns; it reports whether the run
// has points left.
func (c *cursor) advance() bool {
	c.left--
	if c.off++; int(c.off) == len(c.s.blocks[c.blk]) {
		c.blk, c.off = c.blk+1, 0
	}
	return c.left > 0
}

// before orders cursors by their next point's minute, then by run.
func (c *cursor) before(d *cursor) bool {
	p, q := c.peek().Minute, d.peek().Minute
	return p.Before(q) || !q.Before(p) && c.run < d.run
}

// merge calls fn for every point of the runs cs in time order, the
// points of one minute in run order — the order a stable sort of the
// runs one after another gives — through a binary heap of the runs:
// O(n log runs) comparisons, no copy of the points.
func merge(cs []cursor, fn func(UtilizationPoint)) {
	for i := len(cs)/2 - 1; i >= 0; i-- {
		siftDown(cs, i)
	}
	for len(cs) > 0 {
		fn(cs[0].peek())
		if !cs[0].advance() {
			cs[0] = cs[len(cs)-1]
			cs = cs[:len(cs)-1]
		}
		siftDown(cs, 0)
	}
}

// siftDown restores the heap order of cs below i.
func siftDown(cs []cursor, i int) {
	for {
		m := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(cs) && cs[c].before(&cs[m]) {
				m = c
			}
		}
		if m == i {
			return
		}
		cs[i], cs[m] = cs[m], cs[i]
		i = m
	}
}

// copied returns s for a new version: its blocks list copied, since a
// version writes the last block's header as it appends. When fork is
// set the last block is clipped too, so that two versions that may both
// append never append into the same room.
func (s series) copied(fork bool) series {
	if len(s.blocks) == 0 {
		return s
	}
	s.blocks = slices.Clone(s.blocks)
	if fork {
		last := len(s.blocks) - 1
		s.blocks[last] = slices.Clip(s.blocks[last])
	}
	return s
}

// settle sorts the peaks that arrived since the last settle in.
func (l *link) settle() {
	if l.peaks.n == l.series.n {
		return
	}
	add := make([]float64, 0, l.series.n-l.peaks.n)
	l.series.each(l.peaks.n, func(p UtilizationPoint) { add = append(add, p.PeakBps) })
	stats.SortFloats(add)
	l.peaks.insert(add, cmp.Compare[float64])
}

// linkDirs names the links; throughput in any other direction is stored
// but has no capacity to be measured against, so no exhibit reads it.
var linkDirs = [2]string{"up", "down"}

func linkOf(dir string) int {
	switch dir {
	case "up":
		return 0
	case "down":
		return 1
	}
	return -1
}

// run is a sample kept as a few sorted runs; every run but the last is
// at least minRun long and more than twice as long as the next, so n
// values are at most log2(n/minRun)+2 runs and a value is merged
// O(log n) times in all: settling k new values costs O(k log n + minRun)
// amortized, however long the sample already is. Values folded since the last
// settle wait in add, unordered. A settled run, and the list of them, is
// never written again — a version copy shares them — so settle builds a
// new list and merges into new runs.
type run[T any] struct {
	runs [][]T
	n    int // values in runs
	add  []T
}

// push adds x. A run's first values get room for a few: a page's tail
// holds a handful per router and run, which would otherwise cost a
// doubling series each.
func (r *run[T]) push(x T) {
	if r.add == nil {
		r.add = make([]T, 0, 8)
	}
	r.add = append(r.add, x)
}

// settle sorts the values added since the last settle (by sort, into
// cmp's order) and merges them in.
func (r *run[T]) settle(sort func([]T), cmp func(a, b T) int) {
	if len(r.add) == 0 {
		return
	}
	sort(r.add)
	r.insert(r.add, cmp)
	r.add = nil
}

// minRun is the length below which a run is merged into the next one
// whatever that one's length: a page selects across every run, and a
// live base settles a few values per seal, which would otherwise stand as
// a run each until they add up.
const minRun = 256

// insert adds s, sorted by cmp, as the last run, and merges the last two
// runs while the one before is at most twice the last or shorter than
// minRun.
func (r *run[T]) insert(s []T, cmp func(a, b T) int) {
	runs := append(slices.Clip(r.runs), s)
	for n := len(runs); n > 1 && (len(runs[n-2]) <= 2*len(runs[n-1]) || len(runs[n-2]) < minRun); n = len(runs) {
		runs[n-2] = mergeRuns(runs[n-2], runs[n-1], cmp)
		runs = runs[:n-1]
	}
	r.runs = runs
	r.n += len(s)
}

// bothRuns returns a's runs and b's as one list: one side's own when
// the other has none, else a list in buf.
func bothRuns[T any](buf [][]T, a, b *run[T]) [][]T {
	switch {
	case len(b.runs) == 0:
		return a.runs
	case len(a.runs) == 0:
		return b.runs
	}
	return append(append(buf[:0], a.runs...), b.runs...)
}

// mergeRuns merges two sorted runs into a new one, a's first among equals.
func mergeRuns[T any](a, b []T, cmp func(a, b T) int) []T {
	out := make([]T, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if cmp(b[0], a[0]) < 0 {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	return append(append(out, a...), b...)
}

// addKept folds the kept rows of c.
func (r *rollup) addKept(c *dataset.Store) {
	if r.frozen {
		r.thaw()
	}
	for i := range c.Uptime {
		u := &c.Uptime[i]
		h := r.write(u.RouterID)
		h.has |= HasUptime
		h.uptime.push(uptimeReport{u.ReportedAt, u.Uptime})
		if u.Uptime >= 24*time.Hour {
			h.longUp++
		}
	}
	for i := range c.Capacity {
		m := &c.Capacity[i]
		h := r.write(m.RouterID)
		h.has |= HasCapacity
		if m.UpBps > 0 {
			h.capUp.push(m.UpBps)
		}
		if m.DownBps > 0 {
			h.capDown.push(m.DownBps)
		}
	}
	for i := range c.Counts {
		d := &c.Counts[i]
		h := r.write(d.RouterID)
		h.has |= HasCensus
		h.census.add(d)
	}
	for i := range c.Sightings {
		s := &c.Sightings[i]
		h := r.write(s.RouterID)
		if h.seen == nil {
			h.seen = map[mac.Addr]deviceSeen{}
		}
		d := h.seen[s.Device]
		d.count++
		d.kind = s.Kind
		d.kinds |= kindBit(s.Kind)
		h.seen[s.Device] = d
	}
	for i := range c.WiFi {
		s := &c.WiFi[i]
		h := r.write(s.RouterID)
		h.has |= HasWiFi
		if s.Band == "2.4GHz" {
			h.aps.push(float64(s.VisibleAPs))
		}
	}
	// Throughput is most of the kept rows and arrives in per-router
	// runs: each run's links grow once, by the run's count.
	for i, j := 0, 0; i < len(c.Throughput); i = j {
		id := c.Throughput[i].RouterID
		var n [2]int
		for j = i; j < len(c.Throughput) && c.Throughput[j].RouterID == id; j++ {
			if l := linkOf(c.Throughput[j].Dir); l >= 0 {
				n[l]++
			}
		}
		if n[0]+n[1] == 0 {
			continue
		}
		h := r.write(id)
		var dst [2]*[]UtilizationPoint
		var last [2]UtilizationPoint // each link's latest point
		var at [2]int                // the position the next point takes
		for l := range h.links {
			last[l], _ = h.links[l].series.last()
			at[l] = h.links[l].series.n
			if n[l] > 0 {
				dst[l] = h.links[l].series.grow(n[l])
			}
		}
		for _, s := range c.Throughput[i:j] {
			if l := linkOf(s.Dir); l >= 0 {
				p := UtilizationPoint{s.Minute, s.PeakBps}
				if at[l] > 0 && p.Minute.Before(last[l].Minute) {
					h.links[l].descend(at[l])
				}
				*dst[l] = append(*dst[l], p)
				last[l] = p
				at[l]++
			}
		}
	}
	rc := dataset.CountRows(c)
	rc.Routers, rc.Flows = 0, 0
	r.keptRows.Add(rc)
}

func kindBit(k dataset.ConnKind) uint8 {
	if k < 0 || k > 7 {
		return 0
	}
	return 1 << k
}

func (c *censusTotals) add(d *dataset.DeviceCount) {
	if c.n == 0 || d.At.Before(c.first) {
		c.first = d.At
	}
	if c.n == 0 || d.At.After(c.last) {
		c.last = d.At
	}
	c.n++
	c.wired.Add(int64(d.Wired))
	c.wireless.Add(int64(d.W24 + d.W5))
	c.w24.Add(int64(d.W24))
	c.w5.Add(int64(d.W5))
	c.maxWired = max(c.maxWired, d.Wired)
	c.bins.add(weekBinOf(d.At), int64(d.W24+d.W5))
}

// merge adds o, the totals of later censuses, to c; bins are left to
// the caller.
func (c *censusTotals) merge(o *censusTotals) {
	if o.n == 0 {
		return
	}
	if c.n == 0 || o.first.Before(c.first) {
		c.first = o.first
	}
	if c.n == 0 || o.last.After(c.last) {
		c.last = o.last
	}
	c.n += o.n
	c.wired.Merge(o.wired)
	c.wireless.Merge(o.wireless)
	c.w24.Merge(o.w24)
	c.w5.Merge(o.w5)
	c.maxWired = max(c.maxWired, o.maxWired)
}

// both returns the base's and the tail's versions, nil ones replaced by
// an empty state.
func (v homeView) both() (b, t *home) {
	b, t = v.b, v.t
	if b == nil {
		b = &noHome
	}
	if t == nil {
		t = &noHome
	}
	return b, t
}

var noHome home

func (v homeView) has() KindSet {
	b, t := v.both()
	return b.has | t.has
}

// census returns the router's census totals, base and tail added, but
// for the bins (left out).
func (v homeView) census() censusTotals {
	b, t := v.both()
	c := b.census
	c.bins = nil
	c.merge(&t.census)
	return c
}

// eachDevice calls fn for each sighted device of the router, with base
// and tail added: the kind is the tail's where it has the device.
func (v homeView) eachDevice(fn func(deviceSeen)) {
	b, t := v.both()
	if len(t.seen) == 0 {
		for _, d := range b.seen {
			fn(d)
		}
		return
	}
	for dev, d := range b.seen {
		if td, ok := t.seen[dev]; ok {
			d.count += td.count
			d.kind = td.kind
			d.kinds |= td.kinds
		}
		fn(d)
	}
	for dev, d := range t.seen {
		if _, ok := b.seen[dev]; !ok {
			fn(d)
		}
	}
}

// deviceCount counts the router's distinct sighted devices, base and
// tail.
func (v homeView) deviceCount() int {
	b, t := v.both()
	n := len(b.seen)
	for dev := range t.seen {
		if _, ok := b.seen[dev]; !ok {
			n++
		}
	}
	return n
}

// KeptRows counts the kept rows the view was folded from, per kind;
// Routers and Flows are zero.
func (r *Rollup) KeptRows() dataset.RowCounts {
	rc := r.keptRows
	if r.tail != nil {
		rc.Add(r.tail.roll.keptRows)
	}
	return rc
}

// Table 2 lists a router under each kind it has rows of, in this order.
var tableKinds = [...]KindSet{HasCapacity, HasUptime, HasCensus, HasWiFi, HasTraffic}

// KindCount is one row of Table 2: how many routers have rows of a kind,
// and in how many countries of roster they are, a router the roster
// lacks counting as one of country "".
type KindCount struct{ Routers, Countries int }

// KindCounts counts Table 2's rows in one pass over the homes: a home
// adds itself to each kind it has rows of, and its country's kinds to
// one map. Rows come back in Table 2's order: capacity, uptime,
// censuses, WiFi scans, flows.
func (r *Rollup) KindCounts(roster map[string]string) [len(tableKinds)]KindCount {
	var out [len(tableKinds)]KindCount
	countries := make(map[string]KindSet, 32)
	r.each(func(v homeView) {
		has := v.has()
		if has == 0 {
			return
		}
		for i, k := range tableKinds {
			if has&k != 0 {
				out[i].Routers++
			}
		}
		countries[roster[v.id()]] |= has
	})
	for _, has := range countries {
		for i, k := range tableKinds {
			if has&k != 0 {
				out[i].Countries++
			}
		}
	}
	return out
}
