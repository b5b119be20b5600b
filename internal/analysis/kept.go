package analysis

import (
	"cmp"
	"maps"
	"slices"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/mac"
	"natpeek/internal/stats"
)

// The six kept row kinds — uptime, capacity, censuses, sightings, WiFi
// scans and per-minute throughput — folded into exact per-router state.
// A router's state is a version (keptHome) held by the rollup beside its
// flow homes, under the same epoch: a fold updates a private version in
// place and copies one a view may be reading before it writes, and
// freeze readies every version it touched for reading. The exhibits read
// a version as it is, or a base's with a page's tail laid over it, and
// resolve each router's group and country against the roster when they
// read, never when they fold: a router's rows may arrive before its
// country does.
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
//     tail, and is sorted as the row scan sorted it.

// KindSet records which kept kinds a router has rows of (Table 2).
type KindSet uint8

// The kinds Table 2 lists a router under.
const (
	HasUptime KindSet = 1 << iota
	HasCapacity
	HasCensus
	HasWiFi
)

// keptHome is one version of a router's kept-kind state.
type keptHome struct {
	id    string
	epoch uint64
	stale bool // runs hold values not yet sorted in; freeze sorts them
	has   KindSet

	// Uptime reports (Fig. 4's causes), in cmpReport order, and how many
	// read at least a day (Fig. 6's modes).
	uptime run[uptimeReport]
	longUp int
	// Positive capacity measurements per direction (Figs. 14–16).
	capUp, capDown run[float64]
	census         censusTotals
	devices        map[mac.Addr]deviceSeen // Figs. 7, 10, Table 5
	aps            run[float64]            // 2.4 GHz visible APs (Fig. 11)
	links          [2]link                 // "up", "down" (Figs. 14–16)
}

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

// add adds n censuses summing sum to half hour at.
func (w *weekBins) add(at int, sum int64, n int32) {
	b := *w
	if len(b) == weekHalfHours {
		b[at].sum += sum
		b[at].n += n
		return
	}
	for i := range b {
		if int(b[i].at) == at {
			b[i].sum += sum
			b[i].n += n
			return
		}
	}
	if len(b) < sparseBins {
		*w = append(b, weekBin{sum: sum, n: n, at: uint16(at)})
		return
	}
	dense := make(weekBins, weekHalfHours)
	for i := range dense {
		dense[i].at = uint16(i)
	}
	for _, e := range append(b, weekBin{sum: sum, n: n, at: uint16(at)}) {
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
// pairs in arrival order, and the peaks of those settled so far, sorted.
type link struct {
	series series
	peaks  run[float64] // the peaks of the series' first peaks.n points
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
	slices.Sort(add)
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

// absorb adds o's values, settled or not.
func (r *run[T]) absorb(o *run[T]) {
	for _, s := range o.runs {
		r.add = append(r.add, s...)
	}
	r.add = append(r.add, o.add...)
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

func (h *keptHome) settle() {
	h.uptime.settle(func(s []uptimeReport) { slices.SortFunc(s, cmpReport) }, cmpReport)
	for _, r := range []*run[float64]{&h.capUp, &h.capDown, &h.aps} {
		r.settle(slices.Sort[[]float64], cmp.Compare[float64])
	}
	for i := range h.links {
		h.links[i].settle()
	}
	h.stale = false
}

// addKept folds the kept rows of c.
func (r *rollup) addKept(c *dataset.Store) {
	if r.frozen {
		r.thaw()
	}
	for i := range c.Uptime {
		u := &c.Uptime[i]
		h := r.keptHome(u.RouterID)
		h.has |= HasUptime
		h.uptime.push(uptimeReport{u.ReportedAt, u.Uptime})
		if u.Uptime >= 24*time.Hour {
			h.longUp++
		}
	}
	for i := range c.Capacity {
		m := &c.Capacity[i]
		h := r.keptHome(m.RouterID)
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
		h := r.keptHome(d.RouterID)
		h.has |= HasCensus
		h.census.add(d)
	}
	for i := range c.Sightings {
		s := &c.Sightings[i]
		h := r.keptHome(s.RouterID)
		if h.devices == nil {
			h.devices = map[mac.Addr]deviceSeen{}
		}
		d := h.devices[s.Device]
		d.count++
		d.kind = s.Kind
		d.kinds |= kindBit(s.Kind)
		h.devices[s.Device] = d
	}
	for i := range c.WiFi {
		s := &c.WiFi[i]
		h := r.keptHome(s.RouterID)
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
		h := r.keptHome(id)
		var dst [2]*[]UtilizationPoint
		for l := range h.links {
			if n[l] > 0 {
				dst[l] = h.links[l].series.grow(n[l])
			}
		}
		for _, s := range c.Throughput[i:j] {
			if l := linkOf(s.Dir); l >= 0 {
				*dst[l] = append(*dst[l], UtilizationPoint{s.Minute, s.PeakBps})
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
	c.bins.add(weekBinOf(d.At), int64(d.W24+d.W5), 1)
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

// mergeKept folds o, a rollup of rows that come after r's, into r's kept
// state (Partial.Merge).
func (r *rollup) mergeKept(o *rollup) {
	if r.frozen {
		r.thaw()
	}
	for _, oh := range o.kept {
		h := r.keptHome(oh.id)
		h.has |= oh.has
		h.uptime.absorb(&oh.uptime)
		h.longUp += oh.longUp
		h.capUp.absorb(&oh.capUp)
		h.capDown.absorb(&oh.capDown)
		h.census.merge(&oh.census)
		for _, b := range oh.census.bins {
			if b.n > 0 {
				h.census.bins.add(int(b.at), b.sum, b.n)
			}
		}
		if len(oh.devices) > 0 && h.devices == nil {
			h.devices = make(map[mac.Addr]deviceSeen, len(oh.devices))
		}
		for dev, od := range oh.devices {
			d := h.devices[dev]
			d.count += od.count
			d.kind = od.kind
			d.kinds |= od.kinds
			h.devices[dev] = d
		}
		h.aps.absorb(&oh.aps)
		for l := range h.links {
			for _, b := range oh.links[l].series.blocks {
				dst := h.links[l].series.grow(len(b))
				*dst = append(*dst, b...)
			}
		}
	}
	r.keptRows.Add(o.keptRows)
}

// keptHome returns id's version for writing, making the router's state
// on first sight. Rows arrive in per-router runs, so the last router's
// position is tried before the index.
func (r *rollup) keptHome(id string) *keptHome {
	i := r.keptLast
	if i < 0 || r.kept[i].id != id {
		var ok bool
		if i, ok = r.keptIdx[id]; !ok {
			// The index is shared with the views taken before this
			// epoch; a new entry goes into a copy.
			if r.keptIdxEpoch != r.epoch {
				r.keptIdx = maps.Clone(r.keptIdx)
				r.keptIdxEpoch = r.epoch
			}
			i = int32(len(r.kept))
			r.keptIdx[id] = i
			r.kept = append(r.kept, r.slab.keptHome(id, r.epoch))
		}
		r.keptLast = i
	}
	h := r.kept[i]
	if h.epoch != r.epoch {
		c := *h
		c.epoch = r.epoch
		c.devices = maps.Clone(h.devices)
		c.census.bins = slices.Clone(h.census.bins)
		for l := range c.links {
			c.links[l].series = h.links[l].series.copied(h.epoch <= r.forked)
		}
		h = &c
		r.kept[i] = h
	}
	h.stale = true
	return h
}

// keptHome hands out a new router's state from a shared array, as home
// does a flow home's.
func (s *slab) keptHome(id string, epoch uint64) *keptHome {
	if len(s.kept) == cap(s.kept) {
		s.kept = make([]keptHome, 0, slabHomes)
	}
	s.kept = append(s.kept, keptHome{id: id, epoch: epoch})
	return &s.kept[len(s.kept)-1]
}

// settleKept sorts every touched version's new values into its runs.
func (r *rollup) settleKept() {
	for _, h := range r.kept {
		if h.stale {
			h.settle()
		}
	}
}

// keptView is the kept half of a Rollup: a frozen base and, on a page,
// the tail's versions laid over it.
type keptView struct {
	homes []*keptHome // first-seen order
	idx   map[string]int32
	rows  dataset.RowCounts
	tail  *keptOverlay // nil when nothing lies over the base
}

// keptOverlay is a tail's kept versions resolved against a base.
type keptOverlay struct {
	homes  []*keptHome
	idx    map[string]int32
	rows   dataset.RowCounts
	onBase []int32 // base home → tail home, or -1
	only   []int32 // the tail homes the base lacks
}

// overlayKept resolves t's kept versions against r's: one index lookup
// per tail router.
func (r *rollup) overlayKept(t *rollup) *keptOverlay {
	o := &keptOverlay{homes: t.kept, idx: t.keptIdx, rows: t.keptRows, onBase: make([]int32, len(r.kept))}
	for i := range o.onBase {
		o.onBase[i] = -1
	}
	for j, h := range t.kept {
		if i := find(r.keptIdx, h.id); i >= 0 {
			o.onBase[i] = int32(j)
		} else {
			o.only = append(o.only, int32(j))
		}
	}
	return o
}

// keptPair is one router's kept state as a view reads it: the base's
// version, the tail's, or both.
type keptPair struct{ b, t *keptHome }

func (p keptPair) id() string {
	if p.b != nil {
		return p.b.id
	}
	return p.t.id
}

// both returns the base's and the tail's versions, nil ones replaced by
// an empty state.
func (p keptPair) both() (b, t *keptHome) {
	b, t = p.b, p.t
	if b == nil {
		b = &noKept
	}
	if t == nil {
		t = &noKept
	}
	return b, t
}

var noKept keptHome

func (p keptPair) has() KindSet {
	b, t := p.both()
	return b.has | t.has
}

// census returns the router's census totals, base and tail added, but
// for the bins (left out).
func (p keptPair) census() censusTotals {
	b, t := p.both()
	c := b.census
	c.bins = nil
	c.merge(&t.census)
	return c
}

// eachDevice calls fn for each device of the router, with base and tail
// added: the kind is the tail's where it has the device.
func (p keptPair) eachDevice(fn func(deviceSeen)) {
	b, t := p.both()
	if len(t.devices) == 0 {
		for _, d := range b.devices {
			fn(d)
		}
		return
	}
	for dev, d := range b.devices {
		if td, ok := t.devices[dev]; ok {
			d.count += td.count
			d.kind = td.kind
			d.kinds |= td.kinds
		}
		fn(d)
	}
	for dev, d := range t.devices {
		if _, ok := b.devices[dev]; !ok {
			fn(d)
		}
	}
}

// deviceCount counts the router's distinct devices, base and tail.
func (p keptPair) deviceCount() int {
	b, t := p.both()
	n := len(b.devices)
	for dev := range t.devices {
		if _, ok := b.devices[dev]; !ok {
			n++
		}
	}
	return n
}

// view returns the kept half of a view of r: r must be frozen.
func (r *rollup) keptView() keptView {
	return keptView{homes: r.kept, idx: r.keptIdx, rows: r.keptRows}
}

// each calls fn for every router with kept rows: the base's in
// first-seen order, then those the tail has first.
func (v *keptView) each(fn func(keptPair)) {
	o := v.tail
	for i, b := range v.homes {
		p := keptPair{b: b}
		if o != nil {
			if j := o.onBase[i]; j >= 0 {
				p.t = o.homes[j]
			}
		}
		fn(p)
	}
	if o != nil {
		for _, j := range o.only {
			fn(keptPair{t: o.homes[j]})
		}
	}
}

// of returns id's state: both nil when id has no kept rows.
func (v *keptView) of(id string) keptPair {
	var p keptPair
	o := v.tail
	if i, ok := v.idx[id]; ok {
		p.b = v.homes[i]
		if o != nil {
			if j := o.onBase[i]; j >= 0 {
				p.t = o.homes[j]
			}
		}
		return p
	}
	if o != nil {
		if j, ok := o.idx[id]; ok {
			p.t = o.homes[j]
		}
	}
	return p
}

// KeptRows counts the kept rows the view was folded from, per kind;
// Routers and Flows are zero.
func (r *Rollup) KeptRows() dataset.RowCounts {
	rc := r.kept.rows
	if o := r.kept.tail; o != nil {
		rc.Add(o.rows)
	}
	return rc
}

// RoutersWith lists the routers with rows of any kind in k (Table 2):
// the base's in first-seen order, then those the tail has first.
func (r *Rollup) RoutersWith(k KindSet) []string {
	var out []string
	r.kept.each(func(p keptPair) {
		if p.has()&k != 0 {
			out = append(out, p.id())
		}
	})
	return out
}

// keptRollup folds the kept rows of st alone: the stand-alone forms of
// the kept-kind exhibits read it.
func keptRollup(st *dataset.Store) *Rollup {
	r := newRollup(0)
	r.addKept(st)
	return r.view()
}
