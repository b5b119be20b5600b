package analysis

import (
	"bytes"
	"cmp"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"natpeek/internal/dataset"
	"natpeek/internal/mac"
	"natpeek/internal/ouidb"
	"natpeek/internal/stats"
)

// Rollup is a store's rows summed into what the exhibits read: one state
// per router (home) with its Traffic flows and its six kept kinds
// (kept.go). For the flows: the bytes and connections of every domain,
// the bytes of every device and of every (device, domain) pair, running
// totals, and the domains ranked the three ways Figs. 18 and 19 rank them.
// A flow row has one way in, rollup.add, whether a Partial folds it or a
// page's tail or a batch store holds it: one pair per (home, device,
// domain) on every path. Table 2 and every exhibit but the heartbeat ones
// are answered from it. Sums are kept as integers and samples as sorted
// runs; both are exact in any order, which is what lets an exhibit
// computed from the rollup match, bit for bit, one computed row by row.
//
// A Rollup is a read-only view. In batch (RollupOf) it is one rollup of
// a store's rows. On a dashboard page (Snapshot.Rollup) it is a
// Partial's folded rollup, frozen at Capture, with the live tail's own
// rollup laid over it: each method adds base and tail per home as it
// reads, and neither side is copied or changed. Either way it carries a
// page summary per home (summary.go), which every per-home exhibit
// reads.
type Rollup struct {
	homes     []*home          // the base, first-seen order
	byID      map[string]int32 // the base's home positions
	fleet     fleetTable       // the base's fleet-wide device totals
	flowHomes int32            // the base's homes with flow rows
	keptRows  dataset.RowCounts
	tail      *overlay // nil when nothing lies over the base
	// The page summaries (summary.go): one per home in each's order, their
	// positions by router ID, their usage aggregates (usage.go), and how
	// many summarize computed rather than took from an earlier view.
	sums  []*summary
	order []int32
	usage
	made int
	// The roster laid over the summaries (placed), for the last roster
	// asked for.
	placeMu sync.Mutex
	place   placement
	// The availability for the last log, roster and window asked for,
	// and the last page's it is carried from (Availability).
	availMu sync.Mutex
	avail   atomic.Pointer[Availability]
	from    *Availability
}

// rollup is the foldable state behind a Rollup. A router is held as a
// version (home): a fold updates the version in place when it is
// private, and first replaces it with a copy when a Rollup may be
// reading it, so a view never sees a version change under it.
type rollup struct {
	homes []*home    // first-seen order, of any kind
	fleet fleetTable // fleet-wide: a device's bytes across every home it is in
	// byID is shared with the views taken in the epoch it was made in
	// (idEpoch), so a new router after those goes into a copy. The other
	// indexes are read and written by folds only — and by overlay, which
	// runs under the same exclusion. A Rollup never reads them.
	byID      map[string]int32
	idEpoch   uint64
	domIdx    map[domKey]int32
	devIdx    map[devKey]int32
	fleetIdx  map[mac.Addr]int32
	last      int32 // the previous row's home: rows arrive in per-router runs
	flowHomes int32 // homes with flow rows: the next first-flow ordinal
	pairs     int   // (home, device, domain) entries
	keptRows  dataset.RowCounts
	slab      slab
	// A version made in the current epoch is private. freeze shares
	// homes, fleet and every version with a view; the next write copies
	// the two slices and starts a new epoch (thaw).
	epoch  uint64
	frozen bool
	// unranked marks a page's tail, whose domains are never ranked: only
	// a base's rankings are read (homeView.top).
	unranked bool
	// forked is the epoch of the last clone: a version from it or before
	// may be shared with another rollup that also writes (series.copied).
	forked uint64
}

type domKey struct {
	home int32
	name string
}

type devKey struct {
	home int32
	dev  mac.Addr
}

// home is one version of a router's state, flows and kept kinds alike.
type home struct {
	id    string
	epoch uint64
	stale bool    // changed since it was last settled
	has   KindSet // the kinds the router has rows of
	// first is the home's first-flow ordinal, once has holds HasTraffic:
	// how many homes had flow rows before its first one. Fig. 19 sums
	// over homes in this order, the one a chunked fold and a batch agree on.
	first int32

	homeTotals
	domains []domainTotals // first-seen order; may include the unnamed domain ""
	devices []homeDevice   // first-seen order
	pairs   []pairTotals   // one per (device, domain): Fig. 20's device mixes
	// flows is the epoch the three were made or copied in: a copy shares
	// them with its original until a flow row copies them (add).
	flows uint64
	// top caches the positions in domains of the ntop[rk] ≤ rankDepth
	// best by each rank rk, as of the last settle.
	top  [numRanks][rankDepth]int32
	ntop [numRanks]uint8

	// The kept kinds. Uptime reports (Fig. 4's causes), in cmpReport
	// order, and how many read at least a day (Fig. 6's modes).
	uptime run[uptimeReport]
	longUp int
	// Positive capacity measurements per direction (Figs. 14–16).
	capUp, capDown run[float64]
	census         censusTotals
	seen           map[mac.Addr]deviceSeen // sighted devices: Figs. 7, 10, Table 5
	aps            run[float64]            // 2.4 GHz visible APs (Fig. 11)
	links          [2]link                 // "up", "down" (Figs. 14–16)
}

// homeTotals are a home's running totals: all Traffic volume, the volume
// and connections of named domains (what Fig. 19's shares divide by), and
// the volume of whitelisted ones.
type homeTotals struct {
	bytes, namedBytes, namedConns, whitelisted int64
}

func (s *homeTotals) add(domain string, bytes, conns int64) {
	s.bytes += bytes
	if domain == "" {
		return
	}
	s.namedBytes += bytes
	s.namedConns += conns
	if !isAnonToken(domain) {
		s.whitelisted += bytes
	}
}

// merge adds o to s times: 1 adds it, -1 takes it away.
func (s *homeTotals) merge(o homeTotals, times int64) {
	s.bytes += times * o.bytes
	s.namedBytes += times * o.namedBytes
	s.namedConns += times * o.namedConns
	s.whitelisted += times * o.whitelisted
}

type domainTotals struct {
	name         string
	bytes, conns int64
	lastPair     int32 // its latest pair's position in home.pairs, -1 before its first
}

type homeDevice struct {
	dev   mac.Addr
	fleet int32 // its entry in rollup.fleet
	bytes int64
}

// fleetTable holds the fleet's device totals in chunks of fleetChunk.
// A frozen rollup shares the chunks with its views, and its first write
// to one after that copies that chunk only (own): a page's tail that
// adds to a few devices copies a few chunks, not the fleet.
type fleetTable struct {
	chunks [][]deviceTotals
	mine   []bool // the chunks copied since the last thaw: written in place
}

const fleetChunk = 64

func (f *fleetTable) len() int {
	if len(f.chunks) == 0 {
		return 0
	}
	return (len(f.chunks)-1)*fleetChunk + len(f.chunks[len(f.chunks)-1])
}

func (f *fleetTable) at(i int32) deviceTotals { return f.chunks[i/fleetChunk][i%fleetChunk] }

// each calls fn for every device, in order.
func (f *fleetTable) each(fn func(i int32, d deviceTotals)) {
	for c, ch := range f.chunks {
		for j, d := range ch {
			fn(int32(c*fleetChunk+j), d)
		}
	}
}

// own returns chunk c for writing: a copy, the first time since the
// last thaw.
func (f *fleetTable) own(c int32) []deviceTotals {
	if !f.mine[c] {
		f.chunks[c] = append(make([]deviceTotals, 0, fleetChunk), f.chunks[c]...)
		f.mine[c] = true
	}
	return f.chunks[c]
}

// push appends d and returns its position.
func (f *fleetTable) push(d deviceTotals) int32 {
	i := int32(f.len())
	if i%fleetChunk == 0 {
		f.chunks = append(f.chunks, make([]deviceTotals, 0, fleetChunk))
		f.mine = append(f.mine, true)
	}
	c := i / fleetChunk
	f.chunks[c] = append(f.own(c), d)
	return i
}

func (f *fleetTable) add(i int32, bytes int64) { f.own(i / fleetChunk)[i%fleetChunk].bytes += bytes }

// joined records that device i is in one more home than the one its
// entry names.
func (f *fleetTable) joined(i int32) { f.own(i / fleetChunk)[i%fleetChunk].home = manyHomes }

// thaw copies the list of chunks, whose every chunk is then shared.
func (f *fleetTable) thaw() {
	f.chunks = slices.Clone(f.chunks)
	f.mine = make([]bool, len(f.chunks))
}

// deviceTotals is one fleet device: its volume across the homes it is
// in, its Fig. 12 category, resolved when the fold first sees it (it
// fits the padding after dev), and the position of the one home it is
// in, manyHomes once it is in more than one (Fig. 20).
type deviceTotals struct {
	dev   mac.Addr
	cat   uint8
	home  int32
	bytes int64
}

const manyHomes = -1

// fig12Category is dev's Fig. 12 category as one plus its position in
// ouidb.Categories, or 0 for a device Fig. 12 leaves out: the platform's
// own Netgear hardware, and an unregistered OUI.
func fig12Category(dev mac.Addr) uint8 {
	cat := ouidb.Lookup(dev).Category
	if cat == ouidb.CatUnknown || ouidb.IsBISmarkRouter(dev) {
		return 0
	}
	return uint8(slices.Index(ouidb.Categories[:], cat) + 1)
}

type pairTotals struct {
	dev   mac.Addr
	dom   int32
	next  int32 // the domain's pair made before this one, -1 for none
	bytes int64
}

// rank is one way of ordering a home's domains.
type rank int

const (
	byVolumeWhitelisted rank = iota // Fig. 18
	byVolumeNamed                   // Fig. 19a and 19c
	byConnsNamed                    // Fig. 19b
	numRanks
)

// rankDepth is how deep a home version caches each ranking — as deep as
// any exhibit reads.
const rankDepth = 10

func (rk rank) val(d *domainTotals) int64 {
	if rk == byConnsNamed {
		return d.conns
	}
	return d.bytes
}

func (rk rank) keep(domain string) bool {
	if rk == byVolumeWhitelisted {
		return domain != "" && !isAnonToken(domain)
	}
	return domain != ""
}

// newRollup returns an empty rollup with room for domains (home, domain)
// entries — a hint, 0 when unknown.
func newRollup(domains int) *rollup {
	return &rollup{
		byID:     map[string]int32{},
		domIdx:   make(map[domKey]int32, domains),
		devIdx:   map[devKey]int32{},
		fleetIdx: map[mac.Addr]int32{},
		last:     -1,
	}
}

// add folds flow row f into its home's totals and its domain, device,
// fleet device and (device, domain) pair entries, making those it lacks.
// A home's first flow row gives it its first-flow ordinal and the first
// entries of its slices.
func (r *rollup) add(f *dataset.FlowRecord) {
	if r.frozen {
		r.thaw()
	}
	hi := r.at(f.RouterID)
	h := r.own(hi)
	switch {
	case h.has&HasTraffic == 0:
		h.has |= HasTraffic
		h.first = r.flowHomes
		r.flowHomes++
		h.domains, h.devices, h.pairs = carve(&r.slab.domains), carve(&r.slab.devices), carve(&r.slab.pairs)
	case h.flows != r.epoch:
		h.domains, h.devices, h.pairs = roomy(h.domains), roomy(h.devices), roomy(h.pairs)
	}
	h.flows = r.epoch
	dom, ok := r.domIdx[domKey{hi, f.Domain}]
	if !ok {
		dom = int32(len(h.domains))
		r.domIdx[domKey{hi, f.Domain}] = dom
		h.domains = append(h.domains, domainTotals{name: f.Domain, lastPair: -1})
	}
	dev, ok := r.devIdx[devKey{hi, f.Device}]
	if !ok {
		fl, ok := r.fleetIdx[f.Device]
		if !ok {
			fl = r.fleet.push(deviceTotals{dev: f.Device, cat: fig12Category(f.Device), home: hi})
			r.fleetIdx[f.Device] = fl
		} else {
			r.fleet.joined(fl)
		}
		dev = int32(len(h.devices))
		r.devIdx[devKey{hi, f.Device}] = dev
		h.devices = append(h.devices, homeDevice{dev: f.Device, fleet: fl})
	}
	b := f.UpBytes + f.DownBytes
	d := &h.domains[dom]
	d.bytes += b
	d.conns += f.Conns
	h.homeTotals.add(d.name, b, f.Conns)
	dv := &h.devices[dev]
	dv.bytes += b
	r.fleet.add(dv.fleet, b)
	h.pairs[r.pair(h, dom, f.Device)].bytes += b
}

// pair returns the position of h's (dev, domain dom) entry, making it on
// first sight. Each domain heads a chain of its pairs, newest first, so
// the search is over the devices that reached that domain.
func (r *rollup) pair(h *home, dom int32, dev mac.Addr) int32 {
	d := &h.domains[dom]
	for i := d.lastPair; i >= 0; i = h.pairs[i].next {
		if h.pairs[i].dev == dev {
			return i
		}
	}
	i := int32(len(h.pairs))
	h.pairs = append(h.pairs, pairTotals{dev: dev, dom: dom, next: d.lastPair})
	d.lastPair = i
	r.pairs++
	return i
}

// at returns the position of id's home, making it on first sight. Rows
// arrive in per-router runs, so the last row's home is tried before the
// index.
func (r *rollup) at(id string) int32 {
	if i := r.last; i >= 0 && r.homes[i].id == id {
		return i
	}
	i, ok := r.byID[id]
	if !ok {
		if r.idEpoch != r.epoch {
			r.byID = maps.Clone(r.byID)
			r.idEpoch = r.epoch
		}
		i = int32(len(r.homes))
		r.byID[id] = i
		r.homes = append(r.homes, r.slab.home(id, r.epoch))
	}
	r.last = i
	return i
}

// slab hands out new homes, and the first entries of a flow home's
// slices, from shared arrays, so a rollup of many small homes — a page's
// tail — allocates once per few dozen homes rather than a doubling series
// per home and slice. A home that outgrows its first entries moves to an
// array of its own, as append does.
type slab struct {
	homes   []home
	domains []domainTotals
	devices []homeDevice
	pairs   []pairTotals
}

const (
	slabHomes   = 32 // homes per slab array
	homeEntries = 8  // first entries of each slice of a new flow home
)

func (s *slab) home(id string, epoch uint64) *home {
	if len(s.homes) == cap(s.homes) {
		s.homes = make([]home, 0, slabHomes)
	}
	s.homes = append(s.homes, home{id: id, epoch: epoch})
	return &s.homes[len(s.homes)-1]
}

// carve takes homeEntries of room from the slab array *a, empty.
func carve[T any](a *[]T) []T {
	if cap(*a)-len(*a) < homeEntries {
		*a = make([]T, 0, slabHomes*homeEntries)
	}
	n := len(*a)
	*a = (*a)[:n+homeEntries]
	return (*a)[n : n : n+homeEntries]
}

// own returns home i's version for writing, marked stale: itself when it
// is private, else a copy that replaces it. A copy clones what folds
// of kept kinds write in place — the device map, the bins — and shares
// the flow entries until a flow row copies them (add) and the settled
// runs, which are never written again (run); each
// series copies its list of blocks only (series.copied), and its
// descents are clipped, so the next one lands in an array of its own.
func (r *rollup) own(i int32) *home {
	h := r.homes[i]
	if h.epoch != r.epoch {
		c := *h
		c.epoch = r.epoch
		c.seen = maps.Clone(h.seen)
		c.census.bins = slices.Clone(h.census.bins)
		for l := range c.links {
			c.links[l].series = h.links[l].series.copied(h.epoch <= r.forked)
			c.links[l].descents = slices.Clip(h.links[l].descents)
		}
		h = &c
		r.homes[i] = h
	}
	h.stale = true
	return h
}

// roomy copies s with a quarter again of room: the rows that made a
// version copy itself go on to add entries to it, which would otherwise
// copy it once more.
func roomy[T any](s []T) []T {
	return append(make([]T, 0, len(s)+len(s)/4+1), s...)
}

// write returns id's version for writing (at, then own).
func (r *rollup) write(id string) *home { return r.own(r.at(id)) }

// thaw takes back what freeze shared before the first write after it:
// the homes are copied, and the fleet's list of chunks; the new epoch
// makes every version copy itself on its first write, as the fleet does
// each chunk.
func (r *rollup) thaw() {
	r.homes = slices.Clone(r.homes)
	r.fleet.thaw()
	r.epoch++
	r.frozen = false
}

// freeze readies r to be shared: every version changed since the last
// freeze is settled, and the next write copies before it writes. A fold
// that no view was taken behind updates in place, so replaying N chunks
// costs one pass.
func (r *rollup) freeze() {
	if r.frozen {
		return
	}
	r.settle()
	r.frozen = true
}

// settle readies every version changed since the last settle for
// reading: the kept values folded since then are sorted into their runs
// and, but in a page's tail, the domains re-ranked.
func (r *rollup) settle() {
	for _, h := range r.homes {
		if !h.stale {
			continue
		}
		if !r.unranked {
			for rk := range h.top {
				h.ntop[rk] = uint8(len(rankInto(h.top[rk][:0], h.domains, rank(rk), rankDepth)))
			}
		}
		h.uptime.settle(func(s []uptimeReport) { slices.SortFunc(s, cmpReport) }, cmpReport)
		for _, r := range []*run[float64]{&h.capUp, &h.capDown, &h.aps} {
			r.settle(stats.SortFloats, cmp.Compare[float64])
		}
		for i := range h.links {
			h.links[i].settle()
		}
		h.stale = false
	}
}

// view freezes r and returns it as a Rollup: one that holds its own
// copies of r's slice headers and router index, so r can fold on.
func (r *rollup) view() *Rollup {
	r.freeze()
	return &Rollup{homes: r.homes, byID: r.byID, fleet: r.fleet, flowHomes: r.flowHomes, keptRows: r.keptRows}
}

// clone returns a rollup that shares r's versions until either side
// writes: both are frozen, so each copies what it touches first. The
// router index is shared as with a view; the flow indexes are copied.
func (r *rollup) clone() *rollup {
	r.freeze()
	r.forked = r.epoch
	return &rollup{
		homes: r.homes, fleet: r.fleet, byID: r.byID, idEpoch: r.idEpoch,
		domIdx: maps.Clone(r.domIdx), devIdx: maps.Clone(r.devIdx), fleetIdx: maps.Clone(r.fleetIdx),
		last: -1, flowHomes: r.flowHomes, pairs: r.pairs, keptRows: r.keptRows,
		epoch: r.epoch, frozen: true, forked: r.epoch,
	}
}

// overlay is a view of the rows that follow a base, resolved against
// it: for each of its homes, domains, devices and fleet devices, the
// position of the same entry in the base, or -1 where the tail has it
// first. It holds the tail's view, not its rollup, so the tail can fold
// on while a page reads; and the base and epoch it was resolved at, so
// the overlay of a longer tail over the same base can start from it.
type overlay struct {
	roll     *Rollup
	onBase   []int32   // base home → tail home, or -1
	home     []int32   // tail home → base home, or -1
	dom, dev [][]int32 // per tail home: its domains / devices → the base home's
	fleet    []int32   // tail fleet device → base fleet device, or -1
	base     *rollup
	epoch    uint64
}

// overlay freezes r and lays t, a view of the rows after r's, over it.
// Each entry of t is looked up in r's indexes once — the caller holds
// off folds into r for the duration — so the Rollup never reads them.
// prev, if not nil, is an overlay of a shorter view that t extends:
// when r has not been written since prev was laid over it, prev's
// lookups stand and only the entries t adds are looked up. Homes,
// domains, devices and fleet devices are only ever appended, so an
// entry keeps its position as a tail grows.
func (r *rollup) overlay(t *Rollup, prev *overlay) *Rollup {
	v := r.view()
	if len(t.homes) == 0 {
		return v
	}
	o := &overlay{
		roll:  t,
		dom:   make([][]int32, len(t.homes)),
		dev:   make([][]int32, len(t.homes)),
		base:  r,
		epoch: r.epoch,
	}
	if prev != nil && prev.base == r && prev.epoch == r.epoch {
		o.onBase = slices.Clone(prev.onBase)
		o.home = slices.Clip(prev.home)
		o.fleet = slices.Clip(prev.fleet)
		copy(o.dom, prev.dom)
		copy(o.dev, prev.dev)
	} else {
		o.onBase = make([]int32, len(r.homes))
		for i := range o.onBase {
			o.onBase[i] = -1
		}
		// A tail resolved whole takes its lookups from one array per
		// kind; each home's share is clipped, so an extension copies it.
		var nd, nv int
		for _, h := range t.homes {
			nd, nv = nd+len(h.domains), nv+len(h.devices)
		}
		doms, devs := make([]int32, nd), make([]int32, nv)
		for j, h := range t.homes {
			nd, nv = len(h.domains), len(h.devices)
			o.dom[j], doms = doms[:0:nd], doms[nd:]
			o.dev[j], devs = devs[:0:nv], devs[nv:]
		}
	}
	for j, h := range t.homes {
		if j == len(o.home) {
			bi := find(r.byID, h.id)
			o.home = append(o.home, bi)
			if bi >= 0 {
				o.onBase[bi] = int32(j)
			}
		}
		bi := o.home[j]
		for _, d := range h.domains[len(o.dom[j]):] {
			o.dom[j] = append(o.dom[j], find(r.domIdx, domKey{bi, d.name}))
		}
		for _, d := range h.devices[len(o.dev[j]):] {
			o.dev[j] = append(o.dev[j], find(r.devIdx, devKey{bi, d.dev}))
		}
	}
	for i := len(o.fleet); i < t.fleet.len(); i++ {
		o.fleet = append(o.fleet, find(r.fleetIdx, t.fleet.at(int32(i)).dev))
	}
	v.tail = o
	return v
}

// find returns m[k], or -1 when k is absent — as every entry of a home
// the base lacks (home -1) is.
func find[K comparable](m map[K]int32, k K) int32 {
	if i, ok := m[k]; ok {
		return i
	}
	return -1
}

// homeView is one home as a Rollup reads it: its base version, the
// tail's, or both, with the tail's flow entries resolved to the base's,
// and its page summary once the Rollup has them.
type homeView struct {
	b, t     *home
	dom, dev []int32
	s        *summary
}

// lay lays tail home j over v; j < 0 lays nothing.
func (o *overlay) lay(v *homeView, j int32) {
	if j >= 0 {
		v.t, v.dom, v.dev = o.roll.homes[j], o.dom[j], o.dev[j]
	}
}

// each calls fn for every home in first-seen order: the base's, then
// those the tail has first.
func (r *Rollup) each(fn func(homeView)) {
	o := r.tail
	k := 0 // the home's position in each's order, and its summary's
	for i, b := range r.homes {
		v := homeView{b: b}
		if k < len(r.sums) {
			v.s = r.sums[k]
		}
		if o != nil {
			o.lay(&v, o.onBase[i])
		}
		fn(v)
		k++
	}
	if o == nil {
		return
	}
	for j := range o.roll.homes {
		if o.home[j] < 0 {
			var v homeView
			if k < len(r.sums) {
				v.s = r.sums[k]
			}
			o.lay(&v, int32(j))
			fn(v)
			k++
		}
	}
}

// of returns id's home; both versions are nil when no row names it.
func (r *Rollup) of(id string) homeView {
	var v homeView
	if i, ok := r.byID[id]; ok {
		v.b = r.homes[i]
		if r.tail != nil {
			r.tail.lay(&v, r.tail.onBase[i])
		}
	} else if r.tail != nil {
		r.tail.lay(&v, find(r.tail.roll.byID, id))
	}
	return v
}

func (v homeView) id() string {
	if v.b != nil {
		return v.b.id
	}
	return v.t.id
}

func (v homeView) totals() homeTotals {
	var s homeTotals
	if v.b != nil {
		s = v.b.homeTotals
	}
	if v.t != nil {
		s.merge(v.t.homeTotals, 1)
	}
	return s
}

// deviceBytes overwrites buf with the home's device volumes: the base's
// devices in order, then those the tail has first.
func (v homeView) deviceBytes(buf []float64) []float64 {
	out := buf[:0]
	if v.b != nil {
		for _, d := range v.b.devices {
			out = append(out, float64(d.bytes))
		}
	}
	if v.t != nil {
		for j, d := range v.t.devices {
			if i := v.dev[j]; i >= 0 {
				out[i] = float64(v.b.devices[i].bytes + d.bytes)
			} else {
				out = append(out, float64(d.bytes))
			}
		}
	}
	return out
}

func (v homeView) hasDevice(dev mac.Addr) bool {
	for _, h := range [2]*home{v.b, v.t} {
		if h == nil {
			continue
		}
		for _, d := range h.devices {
			if d.dev == dev {
				return true
			}
		}
	}
	return false
}

// rankScratch holds a ranking's buffers across the homes of one call.
type rankScratch struct {
	cand, res []domainTotals
	idx       []int32
}

// top returns the at most k ≤ rankDepth domains of the home that rank
// highest by rk, base and tail added, best first; the result lives in sc
// until the next call, or is the summary's, which must not be changed. A
// ranking is a total order, so the best k are the first k of the
// summary's rankDepth. Without a summary: bytes and connections only
// grow, so a domain outside the base's cached top k that the tail did not
// touch still has k domains ahead of it: the candidates are that ranking
// plus the tail's domains (the base's whole list when the tail takes
// bytes or connections off a base domain).
func (v homeView) top(rk rank, k int, sc *rankScratch) []domainTotals {
	if v.s != nil {
		top := v.s.top[rk]
		return top[:min(k, len(top))]
	}
	cached := v.b != nil
	if cached && v.t != nil {
		for j := range v.t.domains {
			if v.dom[j] >= 0 && rk.val(&v.t.domains[j]) < 0 {
				cached = false
				break
			}
		}
	}
	var top []int32
	if cached {
		top = v.b.top[rk][:v.b.ntop[rk]]
	}
	cand := sc.cand[:0]
	switch {
	case cached:
		for _, i := range top {
			cand = append(cand, v.b.domains[i])
		}
	case v.b != nil:
		cand = append(cand, v.b.domains...)
	}
	if v.t != nil {
		for j, d := range v.t.domains {
			if !rk.keep(d.name) {
				continue
			}
			if i := v.dom[j]; i >= 0 {
				base := &v.b.domains[i]
				d.bytes += base.bytes
				d.conns += base.conns
				pos := int(i)
				if cached {
					pos = slices.Index(top, i)
				}
				if pos >= 0 {
					cand[pos] = d
					continue
				}
			}
			cand = append(cand, d)
		}
	}
	sc.cand = cand
	sc.idx = rankInto(sc.idx[:0], cand, rk, k)
	sc.res = sc.res[:0]
	for _, i := range sc.idx {
		sc.res = append(sc.res, cand[i])
	}
	return sc.res
}

// rankInto appends to out the positions in ds of the at most k domains
// that rank highest by rk, best first — ties broken by name, which is
// unique within a home. It holds the running top k in order, so a home's
// long tail of single-flow anonymised domains costs one comparison each,
// not a sort.
func rankInto(out []int32, ds []domainTotals, rk rank, k int) []int32 {
	before := func(a, b int32) bool {
		if v, w := rk.val(&ds[a]), rk.val(&ds[b]); v != w {
			return v > w
		}
		return ds[a].name < ds[b].name
	}
	top := out
	for i := range ds {
		switch {
		case !rk.keep(ds[i].name):
			continue
		case len(top) < k:
			top = append(top, int32(i))
		case k > 0 && before(int32(i), top[k-1]):
			top[k-1] = int32(i)
		default:
			continue
		}
		for j := len(top) - 1; j > 0 && before(top[j], top[j-1]); j-- {
			top[j], top[j-1] = top[j-1], top[j]
		}
	}
	return top
}

// RollupOf makes the one pass over st's rows.
func RollupOf(st *dataset.Store) *Rollup {
	r := newRollup(0)
	for i := range st.Flows {
		r.add(&st.Flows[i])
	}
	r.addKept(st)
	v := r.view()
	v.summarize(nil)
	return v
}

// BusiestHome returns the home with the most Traffic volume (the lowest
// ID among equals), "" when there are no flows — Fig. 14's subject.
func (r *Rollup) BusiestHome() string {
	best, bestV := "", int64(-1)
	r.each(func(v homeView) {
		if v.has()&HasTraffic == 0 {
			return
		}
		id, b := v.id(), v.totals().bytes
		if b > bestV || b == bestV && id < best {
			best, bestV = id, b
		}
	})
	return best
}

// DeviceShares calls fn for each home with flow rows, in router-ID
// order, with the descending fractional volume contribution of its
// devices — Fig. 17. The shares are the home summaries': fn must not
// modify them.
func (r *Rollup) DeviceShares(fn func([]float64)) {
	for _, k := range r.order {
		if s := r.sums[k]; s.has&HasTraffic != 0 {
			fn(s.shares)
		}
	}
}

// MeanTopShare averages the dominant device's share across the homes
// with at least three devices (§6.3: ≈60–65%). The tops are summed in
// ascending order, as they always have been, so the mean keeps its bits.
func (r *Rollup) MeanTopShare() float64 { return stats.Mean(r.samples[topShares]) }

func isAnonToken(d string) bool {
	return len(d) > 5 && d[:5] == "anon-"
}

// DomainPopularity counts how many homes have a domain in their top-5 and
// top-10 by volume — Fig. 18. Only named (whitelisted) domains count.
type DomainPopularity struct {
	Domain string
	Top5   int
	Top10  int
}

// PopularDomains computes Fig. 18 ranked by top-5 appearances: its
// first k domains, and how many it ranks. Fig. 18 plots nameable
// domains; obfuscated tokens cannot appear on its x-axis. The counts are
// the ones summarize keeps over the home summaries; a page picks its
// few from them without sorting them all.
func (r *Rollup) PopularDomains(k int) (top []DomainPopularity, n int) {
	for d, c := range r.pop {
		top = keep(top, DomainPopularity{Domain: d, Top5: c.top5, Top10: c.top10}, k, cmpPopularity)
	}
	return top, len(r.pop)
}

func cmpPopularity(a, b DomainPopularity) int {
	if a.Top5 != b.Top5 {
		return cmp.Compare(b.Top5, a.Top5)
	}
	if a.Top10 != b.Top10 {
		return cmp.Compare(b.Top10, a.Top10)
	}
	return strings.Compare(a.Domain, b.Domain)
}

// DomainShareCurves is Fig. 19: per home, domains ranked by volume with
// their volume share, connection share, and the connection share of the
// top-by-volume ranks, as mean curves across homes to rankDepth ranks.
type DomainShareCurves struct {
	// VolumeShare[i] is the mean share of total volume of each home's
	// rank-(i+1) domain by volume (Fig. 19a).
	VolumeShare []float64
	// ConnShareByConnRank[i] is the mean share of connections of each
	// home's rank-(i+1) domain by connections (Fig. 19b).
	ConnShareByConnRank []float64
	// ConnShareByVolRank[i] is the mean share of connections of each
	// home's rank-(i+1) domain *by volume* (Fig. 19c).
	ConnShareByVolRank []float64
}

// shareTerms are one home's Fig. 19 terms, best first: its domains'
// shares of its named volume and connections by volume rank (vol,
// connOfVol) and by connection rank (conn); nil where it has no named
// volume or no named connections. They lie in buf, one allocation with
// the struct, which a page reads for every home.
type shareTerms struct {
	vol, connOfVol, conn []float64
	buf                  [3 * rankDepth]float64
}

func (v homeView) shareTerms(sc *rankScratch) *shareTerms {
	s := v.totals()
	if s.namedBytes == 0 || s.namedConns == 0 {
		return nil
	}
	volTotal, connTotal := float64(s.namedBytes), float64(s.namedConns)
	byVol := v.top(byVolumeNamed, rankDepth, sc)
	t := &shareTerms{}
	buf := t.buf[:2*len(byVol)]
	t.vol, t.connOfVol = buf[:len(byVol)], buf[len(byVol):]
	for i, d := range byVol {
		t.vol[i] = float64(d.bytes) / volTotal
		t.connOfVol[i] = float64(d.conns) / connTotal
	}
	t.conn = buf[len(buf):len(buf)]
	for _, d := range v.top(byConnsNamed, rankDepth, sc) {
		t.conn = append(t.conn, float64(d.conns)/connTotal)
	}
	return t
}

// DomainShares computes the Fig. 19 curves over the named domains, to
// rankDepth ranks: the summaries' terms added in first-flow order, the
// order whose rounding a chunked fold and a batch agree on.
func (r *Rollup) DomainShares() DomainShareCurves {
	out := DomainShareCurves{
		VolumeShare:         make([]float64, rankDepth),
		ConnShareByConnRank: make([]float64, rankDepth),
		ConnShareByVolRank:  make([]float64, rankDepth),
	}
	n := 0
	for _, k := range r.flow {
		t := r.sums[k].terms
		if t == nil {
			continue
		}
		n++
		for i, x := range t.vol {
			out.VolumeShare[i] += x
			out.ConnShareByVolRank[i] += t.connOfVol[i]
		}
		for i, x := range t.conn {
			out.ConnShareByConnRank[i] += x
		}
	}
	if n == 0 {
		return out
	}
	for i := 0; i < rankDepth; i++ {
		out.VolumeShare[i] /= float64(n)
		out.ConnShareByConnRank[i] /= float64(n)
		out.ConnShareByVolRank[i] /= float64(n)
	}
	return out
}

// WhitelistedVolumeShare returns the fraction of Traffic volume going to
// named (non-anonymized) domains (§6.4: ≈65%).
func (r *Rollup) WhitelistedVolumeShare() float64 {
	if r.totals.bytes == 0 {
		return 0
	}
	return float64(r.totals.whitelisted) / float64(r.totals.bytes)
}

const bestDepth = 4

// bestDevice is a device as a page ranks it for Fig. 20: its volume over
// the page's homes, and the one home it is in, "" for more than one.
type bestDevice struct {
	dev   mac.Addr
	bytes int64
	home  string
}

// TopDevices lists the k devices of the Traffic data set with the most
// volume, all of them if there are fewer, ranked by volume, ties by
// address (Fig. 20 picks its subjects from the first four): to bestDepth
// the page's carried best (bestDevices), deeper every device ranked.
func (r *Rollup) TopDevices(k int) []mac.Addr {
	top := r.devs[:min(k, len(r.devs))]
	if k > bestDepth {
		top = r.rankDevices(k)
	}
	out := make([]mac.Addr, len(top))
	for i, d := range top {
		out[i] = d.dev
	}
	return out
}

// device is the page's device at base fleet position i and tail fleet
// position j, -1 for a side that lacks it.
func (r *Rollup) device(i, j int32) (d bestDevice) {
	one := true
	for side, at := range [2]int32{i, j} {
		if at < 0 {
			continue
		}
		v := r
		if side == 1 {
			v = r.tail.roll
		}
		e, id := v.fleet.at(at), ""
		if e.home != manyHomes {
			id = v.homes[e.home].id
		}
		d.dev, d.bytes = e.dev, d.bytes+e.bytes
		one = one && id != "" && (d.home == "" || d.home == id)
		d.home = id
	}
	if !one {
		d.home = ""
	}
	return d
}

// onTail maps the base fleet's devices the tail has to their tail
// positions; it is empty without a tail.
func (o *overlay) onTail() map[int32]int32 {
	m := map[int32]int32{}
	if o != nil {
		for j, i := range o.fleet {
			if i >= 0 {
				m[i] = int32(j)
			}
		}
	}
	return m
}

// rankDevices returns the page's k best devices, every device ranked.
func (r *Rollup) rankDevices(k int) []bestDevice {
	var top []bestDevice
	onTail := r.tail.onTail()
	for i := range int32(r.fleet.len()) {
		top = keep(top, r.device(i, find(onTail, i)), k, cmpDevices)
	}
	if o := r.tail; o != nil {
		for j, i := range o.fleet {
			if i < 0 {
				top = keep(top, r.device(-1, int32(j)), k, cmpDevices)
			}
		}
	}
	return top
}

// bestDevices returns the page's bestDepth best devices: prev's, changed
// by the devices of the homes whose summaries went and came (summarize).
// A device's volume on a page changes only where a home that holds it
// has a new summary, so a device of no such home stays behind the best
// it was behind on prev; and of a home whose base version is the one it
// had on prev, only the tail's devices can have moved. A kept device
// whose volume fell, or that a summary that went holds and none that
// came does, may have fallen behind one the list does not name: then,
// and on the first page over a partial, every device is ranked.
func (r *Rollup) bestDevices(prev *Rollup, went, came []*summary, same bool) []bestDevice {
	switch {
	case prev.sums == nil:
		return r.rankDevices(bestDepth)
	case len(went)+len(came) == 0:
		return prev.devs
	}
	// moved calls fn with the devices of each of ss whose volume may have
	// moved: its tail version's, and its base version's unless its home's
	// summary in the other list has the same one.
	moved := func(ss, other []*summary, fn func(dv homeDevice, onBase bool)) {
		for k, s := range ss {
			if s.b != nil && !(same && other[k].b == s.b) {
				for _, dv := range s.b.devices {
					fn(dv, true)
				}
			}
			if s.t != nil {
				for _, dv := range s.t.devices {
					fn(dv, false)
				}
			}
		}
	}
	top := slices.Clone(prev.devs)
	kept := func(dev mac.Addr) int { return slices.IndexFunc(top, func(e bestDevice) bool { return e.dev == dev }) }
	var gone []mac.Addr // kept devices of the summaries that went
	moved(went, came, func(dv homeDevice, _ bool) {
		if kept(dv.dev) >= 0 {
			gone = append(gone, dv.dev)
		}
	})
	var onTail map[int32]int32 // made for the first base device
	ok := true
	moved(came, went, func(dv homeDevice, onBase bool) {
		i, j := dv.fleet, dv.fleet
		if onBase {
			if onTail == nil {
				onTail = r.tail.onTail()
			}
			j = find(onTail, i)
		} else {
			i = r.tail.fleet[j]
		}
		d := r.device(i, j)
		gone = slices.DeleteFunc(gone, func(dev mac.Addr) bool { return dev == d.dev })
		if p := kept(d.dev); p >= 0 {
			ok = ok && d.bytes >= top[p].bytes
			top = slices.Delete(top, p, p+1)
		}
		top = keep(top, d, bestDepth, cmpDevices)
	})
	if !ok || len(gone) > 0 {
		return r.rankDevices(bestDepth)
	}
	return top
}

// keep puts x into top, which cmp orders, if it ranks among the first k,
// and returns top: a running top k in one pass, without a sort.
func keep[T any](top []T, x T, k int, cmp func(a, b T) int) []T {
	if i, _ := slices.BinarySearchFunc(top, x, cmp); i < k {
		top = slices.Insert(top[:min(len(top), k-1)], i, x)
	}
	return top
}

// cmpDevices ranks devices by volume, most first, ties by address.
func cmpDevices(a, b bestDevice) int {
	if a.bytes != b.bytes {
		return cmp.Compare(b.bytes, a.bytes)
	}
	// Addr.String is fixed-width hex, so the bytes order as it does.
	return bytes.Compare(a.dev[:], b.dev[:])
}

// DomainShare is one domain of a device's volume distribution — Fig. 20's
// fingerprinting view. Shares are of the device's total volume.
type DomainShare struct {
	Domain string
	Share  float64
}

// DeviceDomains computes the first k domains of the Fig. 20 mix for a
// device, ranked descending: over the one home of one of the page's best
// devices, which its entry names, and otherwise over every home that has
// the device. Its pairs' volumes are integers far below 2^53: their
// float64 sums are exact.
func (r *Rollup) DeviceDomains(dev mac.Addr, k int) []DomainShare {
	var in []homeView // the homes the device is in
	if i := slices.IndexFunc(r.devs, func(d bestDevice) bool { return d.dev == dev }); i >= 0 && r.devs[i].home != "" {
		in = []homeView{r.of(r.devs[i].home)}
	} else {
		r.each(func(v homeView) {
			if v.hasDevice(dev) {
				in = append(in, v)
			}
		})
	}
	var total int64
	for _, v := range in {
		for _, h := range [2]*home{v.b, v.t} {
			for i := 0; h != nil && i < len(h.pairs); i++ {
				if p := &h.pairs[i]; p.dev == dev {
					total += p.bytes
				}
			}
		}
	}
	if total == 0 {
		return nil
	}
	top := make([]DomainShare, 0, min(k, 4))
	add := func(name string, bytes int64) {
		top = keep(top, DomainShare{Domain: name, Share: float64(bytes) / float64(total)}, k, cmpShares)
	}
	if len(in) == 1 { // a home's domains are its own: nothing to sum by name
		in[0].pairs(dev, add)
		return top
	}
	sums := map[string]int64{}
	for _, v := range in {
		v.pairs(dev, func(name string, bytes int64) { sums[name] += bytes })
	}
	for name, bytes := range sums {
		add(name, bytes)
	}
	return top
}

// cmpShares ranks a mix's domains: by share, most first, ties by name.
func cmpShares(a, b DomainShare) int {
	if a.Share != b.Share {
		return cmp.Compare(b.Share, a.Share)
	}
	return strings.Compare(a.Domain, b.Domain)
}

// pairs calls fn for each domain of v's pairs of dev, with its volume:
// a base pair's with the tail's of the same domain added, then the
// tail's others. It allocates for the tail's pairs of dev, nothing per
// base pair.
func (v homeView) pairs(dev mac.Addr, fn func(name string, bytes int64)) {
	b, t := v.both()
	var late map[int32]int64 // the tail's volume of dev, by base domain
	for _, p := range t.pairs {
		if d := v.dom[p.dom]; p.dev == dev && d >= 0 {
			if late == nil {
				late = map[int32]int64{}
			}
			late[d] = p.bytes
		}
	}
	for _, p := range b.pairs {
		if p.dev == dev {
			fn(b.domains[p.dom].name, p.bytes+late[p.dom])
			delete(late, p.dom)
		}
	}
	for d, bytes := range late { // a base domain without a base pair of dev
		fn(b.domains[d].name, bytes)
	}
	for _, p := range t.pairs {
		if p.dev == dev && v.dom[p.dom] < 0 {
			fn(t.domains[p.dom].name, p.bytes)
		}
	}
}

// ManufacturerCount is one Fig. 12 bar.
type ManufacturerCount struct {
	Category ouidb.Category
	Devices  int
}

// ManufacturerHistogram counts devices per Fig. 12 category across the
// Traffic-subset homes, excluding the platform's own Netgear hardware,
// unregistered OUIs and devices below the paper's 100 KB traffic floor.
// Each device's category was resolved when the fold first saw it
// (deviceTotals.cat). The base's devices are counted by their base
// volume; a device the tail adds volume to is then moved in or out of
// the count by its whole volume, so nothing of the fleet is copied.
func (r *Rollup) ManufacturerHistogram(minBytes int64) []ManufacturerCount {
	var counts [len(ouidb.Categories) + 1]int
	r.fleet.each(func(_ int32, d deviceTotals) {
		if d.bytes >= minBytes {
			counts[d.cat]++
		}
	})
	if o := r.tail; o != nil {
		o.roll.fleet.each(func(j int32, d deviceTotals) {
			if i := o.fleet[j]; i >= 0 {
				base := r.fleet.at(i).bytes
				if base >= minBytes {
					counts[d.cat]--
				}
				d.bytes += base
			}
			if d.bytes >= minBytes {
				counts[d.cat]++
			}
		})
	}
	var out []ManufacturerCount
	for c, n := range counts[1:] {
		if n > 0 {
			out = append(out, ManufacturerCount{Category: ouidb.Categories[c], Devices: n})
		}
	}
	slices.SortFunc(out, func(a, b ManufacturerCount) int {
		if a.Devices != b.Devices {
			return cmp.Compare(b.Devices, a.Devices)
		}
		return strings.Compare(string(a.Category), string(b.Category))
	})
	return out
}
