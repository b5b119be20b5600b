package figures

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"natpeek/internal/analysis"
	"natpeek/internal/dataset"
	"natpeek/internal/heartbeat"
	"natpeek/internal/mac"
	"natpeek/internal/segment"
)

// FuzzLivePage is the incremental read side's fence: its input decodes
// to a schedule of uploads, re-registrations, registrations of routers
// with no rows, heartbeats, seals (some whose commit fails),
// compactions, extractions, reopens and pages over a fleet of at most 16
// routers with rows, 4 with a registration only and 4 with beats only
// (schedule.step), and after every page
//   - the page's text equals the batch exhibits over the store's merged
//     rows (figures.All),
//   - the next page, of no new rows, reads the rollup RollupOf reads, to
//     the bit (diffRollups),
//   - and so does a clone of the dashboard's partial with the memtable's
//     rows folded into it (Partial.Clone);
//
// and a page after nothing but uploads, registrations and compactions
// extends the last page's tail rather than start it over.
//
// Every page takes what still holds of the last page's home summaries,
// roster and aggregates, so a page that kept what a step changed reads
// differently from the batch. The checked-in corpus holds one schedule
// per fault the read side is known to have had.
func FuzzLivePage(f *testing.F) {
	f.Add([]byte{0x84, 0x03, 0x10, 0x27, 0x81, 0x05, 0x05, 0x87, 0x06, 0x03, 0x8a, 0x84, 0x13, 0x21, 0x4c, 0x8e})
	f.Fuzz(func(t *testing.T, in []byte) {
		s := &schedule{t: t, in: in, dir: t.TempDir(), at: time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC),
			beat: map[string]time.Time{}}
		s.open()
		t.Cleanup(func() { s.seg.Close() })
		for step := 0; len(s.in) > 0 && step < maxSteps; step++ {
			s.step(step)
		}
		s.page("the last page")
	})
}

const (
	maxSteps, maxPages = 96, 32
	scheduleRouters    = 16
)

// The schedule's countries are in both groups and at several UTC
// offsets, IN's a half hour off the others; XX is one geo does not know.
// Router r uploads from scheduleCountries[r%6].
var (
	scheduleCountries = [...]string{"US", "PK", "GB", "IN", "JP", "BR", "XX"}
	scheduleDomains   = [...]string{"google.com", "youtube.com", "facebook.com", "netflix.com", "dropbox.com",
		"amazon.com", "apple.com", "twitter.com", "hulu.com", "pandora.com", "yahoo.com", "bing.com",
		"anon-0000000000000001", "anon-0000000000000002", "anon-0000000000000003", ""}
	capacityLevels = [...]float64{2e5, 1e6, 5e6, 2e7}
	peakLevels     = [...]float64{1e4, 1.5e5, 8e5, 3e6, 1.2e7, 4e7, 9e7, 2.5e8}
)

// schedule runs a fuzz input against a dashboard over a segment store.
type schedule struct {
	t     *testing.T
	in    []byte
	dir   string
	seg   *segment.Store
	d     *Dashboard
	at    time.Time // the next upload's time
	pages int
	// rebased is set by a step after which a page may start the tail
	// over: a seal (its commit failed or not), an extraction, a reopen.
	rebased bool
	// beat is each router's last heartbeat, from which its next ones go
	// on; a router with none yet starts at the first upload's time.
	beat map[string]time.Time
}

func (s *schedule) next() byte {
	if len(s.in) == 0 {
		return 0
	}
	b := s.in[0]
	s.in = s.in[1:]
	return b
}

func (s *schedule) open() {
	seg, err := segment.Open(segment.Options{Dir: s.dir, FlushRows: 1 << 30, NoCompaction: true})
	if err != nil {
		s.t.Fatal(err)
	}
	d, err := NewDashboard(seg, DefaultWindows())
	if err != nil {
		s.t.Fatal(err)
	}
	s.seg, s.d = seg, d
}

// step decodes and runs one step. Its first byte's low four bits pick
// what it does, and its top bit takes a page after it:
//
//	0–8   an upload from router r (the next byte, mod 16) of one row kind:
//	      uptime, capacity, a census, a WiFi scan, a flow (twice the
//	      weight), a flow that takes bytes or connections or both off
//	      one of the router's (device, domain) pairs — all of them but
//	      one, or half the bytes — or throughput (twice the weight); each
//	      registers r in its home country
//	9     r re-registered in any country, through the stripe of any key
//	10    a seal
//	11    a compaction
//	12    r's rows extracted, sealed ones too
//	13    the store closed, which seals, and opened again under a new
//	      dashboard
//	14    nothing but a page, where bits 4–6 are 0–2; else a heartbeat
//	      step (schedule.beats) or, at 6, a registration with no rows
//	15    a seal whose commit fails: its generation stays frozen, not
//	      published, and the live memtable grows behind it until the
//	      next seal commits both
func (s *schedule) step(step int) {
	op := s.next()
	what := fmt.Sprintf("step %d (op %d)", step, op&15)
	s.rebased = s.rebased || op&15 >= 10 && op&15 != 11 && op&15 != 14
	switch op & 15 {
	case 9:
		id, code, key := s.router(), scheduleCountries[int(s.next())%len(scheduleCountries)], fmt.Sprintf("via-%d", s.next())
		s.seg.Append(key, func(dst *dataset.Store) { dst.RouterCountry[id] = code })
		what += fmt.Sprintf(": %s re-registered in %s through %s", id, code, key)
	case 10:
		if err := s.seg.Flush(); err != nil {
			s.t.Fatal(err)
		}
	case 11:
		if err := s.seg.Compact(); err != nil {
			s.t.Fatal(err)
		}
	case 12:
		id := s.router()
		s.seg.ExtractRouters(func(r string) bool { return r == id })
		what += ": " + id + " extracted"
	case 13:
		if err := s.seg.Close(); err != nil {
			s.t.Fatal(err)
		}
		s.open()
	case 14:
		if op>>4&7 < 3 {
			op |= 0x80
			break
		}
		what += ": " + s.beats(op>>4&7)
	case 15:
		// A directory where the commit writes its temporary file fails it.
		var seq uint64
		for _, m := range s.seg.Segments() {
			seq = max(seq, m.Seq.Last+1)
		}
		block := filepath.Join(s.dir, fmt.Sprintf("%016x-%016x.seg.tmp", seq, seq))
		if err := os.Mkdir(block, 0o755); err != nil {
			s.t.Fatal(err)
		}
		s.seg.Flush()
		if err := os.Remove(block); err != nil {
			s.t.Fatal(err)
		}
	default:
		what += ": " + s.upload(op&15)
	}
	if op&0x80 != 0 && s.pages < maxPages {
		s.page(what)
	}
}

func (s *schedule) router() string { return fmt.Sprintf("r%02d", int(s.next())%scheduleRouters) }

// beats runs a heartbeat step of kind k (3–7) for the router the next
// byte names: one of the 16 with rows, one of four ("m0"–"m3") that only
// a registration names, or one of four ("u0"–"u3") that nothing but its
// beats names. The byte after it sets the step's size:
//
//	3  1–8 beats in order, a minute apart
//	4  a beat off cadence, 2–65 minutes after the last
//	5  a beat the router has already sent, again
//	6  no beat: the registration of "m0"–"m3" (by the router's number
//	   mod 4) in any country, with no rows
//	7  a run of 1–16 beats 1–4 minutes apart, 0–63 minutes after the
//	   last, recorded at once (Log.RecordRun)
func (s *schedule) beats(k byte) string {
	r, b := int(s.next())%24, s.next()
	id := fmt.Sprintf("r%02d", r)
	if r >= scheduleRouters {
		id = fmt.Sprintf("%c%d", "mu"[r/4-4], r%4)
	}
	hb := s.seg.HeartbeatLog()
	last, ok := s.beat[id]
	if !ok {
		last = time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	}
	switch k {
	case 3:
		n := 1 + int(b%8)
		for i := 0; i < n; i++ {
			last = last.Add(time.Minute)
			hb.Record(id, last)
		}
		s.beat[id] = last
		return fmt.Sprintf("%d beats in order from %s", n, id)
	case 4:
		s.beat[id] = last.Add(time.Duration(2+b%64) * time.Minute)
		hb.Record(id, s.beat[id])
		return fmt.Sprintf("a beat off cadence from %s, %v after its last", id, s.beat[id].Sub(last))
	case 5:
		hb.Record(id, last)
		return "a beat from " + id + " again"
	case 6:
		id = fmt.Sprintf("m%d", r%4)
		code := scheduleCountries[int(b)%len(scheduleCountries)]
		s.seg.Append(id, func(dst *dataset.Store) { dst.RouterCountry[id] = code })
		return fmt.Sprintf("%s registered in %s, with no rows", id, code)
	default:
		run := heartbeat.Run{Start: last.Add(time.Duration(b>>2) * time.Minute), Interval: time.Duration(1+b&3) * time.Minute, Count: 1 + int(b>>4)}
		hb.RecordRun(id, run)
		s.beat[id] = run.End()
		return fmt.Sprintf("a run of %d beats %v apart from %s", run.Count, run.Interval, id)
	}
}

// device is router r's device b names: one of its own eight, or one of
// two that every router shares, which Fig. 20 mixes over homes.
func device(r int, b byte) mac.Addr {
	if b&8 != 0 {
		return mac.FromOUI(0x001CB3, 9_000+uint32(b&1))
	}
	return mac.FromOUI(0x001CB3, uint32(r*16)+uint32(b&7))
}

// upload appends one upload of kind op (0–8) and describes it.
func (s *schedule) upload(op byte) string {
	rb := int(s.next()) % scheduleRouters
	id, home := fmt.Sprintf("r%02d", rb), scheduleCountries[rb%6]
	at := s.at
	s.at = s.at.Add(3*time.Hour + 7*time.Minute)
	a, b := s.next(), s.next()
	var rows func(dst *dataset.Store)
	what := ""
	switch op {
	case 0:
		rows = func(dst *dataset.Store) {
			dst.Uptime = append(dst.Uptime, dataset.UptimeReport{RouterID: id, ReportedAt: at, Uptime: time.Duration(a) * 37 * time.Minute})
		}
	case 1:
		rows = func(dst *dataset.Store) {
			dst.Capacity = append(dst.Capacity, dataset.CapacityMeasure{RouterID: id, MeasuredAt: at,
				UpBps: capacityLevels[a&3], DownBps: 10 * capacityLevels[a>>2&3]})
		}
	case 2:
		rows = func(dst *dataset.Store) {
			dst.Counts = append(dst.Counts, dataset.DeviceCount{RouterID: id, At: at, Wired: int(a & 3), W24: int(a >> 2 & 3), W5: int(a >> 4 & 3)})
			for j := 0; j <= int(b&3); j++ {
				dst.Sightings = append(dst.Sightings, dataset.DeviceSighting{RouterID: id, At: at,
					Device: device(rb, b>>2+byte(j)), Kind: dataset.ConnKind((int(b>>5) + j) % 3)})
			}
		}
	case 3:
		rows = func(dst *dataset.Store) {
			dst.WiFi = append(dst.WiFi, dataset.WiFiScan{RouterID: id, At: at, Band: [2]string{"2.4GHz", "5GHz"}[a&1],
				Channel: 1 + int(b%11), VisibleAPs: int(a>>1) % 25, Clients: int(b>>4) % 6})
		}
	case 4, 5:
		f := dataset.FlowRecord{RouterID: id, Device: device(rb, a), Domain: scheduleDomains[a>>4], Proto: "tcp",
			First: at, Last: at.Add(time.Minute), UpBytes: int64(b & 15), DownBytes: int64(1+b>>4) << (2 * (a & 7)), Conns: 1 + int64(b&3)}
		rows = func(dst *dataset.Store) { dst.Flows = append(dst.Flows, f) }
		what = fmt.Sprintf(" %s → %s, %d bytes", f.Device, f.Domain, f.Bytes())
	case 6:
		f := dataset.FlowRecord{RouterID: id, Device: device(rb, a), Domain: scheduleDomains[a>>4], Proto: "tcp", First: at, Last: at}
		var bytes, conns int64
		for _, g := range s.seg.Merge().Flows {
			if g.RouterID == id && g.Device == f.Device && g.Domain == f.Domain {
				bytes, conns = bytes+g.Bytes(), conns+g.Conns
			}
		}
		if bytes <= 1 {
			return "no pair to take bytes off"
		}
		switch {
		case b&4 != 0:
		case b&1 != 0:
			f.DownBytes = -bytes / 2
		default:
			f.DownBytes = -(bytes - 1)
		}
		if b&2 != 0 {
			f.Conns = 1 - conns
		}
		rows = func(dst *dataset.Store) { dst.Flows = append(dst.Flows, f) }
		what = fmt.Sprintf(" %s → %s, %d bytes of %d", f.Device, f.Domain, f.Bytes(), bytes)
	default:
		rows = func(dst *dataset.Store) {
			for j := 0; j <= int(b&3); j++ {
				dst.Throughput = append(dst.Throughput, dataset.ThroughputSample{RouterID: id,
					Minute: at.Add(time.Duration(j) * time.Minute), Dir: [2]string{"up", "down"}[a&1],
					PeakBps: peakLevels[(int(a>>1)+j)&7], TotalBytes: int64(b) << 10})
			}
		}
	}
	s.seg.Append(id, func(dst *dataset.Store) {
		dst.RouterCountry[id] = home
		rows(dst)
	})
	return fmt.Sprintf("an upload of kind %d from %s%s", op, id, what)
}

// page renders a page and checks it, and what it carries, against the
// batch over the store's merged rows.
func (s *schedule) page(what string) {
	t := s.t
	t.Helper()
	s.pages++
	rebuilds := s.d.mRebuilds.Value()
	reports := s.d.Render()
	if !s.rebased && s.d.mRebuilds.Value() != rebuilds {
		t.Errorf("%s: the page started the tail over, after nothing that re-bases it", what)
	}
	s.rebased = false
	st := s.seg.Merge()
	if got, want := renderString(reports), renderString(All(st, DefaultWindows())); got != want {
		t.Fatalf("%s: the page:\n%s\nthe batch exhibits over the store:\n%s", what, got, want)
	}
	want := analysis.RollupOf(st)
	_, _, v, _ := s.d.snapshot()
	diffRollups(t, what+": the next page", st, want, v)
	p := s.d.base.Clone()
	p.Fold(s.seg.Tail())
	diffRollups(t, what+": the partial's clone with the memtable folded in", st, want, folded(p))
	if t.Failed() {
		t.FailNow()
	}
}
