// Package heartbeat implements the availability-measurement primitive of
// §4: "Every router sends a 'heartbeat' packet to the central BISmark
// server approximately once a minute... We define downtime as any gap in
// the heartbeat logs that lasts longer than ten minutes."
//
// The package has three parts: the wire format, a UDP sender/receiver
// pair for running over real sockets, and the Log with the gap analysis
// that turns heartbeat timestamps into the downtime statistics behind
// Figs. 3–6.
package heartbeat

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"natpeek/internal/telemetry"
)

// Interval is the nominal heartbeat period.
const Interval = time.Minute

// DefaultGapThreshold is the paper's downtime definition: a gap of ten
// minutes or longer.
const DefaultGapThreshold = 10 * time.Minute

// magic identifies heartbeat datagrams ("BSHB", version 1).
var magic = [4]byte{'B', 'S', 'H', 'B'}

// Beat is one heartbeat datagram.
type Beat struct {
	RouterID string
	Seq      uint64
	SentAt   time.Time
}

// Marshal encodes the beat.
func (b *Beat) Marshal() []byte {
	id := []byte(b.RouterID)
	if len(id) > 255 {
		id = id[:255]
	}
	out := make([]byte, 0, 4+1+1+len(id)+8+8)
	out = append(out, magic[:]...)
	out = append(out, 1) // version
	out = append(out, byte(len(id)))
	out = append(out, id...)
	out = binary.BigEndian.AppendUint64(out, b.Seq)
	out = binary.BigEndian.AppendUint64(out, uint64(b.SentAt.UnixNano()))
	return out
}

// ErrBadBeat reports an undecodable datagram.
var ErrBadBeat = errors.New("heartbeat: bad datagram")

// ParseBeat decodes a datagram.
func ParseBeat(raw []byte) (Beat, error) {
	var b Beat
	if len(raw) < 6 || [4]byte(raw[:4]) != magic {
		return b, fmt.Errorf("%w: magic", ErrBadBeat)
	}
	if raw[4] != 1 {
		return b, fmt.Errorf("%w: version %d", ErrBadBeat, raw[4])
	}
	idLen := int(raw[5])
	if len(raw) < 6+idLen+16 {
		return b, fmt.Errorf("%w: truncated", ErrBadBeat)
	}
	b.RouterID = string(raw[6 : 6+idLen])
	b.Seq = binary.BigEndian.Uint64(raw[6+idLen:])
	b.SentAt = time.Unix(0, int64(binary.BigEndian.Uint64(raw[6+idLen+8:]))).UTC()
	return b, nil
}

// Sender emits heartbeats over a real UDP socket. Heartbeats are
// fire-and-forget: "These heartbeats can be lost, and the router makes no
// attempt to retransmit them."
type Sender struct {
	routerID string
	conn     net.Conn
	seq      uint64
}

// NewSender dials the collection server (addr like "host:port").
func NewSender(routerID, addr string) (*Sender, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("heartbeat: dial %s: %w", addr, err)
	}
	return &Sender{routerID: routerID, conn: conn}, nil
}

// Send emits one beat stamped now. Transmission errors are returned but a
// caller following the protocol ignores them.
func (s *Sender) Send(now time.Time) error {
	s.seq++
	b := Beat{RouterID: s.routerID, Seq: s.seq, SentAt: now}
	_, err := s.conn.Write(b.Marshal())
	return err
}

// Close releases the socket.
func (s *Sender) Close() error { return s.conn.Close() }

// Receiver accepts heartbeats on a UDP socket and appends them to a Log.
type Receiver struct {
	pc  net.PacketConn
	log *Log

	mReceived  *telemetry.Counter
	mMalformed *telemetry.Counter
	gLastSeen  *telemetry.GaugeVec

	mu     sync.Mutex
	closed bool
	bad    int
}

// NewReceiver listens on addr ("host:port", port 0 for ephemeral) and
// records beats into log, stamping them with receive time from recvNow
// (nil means time.Now — receive-side stamping is what the study used, so
// clock skew on routers doesn't corrupt the log).
func NewReceiver(addr string, log *Log, recvNow func() time.Time) (*Receiver, error) {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("heartbeat: listen %s: %w", addr, err)
	}
	if recvNow == nil {
		recvNow = time.Now
	}
	r := &Receiver{
		pc:  pc,
		log: log,
		mReceived: telemetry.Default.Counter("natpeek_heartbeats_received_total",
			"Heartbeat datagrams successfully decoded and recorded."),
		mMalformed: telemetry.Default.Counter("natpeek_heartbeats_malformed_total",
			"Datagrams on the heartbeat port that failed to decode."),
		gLastSeen: telemetry.Default.GaugeVec("natpeek_heartbeat_last_seen_seconds",
			"Receive-side unix timestamp of the last heartbeat, per router.", "router"),
	}
	go r.loop(recvNow)
	return r, nil
}

// Addr returns the bound address.
func (r *Receiver) Addr() net.Addr { return r.pc.LocalAddr() }

// BadDatagrams returns how many undecodable datagrams arrived.
func (r *Receiver) BadDatagrams() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bad
}

func (r *Receiver) loop(recvNow func() time.Time) {
	buf := make([]byte, 2048)
	for {
		n, _, err := r.pc.ReadFrom(buf)
		if err != nil {
			r.mu.Lock()
			closed := r.closed
			r.mu.Unlock()
			if closed {
				return
			}
			continue
		}
		beat, err := ParseBeat(buf[:n])
		if err != nil {
			r.mu.Lock()
			r.bad++
			r.mu.Unlock()
			r.mMalformed.Inc()
			continue
		}
		at := recvNow()
		r.log.Record(beat.RouterID, at)
		r.mReceived.Inc()
		r.gLastSeen.With(beat.RouterID).Set(float64(at.Unix()))
	}
}

// Close stops the receiver.
func (r *Receiver) Close() error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	return r.pc.Close()
}

// Run is a maximal arithmetic sequence of heartbeats: Count beats
// starting at Start, Interval apart. A 6.5-month deployment produces tens
// of millions of beats; storing them as runs keeps the log compact while
// the gap analysis stays exact (see coverage).
type Run struct {
	Start    time.Time
	Interval time.Duration
	Count    int
}

// End returns the time of the run's last beat.
func (r Run) End() time.Time {
	if r.Count <= 1 {
		return r.Start
	}
	return r.Start.Add(time.Duration(r.Count-1) * r.Interval)
}

// holds reports whether at is one of the run's beats.
func (r Run) holds(at time.Time) bool {
	d := at.Sub(r.Start)
	return d == 0 || r.Count > 1 && d > 0 && d%r.Interval == 0 && !at.After(r.End())
}

// Log stores heartbeat arrival times per router, run-length encoded. It
// is safe for concurrent use.
type Log struct {
	mu       sync.Mutex
	runs     map[string]*history
	ids      []string // the routers of runs, sorted unless unsorted is set
	unsorted bool
}

// history is one router's runs in arrival order. No run holds an
// instant after latest, so a beat or run that starts after it is new:
// history recorded in time order never looks back over older runs.
// version counts the calls that recorded something (extend).
type history struct {
	runs    []Run
	latest  time.Time
	version uint64
}

// NewLog returns an empty log.
func NewLog() *Log {
	return &Log{runs: make(map[string]*history)}
}

// of returns router id's history, adding an empty one. Callers hold mu.
func (l *Log) of(id string) *history {
	h := l.runs[id]
	if h == nil {
		h = &history{}
		l.runs[id] = h
		if n := len(l.ids); n > 0 && id < l.ids[n-1] {
			l.unsorted = true
		}
		l.ids = append(l.ids, id)
	}
	return h
}

// sorted returns the routers of runs, sorted: they are sorted when a
// reader first asks after a new router came out of order. Callers hold
// mu.
func (l *Log) sorted() []string {
	if l.unsorted {
		slices.Sort(l.ids)
		l.unsorted = false
	}
	return l.ids
}

// olderHolds reports whether one of the runs before the last holds at.
func (h *history) olderHolds(at time.Time) bool {
	if at.After(h.latest) {
		return false
	}
	for _, r := range h.runs[:len(h.runs)-1] {
		if r.holds(at) {
			return true
		}
	}
	return false
}

// add appends r and advances latest.
func (h *history) add(r Run) {
	h.runs = append(h.runs, r)
	h.extend(r.End())
}

// extend records that a run now holds end: every call that records
// something ends here, once, and moves the router's version.
func (h *history) extend(end time.Time) {
	if end.After(h.latest) {
		h.latest = end
	}
	h.version++
}

// Record appends an arrival for router id. An instant one of the
// router's runs already holds (a repeated datagram) records nothing.
func (l *Log) Record(id string, at time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	h := l.of(id)
	if n := len(h.runs); n > 0 {
		last := &h.runs[n-1]
		if last.holds(at) {
			return
		}
		// The steady beat extends the last run in O(1).
		if last.Count > 1 && at.Sub(last.End()) == last.Interval {
			last.Count++
			h.extend(at)
			return
		}
		// Off the last run's cadence: only here can an older run hold at.
		if h.olderHolds(at) {
			return
		}
		if last.Count == 1 && at.After(last.Start) {
			last.Interval = at.Sub(last.Start)
			last.Count = 2
			h.extend(at)
			return
		}
	}
	h.add(Run{Start: at, Count: 1})
}

// RecordRun appends a whole run (the simulator's fast path). A run whose
// every beat one of the router's runs already holds records nothing.
func (l *Log) RecordRun(id string, r Run) {
	if r.Count <= 0 {
		return
	}
	if r.Count > 1 && r.Interval <= 0 {
		r.Interval = Interval
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	h := l.of(id)
	if !r.Start.After(h.latest) {
		for _, have := range h.runs {
			if have.holds(r.Start) && have.holds(r.End()) && (r.Count == 1 || r.Interval%have.Interval == 0) {
				return
			}
		}
	}
	h.add(r)
}

// Routers returns the IDs present in the log, sorted.
func (l *Log) Routers() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.sorted())
}

// Versions returns the IDs present in the log, sorted, and each one's
// version: how many Record and RecordRun calls recorded something for
// it. A router's downtimes can change only when its version moves, so
// a reader that found them at one version need not find them again
// until it has moved.
func (l *Log) Versions() (ids []string, versions []uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ids = slices.Clone(l.sorted())
	versions = make([]uint64, len(ids))
	for i, id := range ids {
		versions[i] = l.runs[id].version
	}
	return ids, versions
}

// Runs returns a copy of the stored runs for id, sorted by start.
func (l *Log) Runs(id string) []Run {
	l.mu.Lock()
	var rs []Run
	if h := l.runs[id]; h != nil {
		rs = append(rs, h.runs...)
	}
	l.mu.Unlock()
	sort.Slice(rs, func(i, j int) bool { return rs[i].Start.Before(rs[j].Start) })
	return rs
}

// Count returns the number of beats recorded for id.
func (l *Log) Count(id string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	if h := l.runs[id]; h != nil {
		for _, r := range h.runs {
			n += r.Count
		}
	}
	return n
}

// Downtime is one connectivity gap.
type Downtime struct {
	Start time.Time // last heartbeat before the gap (or window start)
	End   time.Time // first heartbeat after the gap (or window end)
}

// Duration returns the gap length.
func (d Downtime) Duration() time.Duration { return d.End.Sub(d.Start) }

// Downtimes extracts the gaps longer than threshold from the router's
// beats within [from, to). Leading and trailing silence against the
// window edges count as downtime too — a router that never reported
// during the window is one long downtime. The computation runs on the
// run-length encoding directly and is exactly equivalent to GapsIn over
// the expanded beats.
func (l *Log) Downtimes(id string, from, to time.Time, threshold time.Duration) []Downtime {
	if !to.After(from) {
		return nil
	}
	if threshold <= 0 {
		threshold = DefaultGapThreshold
	}
	// Convert each run to its beat-coverage span inside the window. Runs
	// whose internal spacing exceeds the threshold contribute per-beat
	// point spans instead.
	type span struct{ first, last time.Time }
	var spans []span
	for _, r := range l.Runs(id) {
		if r.Count > 1 && r.Interval > threshold {
			for i := 0; i < r.Count; i++ {
				b := r.Start.Add(time.Duration(i) * r.Interval)
				if !b.Before(from) && b.Before(to) {
					spans = append(spans, span{b, b})
				}
			}
			continue
		}
		first, last := r.Start, r.End()
		if r.Count > 1 && first.Before(from) {
			// First beat at or after `from`.
			k := (from.Sub(first) + r.Interval - 1) / r.Interval
			first = first.Add(k * r.Interval)
		}
		if r.Count > 1 && !last.Before(to) {
			// Last beat strictly before `to`.
			k := (last.Sub(to))/r.Interval + 1
			last = last.Add(-k * r.Interval)
		}
		if first.Before(from) || !first.Before(to) || last.Before(first) {
			continue
		}
		spans = append(spans, span{first, last})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].first.Before(spans[j].first) })
	// Tolerance-merge: adjacent spans within the threshold are one
	// covered stretch (no gap between beats ≤ threshold apart).
	var merged []span
	for _, s := range spans {
		if n := len(merged); n > 0 && s.first.Sub(merged[n-1].last) <= threshold {
			if s.last.After(merged[n-1].last) {
				merged[n-1].last = s.last
			}
			continue
		}
		merged = append(merged, s)
	}
	var out []Downtime
	prev := from
	for _, s := range merged {
		if s.first.Sub(prev) > threshold {
			out = append(out, Downtime{Start: prev, End: s.first})
		}
		if s.last.After(prev) {
			prev = s.last
		}
	}
	if to.Sub(prev) > threshold {
		out = append(out, Downtime{Start: prev, End: to})
	}
	return out
}

// GapsIn is the pure-function core of Downtimes, usable on any sorted (or
// unsorted — it sorts a copy) series of heartbeat timestamps.
func GapsIn(beats []time.Time, from, to time.Time, threshold time.Duration) []Downtime {
	if !to.After(from) {
		return nil
	}
	if threshold <= 0 {
		threshold = DefaultGapThreshold
	}
	in := make([]time.Time, 0, len(beats))
	for _, b := range beats {
		if !b.Before(from) && b.Before(to) {
			in = append(in, b)
		}
	}
	sort.Slice(in, func(i, j int) bool { return in[i].Before(in[j]) })

	var out []Downtime
	prev := from
	for _, b := range in {
		if b.Sub(prev) > threshold {
			out = append(out, Downtime{Start: prev, End: b})
		}
		prev = b
	}
	if to.Sub(prev) > threshold {
		out = append(out, Downtime{Start: prev, End: to})
	}
	return out
}

// UptimeFraction returns the fraction of [from, to) not covered by
// downtime — the §4.2 "median US user has his router on 98.25% of time"
// statistic.
func (l *Log) UptimeFraction(id string, from, to time.Time, threshold time.Duration) float64 {
	if !to.After(from) {
		return 0
	}
	var down time.Duration
	for _, d := range l.Downtimes(id, from, to, threshold) {
		down += d.Duration()
	}
	return 1 - float64(down)/float64(to.Sub(from))
}
