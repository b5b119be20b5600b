package wire

import (
	"fmt"
	"io"
	"time"

	"natpeek/internal/codec"
	"natpeek/internal/dataset"
	"natpeek/internal/mac"
	"natpeek/internal/trace"
)

// Decoder streams items out of one NPB1 buffer. It is built for a
// sync.Pool: Reset rebinds it to a new buffer while keeping every
// scratch slice (dictionary, row slices, span slice) at its high-water
// capacity, so a warmed decoder ingests a batch with close to zero
// allocations — the only per-batch allocations left are the dictionary
// string copies themselves.
//
// Hostile input is bounded, not trusted: the codec kernel checks every
// length and count against the bytes actually remaining, so a forged
// header cannot make the decoder allocate beyond its input's size. A
// corrupt buffer yields an error from Reset or Next; it never panics.
//
// The Item filled by Next reuses the decoder's scratch storage — see
// Payload's doc for the aliasing rules.
type Decoder struct {
	dec  codec.Dec
	dict codec.Undict
	left int   // items not yet decoded
	prev int64 // the batch-wide timestamp delta chain

	// interned caches dictionary literals across Reset calls. A pooled
	// decoder sees the same router IDs, domains, protocols, and span
	// names batch after batch; serving them from the cache makes the
	// dictionary copies a one-time cost instead of a per-batch one.
	// Bounded (entries and string length) so hostile input cannot grow
	// it past internMaxEntries strings; on overflow it is cleared and
	// re-warms from live traffic.
	interned map[string]string

	sightings  []dataset.DeviceSighting
	wifi       []dataset.WiFiScan
	flows      []dataset.FlowRecord
	throughput []dataset.ThroughputSample
	spans      []trace.Span
	tr         trace.Wire
}

func corrupt(err error) error { return fmt.Errorf("wire: corrupt batch: %w", err) }

// Reset binds the decoder to buf and decodes the envelope header,
// returning an error if buf is not an NPB1 batch.
func (d *Decoder) Reset(buf []byte) error {
	if d.dict.Intern == nil {
		d.dict.Intern = d.intern
	}
	d.dec.Reset(buf)
	d.dict.Reset()
	d.prev = 0
	d.dec.Magic(magic)
	d.left = d.dec.Count()
	if err := d.dec.Err(); err != nil {
		return corrupt(err)
	}
	return nil
}

// Len returns how many items remain to be decoded.
func (d *Decoder) Len() int { return d.left }

// Next decodes the next item into it, reusing the decoder's scratch
// storage. It returns io.EOF after the last item — and, like the JSON
// path post-bugfix, rejects trailing bytes after the final item. The
// item's schema reads straight through; one check at the end means a
// failure anywhere inside it hands out nothing.
func (d *Decoder) Next(it *Item) error {
	c := &d.dec
	if d.left == 0 {
		if err := c.End(); err != nil {
			return corrupt(err)
		}
		return io.EOF
	}
	d.left--
	*it = Item{}

	meta := c.Uvarint()
	kind := checkMeta(c, meta)
	it.Payload.Kind = kind
	if kind == KindRaw {
		it.Endpoint = d.ref()
	} else {
		it.Endpoint = kind.Endpoint()
	}
	it.Key = c.Str()
	if meta&metaTrace != 0 {
		d.decodeTrace(it)
	}
	d.decodePayload(&it.Payload)
	if err := c.Err(); err != nil {
		*it = Item{}
		return corrupt(err)
	}
	return nil
}

// checkMeta validates an item's meta value and returns its payload kind.
// Only bits 0..3 are defined; a sender's future flag in a higher bit is
// refused rather than misread as a plain item of the kind in bits 0..2.
func checkMeta(c *codec.Dec, meta uint64) Kind {
	if meta >= metaTrace<<1 {
		c.Failf("undefined meta bits %#x", meta)
	}
	kind := Kind(meta & 0x7)
	if kind > kindMax {
		c.Failf("unknown payload kind %d", kind)
	}
	return kind
}

// Fields of a composite literal are evaluated in source order, so the
// literals below read the wire in the order they are written.

func (d *Decoder) decodeTrace(it *Item) {
	c := &d.dec
	router := d.ref()
	spans := d.spans[:0]
	for n := c.Count(); n > 0 && c.OK(); n-- {
		sp := trace.Span{Name: d.ref(), Status: d.ref(), Start: d.time(), End: d.time()}
		if na := c.Count(); na > 0 {
			// Attrs are freshly allocated, never scratch: span slices are
			// copied into traces the recorder retains long after this
			// batch's buffers are reused, and that copy is shallow. Grown
			// incrementally rather than sized from na — Count only
			// guarantees one input byte per element, so an up-front make
			// would hand a forged count ~32x amplification before the
			// decode failed.
			sp.Attrs = make([]trace.Attr, 0, min(na, 8))
			for ; na > 0 && c.OK(); na-- {
				sp.Attrs = append(sp.Attrs, trace.Attr{K: d.ref(), V: d.ref()})
			}
		}
		spans = append(spans, sp)
	}
	d.spans = spans
	d.tr = trace.Wire{Router: router, Spans: spans}
	it.Trace = &d.tr
}

func (d *Decoder) decodePayload(p *Payload) {
	c := &d.dec
	switch p.Kind {
	case KindUptime:
		p.Uptime = dataset.UptimeReport{RouterID: d.ref(), ReportedAt: d.time(), Uptime: time.Duration(c.Varint())}
	case KindCapacity:
		p.Capacity = dataset.CapacityMeasure{RouterID: d.ref(), MeasuredAt: d.time(), UpBps: c.F64(), DownBps: c.F64()}
	case KindDevices:
		p.Count = dataset.DeviceCount{RouterID: d.ref(), At: d.time(),
			Wired: int(c.Varint()), W24: int(c.Varint()), W5: int(c.Varint())}
		rows := d.sightings[:0]
		for n := c.Count(); n > 0 && c.OK(); n-- {
			rows = append(rows, dataset.DeviceSighting{RouterID: d.ref(), At: d.time(),
				Device: d.mac(), Kind: dataset.ConnKind(c.Varint())})
		}
		d.sightings, p.Sightings = rows, rows
	case KindWiFi:
		rows := d.wifi[:0]
		for n := c.Count(); n > 0 && c.OK(); n-- {
			rows = append(rows, dataset.WiFiScan{RouterID: d.ref(), At: d.time(), Band: d.ref(),
				Channel: int(c.Varint()), VisibleAPs: int(c.Varint()), Clients: int(c.Varint())})
		}
		d.wifi, p.WiFi = rows, rows
	case KindFlows:
		rows := d.flows[:0]
		for n := c.Count(); n > 0 && c.OK(); n-- {
			rows = append(rows, dataset.FlowRecord{RouterID: d.ref(), Device: d.mac(),
				Domain: d.ref(), Proto: d.ref(), First: d.time(), Last: d.time(),
				UpBytes: c.Varint(), DownBytes: c.Varint(),
				UpPkts: c.Varint(), DownPkts: c.Varint(), Conns: c.Varint()})
		}
		d.flows, p.Flows = rows, rows
	case KindThroughput:
		rows := d.throughput[:0]
		for n := c.Count(); n > 0 && c.OK(); n-- {
			rows = append(rows, dataset.ThroughputSample{RouterID: d.ref(), Minute: d.time(),
				Dir: d.ref(), PeakBps: c.F64(), TotalBytes: c.Varint()})
		}
		d.throughput, p.Throughput = rows, rows
	default: // KindRaw: zero-copy alias into the input buffer
		p.Raw = c.Bytes()
	}
}

// Dictionary-literal interning bounds: strings longer than
// internMaxLen stay per-batch copies, and the cache holds at most
// internMaxEntries strings (≤1 MiB) before being cleared.
const (
	internMaxLen     = 256
	internMaxEntries = 4096
)

// intern is the dictionary's literal hook: each distinct string is
// copied once per batch, however many rows carry it — and at most once
// per pooled decoder lifetime when it fits the intern cache. Only
// dictionary literals come through here — item keys are unique by
// design and would only churn the cache.
func (d *Decoder) intern(b []byte) string {
	if len(b) == 0 || len(b) > internMaxLen {
		return string(b)
	}
	if s, ok := d.interned[string(b)]; ok { // no alloc: map index on string(b)
		return s
	}
	if len(d.interned) >= internMaxEntries {
		clear(d.interned)
	}
	if d.interned == nil {
		d.interned = make(map[string]string)
	}
	s := string(b)
	d.interned[s] = s
	return s
}

// ref resolves one dictionary-coded string.
func (d *Decoder) ref() string { return d.dict.Get(&d.dec) }

func (d *Decoder) mac() (a mac.Addr) {
	d.dec.Fill(a[:])
	return a
}

// Escaped instants must lie in years 0000–9999, what RFC 3339 JSON can
// carry, so every decoded row has a JSONBody.
const (
	escapeMin = -62167219200 // 0000-01-01T00:00:00Z
	escapeMax = 253402300799 // 9999-12-31T23:59:59Z
)

// carried reports whether an instant of sec Unix seconds and nsec
// nanoseconds lies in years 0000–9999: the one range NPB1 carries.
func carried(sec int64, nsec uint64) bool {
	return sec >= escapeMin && sec <= escapeMax && nsec < 1e9
}

// CheckTimes returns an error for the first instant of p or of spans
// that NPB1 does not carry — one carried rejects — and nil when it
// carries them all: AppendBatch writes any instant, so an item holding
// one outside years 0000–9999 encodes to a batch no Decoder reads. The
// zero time is carried. These are the instants AppendBatch writes of an
// item with p and spans.
func CheckTimes(p *Payload, spans []trace.Span) error {
	var bad time.Time // the first instant not carried; never the zero time
	check := func(t time.Time) {
		if bad.IsZero() && !t.IsZero() && !carried(t.Unix(), uint64(t.Nanosecond())) {
			bad = t
		}
	}
	for _, sp := range spans {
		check(sp.Start)
		check(sp.End)
	}
	switch p.Kind {
	case KindUptime:
		check(p.Uptime.ReportedAt)
	case KindCapacity:
		check(p.Capacity.MeasuredAt)
	case KindDevices:
		check(p.Count.At)
		for _, s := range p.Sightings {
			check(s.At)
		}
	case KindWiFi:
		for _, s := range p.WiFi {
			check(s.At)
		}
	case KindFlows:
		for _, f := range p.Flows {
			check(f.First)
			check(f.Last)
		}
	case KindThroughput:
		for _, s := range p.Throughput {
			check(s.Minute)
		}
	}
	if !bad.IsZero() {
		return fmt.Errorf("wire: %s time %s outside years 0000-9999", p.Kind.Endpoint(), bad.UTC().Format(time.RFC3339Nano))
	}
	return nil
}

// time reads one time field (see encoder.time). Decoded times are UTC,
// as ParseJSON yields them, so every path stores identical rows.
func (d *Decoder) time() time.Time {
	switch delta := d.dec.Varint(); delta {
	case zeroTime:
		return time.Time{}
	case escapeTime:
		sec, nsec := d.dec.Varint(), d.dec.Uvarint()
		if !carried(sec, nsec) {
			d.dec.Failf("escaped time %ds %dns outside years 0000-9999", sec, nsec)
			return time.Time{}
		}
		return time.Unix(sec, int64(nsec)).UTC()
	default:
		d.prev += delta
		return time.Unix(0, d.prev).UTC()
	}
}
