package wire

import (
	"math"
	"time"

	"natpeek/internal/codec"
)

// AppendBatch encodes a whole batch onto dst and returns the extended
// buffer. Callers on a delivery loop pass last round's buffer back in
// (sliced to [:0]) to amortize the allocation. Items whose payload kind
// disagrees with KindFor(Endpoint) must use KindRaw; PayloadFromJSON
// guarantees that invariant for transcoded items.
func AppendBatch(dst []byte, items []Item) []byte {
	e := encoder{Enc: codec.Enc{Buf: append(dst, magic...)}}
	e.Uvarint(uint64(len(items)))
	for i := range items {
		e.item(&items[i])
	}
	return e.Buf
}

// encoder is the codec kernel's Enc plus what spans a whole batch: the
// string dictionary and the timestamp chain.
type encoder struct {
	codec.Enc
	dict codec.Dict
	prev int64
}

func (e *encoder) item(it *Item) {
	meta := uint64(it.Payload.Kind)
	if it.Trace != nil {
		meta |= 1 << 3
	}
	e.Uvarint(meta)
	if it.Payload.Kind == KindRaw {
		e.ref(it.Endpoint)
	}
	e.Str(it.Key)
	if it.Trace != nil {
		e.ref(it.Trace.Router)
		e.Uvarint(uint64(len(it.Trace.Spans)))
		for _, sp := range it.Trace.Spans {
			e.ref(sp.Name)
			e.ref(sp.Status)
			e.time(sp.Start)
			e.time(sp.End)
			e.Uvarint(uint64(len(sp.Attrs)))
			for _, a := range sp.Attrs {
				e.ref(a.K)
				e.ref(a.V)
			}
		}
	}
	e.payload(&it.Payload)
}

func (e *encoder) payload(p *Payload) {
	switch p.Kind {
	case KindUptime:
		e.ref(p.Uptime.RouterID)
		e.time(p.Uptime.ReportedAt)
		e.Varint(int64(p.Uptime.Uptime))
	case KindCapacity:
		e.ref(p.Capacity.RouterID)
		e.time(p.Capacity.MeasuredAt)
		e.F64(p.Capacity.UpBps)
		e.F64(p.Capacity.DownBps)
	case KindDevices:
		e.ref(p.Count.RouterID)
		e.time(p.Count.At)
		e.Varint(int64(p.Count.Wired))
		e.Varint(int64(p.Count.W24))
		e.Varint(int64(p.Count.W5))
		e.Uvarint(uint64(len(p.Sightings)))
		for _, s := range p.Sightings {
			e.ref(s.RouterID)
			e.time(s.At)
			e.Raw(s.Device[:])
			e.Varint(int64(s.Kind))
		}
	case KindWiFi:
		e.Uvarint(uint64(len(p.WiFi)))
		for _, s := range p.WiFi {
			e.ref(s.RouterID)
			e.time(s.At)
			e.ref(s.Band)
			e.Varint(int64(s.Channel))
			e.Varint(int64(s.VisibleAPs))
			e.Varint(int64(s.Clients))
		}
	case KindFlows:
		e.Uvarint(uint64(len(p.Flows)))
		for _, f := range p.Flows {
			e.ref(f.RouterID)
			e.Raw(f.Device[:])
			e.ref(f.Domain)
			e.ref(f.Proto)
			e.time(f.First)
			e.time(f.Last)
			e.Varint(f.UpBytes)
			e.Varint(f.DownBytes)
			e.Varint(f.UpPkts)
			e.Varint(f.DownPkts)
			e.Varint(f.Conns)
		}
	case KindThroughput:
		e.Uvarint(uint64(len(p.Throughput)))
		for _, s := range p.Throughput {
			e.ref(s.RouterID)
			e.time(s.Minute)
			e.ref(s.Dir)
			e.F64(s.PeakBps)
			e.Varint(s.TotalBytes)
		}
	default: // KindRaw
		e.Bytes(p.Raw)
	}
}

func (e *encoder) ref(s string) { e.dict.Put(&e.Enc, s) }

// time appends one link of the batch-wide timestamp delta chain; the
// zero time is the math.MinInt64 sentinel and leaves the chain as is.
//
// A non-zero instant whose delta lands exactly on the sentinel is
// nudged forward 1 ns. Payload times never get here — PayloadFromJSON's
// timeEncodable guard confines them to a range whose deltas cannot
// reach MinInt64 — but span times come straight from client clocks, and
// without the nudge such a delta would decode as the zero time AND
// leave the decoder's chain un-advanced while the encoder's moved,
// skewing every later timestamp in the batch.
func (e *encoder) time(t time.Time) {
	if t.IsZero() {
		e.Varint(math.MinInt64)
		return
	}
	n := t.UnixNano()
	if n-e.prev == math.MinInt64 {
		n++
	}
	e.Varint(n - e.prev)
	e.prev = n
}
