package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/mac"
	"natpeek/internal/trace"
)

// TestSpanTimeSentinelCollision: every instant in years 0000–9999 must
// decode exactly (==, so in UTC), as a span time and as a row time of
// every kind. The
// delta chain alone could not promise that: a delta of exactly
// math.MinInt64 (the zero-time sentinel — the first time of a batch at
// the earliest UnixNano) decoded as the zero time and desynchronized the
// chain, and an instant with no UnixNano (a span starting in year 1
// decoded as 1754, one ending in 2500 as 1915) was corrupted outright.
// Such instants now take the escape, which also carries a stored row
// whose float JSON cannot render.
func TestSpanTimeSentinelCollision(t *testing.T) {
	collision := time.Unix(0, math.MinInt64).UTC()
	for _, tc := range []struct {
		name string
		at   time.Time
		up   float64 // the capacity row's UpBps
	}{
		{"zero", time.Time{}, 1e6},
		{"year 0", time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC), 1e6},
		{"fresh-chain collision", collision, 1e6},
		{"collision-1ns", collision.Add(-1), 1e6},
		{"collision+1ns", collision.Add(1), 1e6},
		{"year 1", time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC), 1e6},
		{"year 1500", time.Date(1500, 1, 1, 0, 0, 0, 0, time.UTC), 1e6},
		{"year 1677", time.Date(1677, 1, 1, 0, 0, 0, 0, time.UTC), 1e6},
		{"year 2200, NaN capacity", time.Date(2200, 1, 1, 0, 0, 0, 0, time.UTC), math.NaN()},
		{"year 2263", time.Date(2263, 1, 1, 0, 0, 0, 0, time.UTC), 1e6},
		{"year 9999", time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC), 1e6},
		{"MaxInt64 ns", time.Unix(0, math.MaxInt64).UTC(), 1e6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			items := instantItems(tc.at, tc.up)
			got := decodeAll(t, AppendBatch(nil, items))
			if up := got[2].Payload.Capacity.UpBps; math.Float64bits(up) != math.Float64bits(tc.up) {
				t.Fatalf("capacity UpBps = %v, want %v", up, tc.up)
			}
			want, have := itemTimes(items), itemTimes(got)
			for i := range want {
				if have[i] != want[i] {
					t.Errorf("time %d = %v, want %v", i, have[i], want[i])
				}
			}
		})
	}
}

// instantItems stamps a span and one row of every kind with at — the
// span first, so at opens a fresh delta chain — and ends on a row at t0,
// which decodes right only if the chain stayed in step.
func instantItems(at time.Time, up float64) []Item {
	dev := mac.Addr{0xaa, 0xbb, 0xcc, 0x01, 0x02, 0x03}
	return []Item{
		{Endpoint: "/v1/register", Key: "k:0", Payload: Payload{Kind: KindRaw, Raw: []byte(`{}`)},
			Trace: &trace.Wire{Router: "router-01", Spans: []trace.Span{
				{Name: "absurd.clock", Status: "ok", Start: at, End: t0()},
				{Name: "open", Start: t0(), End: at},
			}}},
		{Endpoint: "/v1/uptime", Key: "k:1", Payload: Payload{Kind: KindUptime,
			Uptime: dataset.UptimeReport{RouterID: "router-01", ReportedAt: at, Uptime: time.Hour}}},
		{Endpoint: "/v1/capacity", Key: "k:2", Payload: Payload{Kind: KindCapacity,
			Capacity: dataset.CapacityMeasure{RouterID: "router-01", MeasuredAt: at, UpBps: up, DownBps: 16e6}}},
		{Endpoint: "/v1/devices", Key: "k:3", Payload: Payload{Kind: KindDevices,
			Count:     dataset.DeviceCount{RouterID: "router-01", At: at, Wired: 1, W24: 2},
			Sightings: []dataset.DeviceSighting{{RouterID: "router-01", At: at, Device: dev, Kind: dataset.Wireless5}}}},
		{Endpoint: "/v1/wifi", Key: "k:4", Payload: Payload{Kind: KindWiFi,
			WiFi: []dataset.WiFiScan{{RouterID: "router-01", At: at, Band: "5GHz", Channel: 36}}}},
		{Endpoint: "/v1/traffic/flows", Key: "k:5", Payload: Payload{Kind: KindFlows,
			Flows: []dataset.FlowRecord{{RouterID: "router-01", Device: dev, Domain: "example.com", Proto: "tcp",
				First: at, Last: at, UpBytes: 1, DownBytes: 2, UpPkts: 1, DownPkts: 1, Conns: 1}}}},
		{Endpoint: "/v1/traffic/throughput", Key: "k:6", Payload: Payload{Kind: KindThroughput,
			Throughput: []dataset.ThroughputSample{{RouterID: "router-01", Minute: at, Dir: "down", PeakBps: 8e6, TotalBytes: 1}}}},
		{Endpoint: "/v1/uptime", Key: "k:7", Payload: Payload{Kind: KindUptime,
			Uptime: dataset.UptimeReport{RouterID: "router-01", ReportedAt: t0(), Uptime: time.Hour}}},
	}
}

// itemTimes lists every time field of items, span times included.
func itemTimes(items []Item) []time.Time {
	var out []time.Time
	for _, it := range items {
		if it.Trace != nil {
			for _, sp := range it.Trace.Spans {
				out = append(out, sp.Start, sp.End)
			}
		}
		p := &it.Payload
		out = append(out, p.Uptime.ReportedAt, p.Capacity.MeasuredAt, p.Count.At)
		for _, s := range p.Sightings {
			out = append(out, s.At)
		}
		for _, s := range p.WiFi {
			out = append(out, s.At)
		}
		for _, f := range p.Flows {
			out = append(out, f.First, f.Last)
		}
		for _, s := range p.Throughput {
			out = append(out, s.Minute)
		}
	}
	return out
}

// TestUndefinedMetaBitsRejected is the regression for a decoder that read
// the kind from bits 0..2 and the trace flag from bit 3 and dropped every
// higher bit: a sender's future flag (meta 0x31 here) decoded as a plain
// uptime item instead of being refused. The batch splitter shares the
// rule; the encoders never set these bits.
func TestUndefinedMetaBitsRejected(t *testing.T) {
	item := []byte{0, 1, 'r'}            // router ref: literal "r"
	item = binary.AppendVarint(item, 1)  // reported-at delta
	item = binary.AppendVarint(item, 60) // uptime
	batch := func(meta uint64) []byte {
		buf := binary.AppendUvarint([]byte(magic), 1)
		buf = binary.AppendUvarint(buf, meta)
		buf = append(buf, 0) // key: empty string
		return append(buf, item...)
	}
	if got := decodeAll(t, batch(uint64(KindUptime))); len(got) != 1 || got[0].Payload.Uptime.RouterID != "r" {
		t.Fatalf("control batch decoded to %+v", got)
	}
	for _, meta := range []uint64{0x31, 0x10, 1 << 40} {
		var d Decoder
		var it Item
		err := d.Reset(batch(meta))
		if err == nil {
			err = d.Next(&it)
		}
		if err == nil {
			t.Errorf("meta %#x decoded as a %s item, want an error", meta, it.Endpoint)
		}
	}
}

// TestForgedAttrCountAllocationBounded is the regression for sizing the
// span-attr slice from the claimed count: count() only guarantees one
// input byte per claimed element, so an up-front make([]trace.Attr, na)
// handed a forged count ~32x amplification (a 200k claim allocated
// ~6.4 MiB before the decode failed). Allocation must track the bytes
// actually decoded instead.
func TestForgedAttrCountAllocationBounded(t *testing.T) {
	const claimed = 200_000
	buf := []byte(magic)
	buf = binary.AppendUvarint(buf, 1)                        // item count
	buf = binary.AppendUvarint(buf, uint64(KindRaw)|1<<3)     // meta: KindRaw + trace bit
	buf = append(buf, 0, 1, 'x')                              // endpoint ref: literal "x"
	buf = append(buf, 0)                                      // key: empty string
	buf = append(buf, 0, 1, 'r')                              // trace router ref: literal "r"
	buf = binary.AppendUvarint(buf, 1)                        // span count
	buf = append(buf, 0, 1, 'n')                              // span name ref
	buf = append(buf, 0, 1, 's')                              // span status ref
	buf = append(buf, 0, 0)                                   // start, end: zero deltas
	buf = binary.AppendUvarint(buf, claimed)                  // forged attr count...
	buf = append(buf, bytes.Repeat([]byte{0x80}, claimed)...) // ..."backed" by bytes that decode as nothing

	d := new(Decoder)
	var it Item
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := d.Reset(buf); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	err := d.Next(&it)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("forged attr count decoded cleanly")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("decoding a forged attr count allocated %d bytes, want well under 1 MiB", alloc)
	}
}
