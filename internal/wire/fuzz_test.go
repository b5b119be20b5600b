package wire

import (
	"encoding/json"
	"io"
	"testing"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/mac"
	"natpeek/internal/trace"
)

// drain decodes every item out of buf, deep-copying each (scratch reuse),
// and reports whether the whole buffer decoded cleanly.
func drain(buf []byte) ([]Item, bool) {
	var d Decoder
	if err := d.Reset(buf); err != nil {
		return nil, false
	}
	var out []Item
	var it Item
	for {
		err := d.Next(&it)
		if err == io.EOF {
			return out, true
		}
		if err != nil {
			return nil, false
		}
		out = append(out, copyItem(it))
	}
}

// FuzzWireDecode feeds arbitrary bytes to the decoder. It must never
// panic, and any buffer it accepts must be canonically stable: re-encoding
// the decoded items and decoding again yields the same items.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("NPB1"))
	f.Add([]byte("NPB1\x00"))
	f.Add([]byte("not a batch at all"))
	f.Add(AppendBatch(nil, nil))
	f.Add(AppendBatch(nil, sampleItems()))
	f.Add(AppendBatch(nil, sampleItems()[:1]))
	hostile := AppendBatch(nil, sampleItems())
	f.Add(hostile[:len(hostile)-3])
	f.Add(append(AppendBatch(nil, sampleItems()[:2]), 0xde, 0xad))
	for _, b := range escapeSeeds() {
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		items, ok := drain(data)
		if !ok {
			return
		}
		re := AppendBatch(nil, items)
		again, ok := drain(re)
		if !ok {
			t.Fatalf("re-encoded accepted batch failed to decode")
		}
		if len(again) != len(items) {
			t.Fatalf("item count drifted: %d -> %d", len(items), len(again))
		}
		a, err := json.Marshal(items)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("decode/encode/decode not stable:\n%s\n%s", a, b)
		}
	})
}

// FuzzWireRoundTrip builds structured batches from fuzzed fields and
// asserts encode→decode preserves them exactly — keys and trace spans
// byte-for-byte, rows value-for-value (compared as JSON so timestamps
// compare by instant).
func FuzzWireRoundTrip(f *testing.F) {
	f.Add("router-01", "pfx:n:/v1/uptime:1", "video.example.com", int64(1364817600_000000000), int64(3600_000000000), 3.5e6, true)
	f.Add("", "", "", int64(0), int64(-1), -0.0, false)
	f.Add("r\x00weird", "key\xffbytes", "ドメイン", int64(1), int64(1<<40), 1e300, true)

	f.Fuzz(func(t *testing.T, router, key, domain string, unixNano, counter int64, fval float64, withTrace bool) {
		// Any instant of years 0001–9999, an hour clear of either end so
		// the flow's Last and the span's End stay inside them too.
		const first, last = -62135596800 + 3600, 253402300799 - 3600
		at := time.Unix(first+int64(uint64(unixNano)%(last-first)), int64(uint64(unixNano)%1e9)).UTC()
		dev := mac.Addr{1, 2, 3, 4, 5, byte(counter)}
		items := []Item{
			{Endpoint: "/v1/uptime", Key: key, Payload: Payload{Kind: KindUptime,
				Uptime: dataset.UptimeReport{RouterID: router, ReportedAt: at, Uptime: time.Duration(counter)}}},
			{Endpoint: "/v1/traffic/flows", Key: key + "2", Payload: Payload{Kind: KindFlows,
				Flows: []dataset.FlowRecord{{RouterID: router, Device: dev, Domain: domain, Proto: "tcp",
					First: at, Last: at.Add(time.Duration(counter % int64(time.Hour))),
					UpBytes: counter, DownBytes: -counter, UpPkts: counter / 2, DownPkts: 1, Conns: 1}}}},
			{Endpoint: "/v1/traffic/throughput", Key: key + "3", Payload: Payload{Kind: KindThroughput,
				Throughput: []dataset.ThroughputSample{{RouterID: router, Minute: at, Dir: domain, PeakBps: fval, TotalBytes: counter}}}},
		}
		if withTrace {
			items[0].Trace = &trace.Wire{Router: router, Spans: []trace.Span{
				{Name: "spool.queued", Status: domain, Start: at, End: at.Add(time.Second)},
				{Name: "spool.send", Start: at, Attrs: []trace.Attr{{K: "attempt", V: key}}},
			}}
		}
		got, ok := drain(AppendBatch(nil, items))
		if !ok {
			t.Fatalf("encoded batch failed to decode")
		}
		a, _ := json.Marshal(items)
		b, _ := json.Marshal(got)
		if string(a) != string(b) {
			t.Fatalf("round trip drifted:\nin  %s\nout %s", a, b)
		}
		if got[0].Key != key || (withTrace && got[0].Trace.Spans[1].Attrs[0].V != key) {
			t.Fatalf("key bytes not preserved")
		}
	})
}
