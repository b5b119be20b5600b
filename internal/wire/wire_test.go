package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/mac"
	"natpeek/internal/trace"
)

func t0() time.Time { return time.Date(2013, 4, 1, 12, 0, 0, 0, time.UTC) }

func sampleItems() []Item {
	at := t0()
	dev := mac.Addr{0xaa, 0xbb, 0xcc, 0x01, 0x02, 0x03}
	return []Item{
		{
			Endpoint: "/v1/uptime",
			Key:      "pfx:nonce:/v1/uptime:1",
			Payload: Payload{Kind: KindUptime, Uptime: dataset.UptimeReport{
				RouterID: "router-01", ReportedAt: at, Uptime: 36 * time.Hour,
			}},
			Trace: &trace.Wire{Router: "router-01", Spans: []trace.Span{
				{Name: "spool.queued", Status: "ok", Start: at.Add(-3 * time.Second), End: at.Add(-1 * time.Second)},
				{Name: "spool.send", Status: "", Start: at.Add(-time.Second), Attrs: []trace.Attr{{K: "attempt", V: "1"}}},
			}},
		},
		{
			Endpoint: "/v1/capacity",
			Key:      "pfx:nonce:/v1/capacity:2",
			Payload: Payload{Kind: KindCapacity, Capacity: dataset.CapacityMeasure{
				RouterID: "router-01", MeasuredAt: at.Add(time.Minute), UpBps: 1.5e6, DownBps: 12.25e6,
			}},
		},
		{
			Endpoint: "/v1/devices",
			Key:      "pfx:nonce:/v1/devices:3",
			Payload: Payload{Kind: KindDevices,
				Count: dataset.DeviceCount{RouterID: "router-02", At: at, Wired: 2, W24: 3, W5: 1},
				Sightings: []dataset.DeviceSighting{
					{RouterID: "router-02", At: at, Device: dev, Kind: dataset.Wireless24},
					{RouterID: "router-02", At: at.Add(time.Second), Device: dev, Kind: dataset.Wired},
				},
			},
		},
		{
			Endpoint: "/v1/wifi",
			Key:      "pfx:nonce:/v1/wifi:4",
			Payload: Payload{Kind: KindWiFi, WiFi: []dataset.WiFiScan{
				{RouterID: "router-02", At: at, Band: "2.4GHz", Channel: 6, VisibleAPs: 9, Clients: 3},
				{RouterID: "router-02", At: at, Band: "5GHz", Channel: 36, VisibleAPs: 2, Clients: 1},
			}},
		},
		{
			Endpoint: "/v1/traffic/flows",
			Key:      "pfx:nonce:/v1/traffic/flows:5",
			Payload: Payload{Kind: KindFlows, Flows: []dataset.FlowRecord{
				{RouterID: "router-01", Device: dev, Domain: "video.example.com", Proto: "tcp",
					First: at, Last: at.Add(90 * time.Second),
					UpBytes: 1 << 20, DownBytes: 50 << 20, UpPkts: 900, DownPkts: 36000, Conns: 2},
				{RouterID: "router-01", Device: dev, Domain: "dns.example.com", Proto: "udp",
					First: at, Last: at, UpBytes: 80, DownBytes: 120, UpPkts: 1, DownPkts: 1, Conns: 1},
			}},
		},
		{
			Endpoint: "/v1/traffic/throughput",
			Key:      "pfx:nonce:/v1/traffic/throughput:6",
			Payload: Payload{Kind: KindThroughput, Throughput: []dataset.ThroughputSample{
				{RouterID: "router-01", Minute: at.Truncate(time.Minute), Dir: "down", PeakBps: 4.2e6, TotalBytes: 9 << 20},
			}},
		},
		{
			Endpoint: "/v1/register",
			Key:      "",
			Payload:  Payload{Kind: KindRaw, Raw: []byte(`{"router_id":"router-01","country":"US"}`)},
		},
	}
}

// decodeAll drains a batch into deep-copied items (the decoder's scratch
// reuse means callers who retain items across Next must copy, exactly as
// the production ingest path does).
func decodeAll(t *testing.T, buf []byte) []Item {
	t.Helper()
	var d Decoder
	if err := d.Reset(buf); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	var out []Item
	var it Item
	for {
		err := d.Next(&it)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, copyItem(it))
	}
}

func copyItem(it Item) Item {
	cp := it
	cp.Payload.Raw = append([]byte(nil), it.Payload.Raw...)
	if it.Payload.Kind == KindRaw && it.Payload.Raw == nil {
		cp.Payload.Raw = []byte{}
	}
	cp.Payload.Sightings = append([]dataset.DeviceSighting(nil), it.Payload.Sightings...)
	cp.Payload.WiFi = append([]dataset.WiFiScan(nil), it.Payload.WiFi...)
	cp.Payload.Flows = append([]dataset.FlowRecord(nil), it.Payload.Flows...)
	cp.Payload.Throughput = append([]dataset.ThroughputSample(nil), it.Payload.Throughput...)
	if it.Trace != nil {
		w := trace.Wire{TraceID: it.Trace.TraceID, Router: it.Trace.Router,
			Spans: append([]trace.Span(nil), it.Trace.Spans...)}
		cp.Trace = &w
	}
	return cp
}

// itemsEqual compares via JSON so time.Time values are compared by
// instant+zone text, not by internal representation.
func itemsEqual(t *testing.T, want, got []Item) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("item count: want %d got %d", len(want), len(got))
	}
	for i := range want {
		wj, err := json.Marshal(struct {
			Endpoint, Key string
			Payload       *Payload
			Trace         *trace.Wire
		}{want[i].Endpoint, want[i].Key, &want[i].Payload, want[i].Trace})
		if err != nil {
			t.Fatal(err)
		}
		gj, err := json.Marshal(struct {
			Endpoint, Key string
			Payload       *Payload
			Trace         *trace.Wire
		}{got[i].Endpoint, got[i].Key, &got[i].Payload, got[i].Trace})
		if err != nil {
			t.Fatal(err)
		}
		if string(wj) != string(gj) {
			t.Errorf("item %d mismatch:\nwant %s\ngot  %s", i, wj, gj)
		}
	}
}

func TestRoundTripAllKinds(t *testing.T) {
	items := sampleItems()
	buf := AppendBatch(nil, items)
	got := decodeAll(t, buf)
	itemsEqual(t, items, got)
}

func TestRoundTripPreservesKeyBytes(t *testing.T) {
	key := "pfx:n\x00nce:/v1/uptime:\xff7"
	items := []Item{{Endpoint: "/v1/uptime", Key: key,
		Payload: Payload{Kind: KindUptime, Uptime: dataset.UptimeReport{RouterID: "r", ReportedAt: t0()}}}}
	got := decodeAll(t, AppendBatch(nil, items))
	if got[0].Key != key {
		t.Fatalf("key not byte-identical: %q != %q", got[0].Key, key)
	}
}

func TestRoundTripZeroAndOpenSpanTimes(t *testing.T) {
	at := t0()
	items := []Item{{
		Endpoint: "/v1/uptime", Key: "k",
		Payload: Payload{Kind: KindUptime, Uptime: dataset.UptimeReport{RouterID: "r", ReportedAt: at}},
		Trace: &trace.Wire{Router: "r", Spans: []trace.Span{
			{Name: "open", Status: "", Start: at}, // zero End: still-open span
			{Name: "both-zero", Status: "x"},      // fully zero span times
			{Name: "after", Status: "ok", Start: at.Add(time.Second), End: at.Add(2 * time.Second)},
		}},
	}}
	got := decodeAll(t, AppendBatch(nil, items))
	sp := got[0].Trace.Spans
	if !sp[0].End.IsZero() || !sp[1].Start.IsZero() || !sp[1].End.IsZero() {
		t.Fatalf("zero times did not survive: %+v", sp)
	}
	if !sp[2].Start.Equal(at.Add(time.Second)) || !sp[2].End.Equal(at.Add(2*time.Second)) {
		// the zero sentinel must not have advanced the delta chain
		t.Fatalf("delta chain corrupted after zero-time sentinel: %+v", sp[2])
	}
	if !sp[0].Start.Equal(at) {
		t.Fatalf("span start: %v != %v", sp[0].Start, at)
	}
}

func TestRoundTripExtremeValues(t *testing.T) {
	at := time.Date(1900, 1, 1, 0, 0, 0, 1, time.UTC)
	late := time.Date(2100, 12, 31, 23, 59, 59, 999999999, time.UTC)
	items := []Item{
		{Endpoint: "/v1/uptime", Key: "a", Payload: Payload{Kind: KindUptime,
			Uptime: dataset.UptimeReport{RouterID: "r", ReportedAt: at, Uptime: -time.Hour}}},
		{Endpoint: "/v1/capacity", Key: "b", Payload: Payload{Kind: KindCapacity,
			Capacity: dataset.CapacityMeasure{RouterID: "r", MeasuredAt: late, UpBps: -0.0, DownBps: 1e308}}},
	}
	got := decodeAll(t, AppendBatch(nil, items))
	itemsEqual(t, items, got)
}

func TestDictionarySharing(t *testing.T) {
	// 64 rows all naming one router: the batch must carry the string once.
	var rows []dataset.WiFiScan
	for i := 0; i < 64; i++ {
		rows = append(rows, dataset.WiFiScan{RouterID: "router-with-a-long-name-0001", At: t0(), Band: "2.4GHz", Channel: 6})
	}
	buf := AppendBatch(nil, []Item{{Endpoint: "/v1/wifi", Key: "k", Payload: Payload{Kind: KindWiFi, WiFi: rows}}})
	if n := strings.Count(string(buf), "router-with-a-long-name-0001"); n != 1 {
		t.Fatalf("router ID appears %d times in encoding, want 1", n)
	}
	got := decodeAll(t, buf)
	if len(got[0].Payload.WiFi) != 64 || got[0].Payload.WiFi[63].RouterID != "router-with-a-long-name-0001" {
		t.Fatalf("dictionary decode wrong: %+v", got[0].Payload.WiFi[63])
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	buf := AppendBatch(nil, sampleItems())
	buf = append(buf, "extra"...)
	var d Decoder
	if err := d.Reset(buf); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	var it Item
	var err error
	for err == nil {
		err = d.Next(&it)
	}
	if err == io.EOF {
		t.Fatal("trailing bytes after batch were silently accepted")
	}
	if !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestHostileInputs(t *testing.T) {
	good := AppendBatch(nil, sampleItems())
	cases := map[string][]byte{
		"empty":          {},
		"short magic":    []byte("NP"),
		"wrong magic":    []byte("JSON[]"),
		"header only":    []byte("NPB1"),
		"count too big":  append([]byte("NPB1"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		"truncated item": good[:len(good)/2],
		"truncated tail": good[:len(good)-1],
		// Escaped times outside what RFC 3339 carries.
		"escape nsec 1e9":      escapedUptime(0, 1e9),
		"escape year 10000":    escapedUptime(253402300800, 0),
		"escape before year 0": escapedUptime(-62167219201, 999999999),
		"escape MinInt64 secs": escapedUptime(math.MinInt64, 0),
	}
	for name, buf := range cases {
		t.Run(name, func(t *testing.T) {
			var d Decoder
			err := d.Reset(buf)
			var it Item
			for err == nil {
				err = d.Next(&it)
			}
			if err == io.EOF {
				t.Fatalf("corrupt input %q decoded cleanly", name)
			}
		})
	}
}

func TestDecoderReuseAcrossBatches(t *testing.T) {
	// A pooled decoder must not leak dictionary or delta state between
	// batches: decode A, then B, and B must match a fresh decode.
	a := AppendBatch(nil, sampleItems())
	itemsB := []Item{{Endpoint: "/v1/wifi", Key: "b", Payload: Payload{Kind: KindWiFi,
		WiFi: []dataset.WiFiScan{{RouterID: "other", At: t0().Add(time.Hour), Band: "5GHz", Channel: 100}}}}}
	b := AppendBatch(nil, itemsB)

	var d Decoder
	var it Item
	if err := d.Reset(a); err != nil {
		t.Fatal(err)
	}
	for {
		if err := d.Next(&it); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Reset(b); err != nil {
		t.Fatal(err)
	}
	var got []Item
	for {
		err := d.Next(&it)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, copyItem(it))
	}
	itemsEqual(t, itemsB, got)
}

// TestPayloadFromJSONTyped: a body that parses transcodes typed, its
// times in UTC and carried exactly by NPB1, years the delta chain cannot
// hold included.
func TestPayloadFromJSONTyped(t *testing.T) {
	for name, tc := range map[string]struct {
		endpoint, body string
		at             time.Time
	}{
		"uptime": {"/v1/uptime", `{"RouterID":"r1","ReportedAt":"2013-04-01T17:30:00+05:30","Uptime":3600000000000}`,
			time.Date(2013, 4, 1, 12, 0, 0, 0, time.UTC)},
		"far-future time": {"/v1/uptime", `{"RouterID":"r","ReportedAt":"9999-01-01T00:00:00Z"}`,
			time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC)},
		"ancient time": {"/v1/capacity", `{"RouterID":"r","MeasuredAt":"0001-01-01T00:00:00.000000001Z"}`,
			time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC)},
	} {
		t.Run(name, func(t *testing.T) {
			p := PayloadFromJSON(tc.endpoint, []byte(tc.body))
			if p.Kind != KindFor(tc.endpoint) {
				t.Fatalf("kind = %v, want %v", p.Kind, KindFor(tc.endpoint))
			}
			got := decodeAll(t, AppendBatch(nil, []Item{{Endpoint: tc.endpoint, Payload: p}}))[0].Payload
			for _, at := range []time.Time{p.Uptime.ReportedAt, p.Capacity.MeasuredAt, got.Uptime.ReportedAt, got.Capacity.MeasuredAt} {
				if !at.IsZero() && at != tc.at {
					t.Fatalf("time %v, want %v in UTC", at, tc.at)
				}
			}
			if !reflect.DeepEqual(got, p) {
				t.Fatalf("NPB1 round trip %+v, want %+v", got, p)
			}
		})
	}
}

func TestPayloadFromJSONFallsBackToRaw(t *testing.T) {
	cases := map[string]struct {
		endpoint string
		body     string
	}{
		"unknown endpoint": {"/v1/register", `{"RouterID":"r"}`},
		"malformed body":   {"/v1/uptime", `{"RouterID":`},
		"wrong shape":      {"/v1/wifi", `{"not":"an array"}`},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			p := PayloadFromJSON(tc.endpoint, []byte(tc.body))
			if p.Kind != KindRaw {
				t.Fatalf("kind = %v, want KindRaw", p.Kind)
			}
			if string(p.Raw) != tc.body {
				t.Fatalf("raw body not verbatim: %q", p.Raw)
			}
		})
	}
}

func TestKindEndpointMapping(t *testing.T) {
	for k := KindUptime; k <= kindMax; k++ {
		ep := k.Endpoint()
		if ep == "" {
			t.Fatalf("kind %d has no endpoint", k)
		}
		if KindFor(ep) != k {
			t.Fatalf("KindFor(%q) = %v, want %v", ep, KindFor(ep), k)
		}
	}
	if KindFor("/v1/register") != KindRaw || KindRaw.Endpoint() != "" {
		t.Fatal("raw mapping wrong")
	}
}

func TestRouterMatchesJSONAppliers(t *testing.T) {
	items := sampleItems()
	for i := range items {
		p := &items[i].Payload
		if p.Kind == KindRaw {
			continue
		}
		body, err := p.JSONBody()
		if err != nil {
			t.Fatal(err)
		}
		rt := PayloadFromJSON(items[i].Endpoint, body)
		if rt.Kind != p.Kind {
			t.Fatalf("JSONBody did not transcode back: %v vs %v", rt.Kind, p.Kind)
		}
		if rt.Router() != p.Router() {
			t.Fatalf("router mismatch after JSON round trip: %q vs %q", rt.Router(), p.Router())
		}
	}
	sighting := dataset.DeviceSighting{RouterID: "router-07", At: t0()}
	for _, tc := range []struct {
		name string
		p    Payload
		want string
	}{
		{"empty slice payload", Payload{Kind: KindWiFi}, ""},
		{"census with a count", Payload{Kind: KindDevices, Count: dataset.DeviceCount{RouterID: "router-02"},
			Sightings: []dataset.DeviceSighting{sighting}}, "router-02"},
		// What the JSON applier has always done for the sightings-only
		// census bodies cluster rebalancing streams.
		{"sightings-only census", Payload{Kind: KindDevices, Sightings: []dataset.DeviceSighting{sighting}}, "router-07"},
		{"empty census", Payload{Kind: KindDevices}, ""},
	} {
		if got := tc.p.Router(); got != tc.want {
			t.Errorf("%s: Router() = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestEncodingMatchesParent pins "same bytes on the wire": the sample
// batch must encode to exactly what the hand-rolled encoder produced at
// the commit before NPB1 became a schema over internal/codec
// (testdata/parent_npb1.bin was written there), and that file must
// decode back to the sample items.
func TestEncodingMatchesParent(t *testing.T) {
	want, err := os.ReadFile("testdata/parent_npb1.bin")
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendBatch(nil, sampleItems()); !bytes.Equal(got, want) {
		t.Fatalf("NPB1 bytes changed:\ngot  %x\nwant %x", got, want)
	}
	a, _ := json.Marshal(decodeAll(t, want))
	b, _ := json.Marshal(sampleItems())
	if string(a) != string(b) {
		t.Fatalf("parent bytes decode to\n%s\nwant\n%s", a, b)
	}
}

func TestRowsCount(t *testing.T) {
	for _, it := range sampleItems() {
		p := it.Payload
		want := 0
		switch p.Kind {
		case KindUptime, KindCapacity:
			want = 1
		case KindDevices:
			want = 1 + len(p.Sightings)
		case KindWiFi:
			want = len(p.WiFi)
		case KindFlows:
			want = len(p.Flows)
		case KindThroughput:
			want = len(p.Throughput)
		}
		if got := p.Rows(); got != want {
			t.Fatalf("%s Rows() = %d, want %d", it.Endpoint, got, want)
		}
	}
}

func TestEncodingIsCompact(t *testing.T) {
	// Sanity-check the point of the exercise: the binary form of a
	// realistic batch is several times smaller than its JSON form.
	items := sampleItems()
	bin := AppendBatch(nil, items)
	var jsonSize int
	for i := range items {
		b, err := items[i].Payload.JSONBody()
		if err != nil {
			t.Fatal(err)
		}
		jsonSize += len(b) + len(items[i].Endpoint) + len(items[i].Key) + 64 // envelope overhead
	}
	if len(bin)*2 >= jsonSize {
		t.Fatalf("binary %dB not meaningfully smaller than JSON ~%dB", len(bin), jsonSize)
	}
}

// TestCheckTimesMatchesDecoder: CheckTimes refuses exactly the items
// whose batch the Decoder refuses — an instant outside years 0000–9999
// in any time field of any kind, a span's included — at the edges of
// the range and past them. Each case holds the instant in one field
// only, found by walking Item, so a time field the encoder comes to
// write without a check in CheckTimes fails here; a slice holds two
// rows, the instant in one of them.
func TestCheckTimesMatchesDecoder(t *testing.T) {
	times := []time.Time{
		{},
		time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC).Add(-time.Nanosecond),
		time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-5, 6, 1, 0, 0, 0, 0, time.UTC),
	}
	spans := []string{".Trace.Spans[0].Start", ".Trace.Spans[0].End", ".Trace.Spans[1].Start", ".Trace.Spans[1].End"}
	// The time fields the encoder writes of each kind.
	carriedBy := map[Kind][]string{
		KindRaw:      nil,
		KindUptime:   {".Payload.Uptime.ReportedAt"},
		KindCapacity: {".Payload.Capacity.MeasuredAt"},
		KindDevices:  {".Payload.Count.At", ".Payload.Sightings[0].At", ".Payload.Sightings[1].At"},
		KindWiFi:     {".Payload.WiFi[0].At", ".Payload.WiFi[1].At"},
		KindFlows: {".Payload.Flows[0].First", ".Payload.Flows[0].Last",
			".Payload.Flows[1].First", ".Payload.Flows[1].Last"},
		KindThroughput: {".Payload.Throughput[0].Minute", ".Payload.Throughput[1].Minute"},
	}
	var fields []string
	timeFields(reflect.ValueOf(&Item{}).Elem(), "", func(path string, _ reflect.Value) { fields = append(fields, path) })
	for _, at := range times {
		bad := !at.IsZero() && (at.Year() < 0 || at.Year() > 9999)
		for k := KindRaw; k <= kindMax; k++ {
			var refused []string
			for _, field := range fields {
				it := Item{Endpoint: k.Endpoint(), Key: "k", Payload: Payload{Kind: k}}
				timeFields(reflect.ValueOf(&it).Elem(), "", func(path string, v reflect.Value) {
					if path == field {
						v.Set(reflect.ValueOf(at))
					}
				})
				if k == KindRaw {
					it.Payload.Raw = []byte(`{}`)
				}
				checked := CheckTimes(&it.Payload, it.Trace.Spans)
				var dec Decoder
				decoded := dec.Reset(AppendBatch(nil, []Item{it}))
				var got Item
				if decoded == nil {
					decoded = dec.Next(&got)
				}
				if (checked == nil) != (decoded == nil) {
					t.Errorf("%s%s at %v: CheckTimes says %v, the decoder %v", k.Endpoint(), field, at, checked, decoded)
				}
				if decoded != nil {
					refused = append(refused, field)
				}
			}
			var want []string
			if bad {
				want = append(slices.Clone(carriedBy[k]), spans...)
			}
			if !slices.Equal(refused, want) {
				t.Errorf("%s at %v: the decoder refuses the instant in %v, want %v", k.Endpoint(), at, refused, want)
			}
		}
	}
}

// timeFields calls fn with the path and value of each time.Time field
// under v, after giving each slice under it two zero rows and each nil
// pointer a zero value; a byte slice is left as it is.
func timeFields(v reflect.Value, path string, fn func(string, reflect.Value)) {
	switch {
	case v.Type() == reflect.TypeFor[time.Time]():
		fn(path, v)
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				timeFields(v.Field(i), path+"."+f.Name, fn)
			}
		}
	case v.Kind() == reflect.Slice && v.Type().Elem().Kind() != reflect.Uint8:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			timeFields(v.Index(i), path+"["+strconv.Itoa(i)+"]", fn)
		}
	case v.Kind() == reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		timeFields(v.Elem(), path, fn)
	}
}
