package collector

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/mac"
	"natpeek/internal/spool"
	"natpeek/internal/telemetry"
	"natpeek/internal/trace"
	"natpeek/internal/wire"
)

// stubCollector is an http.RoundTripper standing in for a collector:
// registration gets 204, and each /v1/batch body is kept and answered
// 200 with reply's BatchResult (an empty one when reply is nil).
type stubCollector struct {
	reply func(body []byte) BatchResult

	mu     sync.Mutex
	bodies [][]byte
}

func (s *stubCollector) RoundTrip(req *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	resp := &http.Response{StatusCode: http.StatusNoContent, Header: make(http.Header),
		Body: io.NopCloser(strings.NewReader("")), Request: req}
	if req.URL.Path != BatchEndpoint {
		return resp, nil
	}
	s.mu.Lock()
	s.bodies = append(s.bodies, body)
	s.mu.Unlock()
	var br BatchResult
	if s.reply != nil {
		br = s.reply(body)
	}
	out, _ := json.Marshal(br)
	resp.StatusCode, resp.Body = http.StatusOK, io.NopCloser(strings.NewReader(string(out)))
	return resp, nil
}

func (s *stubCollector) batches() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]byte(nil), s.bodies...)
}

// stubClient is a Client whose uploads go to a stubCollector. The
// heartbeat address is never written to.
func stubClient(t testing.TB, stub *stubCollector, cfg spool.Config) *Client {
	t.Helper()
	cli, err := NewClient("r-stub", "US", "127.0.0.1:9", "collector.test",
		WithTransport(stub), WithSpool(fastSpool(cfg)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// detourSink is one Sink call and the value the JSON detour marshals
// for it: json.Marshal, then wire.PayloadFromJSON, kept as the reference
// the typed encoding must match.
type detourSink struct {
	endpoint string
	call     func(*Client)
	marshal  any
}

// detourSinks covers every Sink kind with row times in a non-UTC zone
// and -0.0 floats, the inputs a JSON round trip could have altered.
func detourSinks() []detourSink {
	zone := time.FixedZone("EDT", -4*3600)
	at := time.Date(2013, 4, 1, 9, 30, 15, 123456789, zone)
	negZero := math.Copysign(0, -1)
	dev := mac.MustParse("a4:b1:97:01:02:03")
	up := dataset.UptimeReport{RouterID: "r-stub", ReportedAt: at, Uptime: 36 * time.Hour}
	capm := dataset.CapacityMeasure{RouterID: "r-stub", MeasuredAt: at, UpBps: negZero, DownBps: 16e6}
	count := dataset.DeviceCount{RouterID: "r-stub", At: at, Wired: 1, W24: 2}
	sightings := []dataset.DeviceSighting{{RouterID: "r-stub", At: at, Device: dev, Kind: dataset.Wireless24}}
	wifi := []dataset.WiFiScan{{RouterID: "r-stub", At: at, Band: "2.4GHz", Channel: 6, VisibleAPs: 9, Clients: 2}}
	flows := []dataset.FlowRecord{{RouterID: "r-stub", Device: dev, Domain: "netflix.com", Proto: "tcp",
		First: at, Last: at.Add(90 * time.Second), UpBytes: 1 << 20, DownBytes: 50 << 20, UpPkts: 900, DownPkts: 36000, Conns: 2}}
	tput := []dataset.ThroughputSample{{RouterID: "r-stub", Minute: at, Dir: "down", PeakBps: negZero, TotalBytes: 9 << 20}}
	return []detourSink{
		{"/v1/uptime", func(c *Client) { c.UptimeReport(up) }, up},
		{"/v1/capacity", func(c *Client) { c.CapacityMeasure(capm) }, capm},
		{"/v1/devices", func(c *Client) { c.DeviceCensus(count, sightings) }, wire.Census{Count: count, Sightings: sightings}},
		{"/v1/wifi", func(c *Client) { c.WiFiScan(wifi) }, wifi},
		{"/v1/traffic/flows", func(c *Client) { c.TrafficFlows(flows) }, flows},
		{"/v1/traffic/throughput", func(c *Client) { c.TrafficThroughput(tput) }, tput},
	}
}

// TestTypedUploadMatchesJSONDetour pins that encoding the typed payload
// sends what the JSON detour sends: for every Sink kind, traced
// and untraced, each /v1/batch body the client posts equals the bytes of
// json.Marshal, then wire.PayloadFromJSON, then wire.AppendBatch over the
// same Sink value, with the keys and client traces the request carries.
func TestTypedUploadMatchesJSONDetour(t *testing.T) {
	defer trace.SetEnabled(trace.Enabled())
	for _, traced := range []bool{false, true} {
		t.Run(fmt.Sprintf("traced=%v", traced), func(t *testing.T) {
			trace.SetEnabled(traced)
			stub := &stubCollector{}
			cli := stubClient(t, stub, spool.Config{})
			sinks := detourSinks()
			cli.BeginExportWindow("all", t0)
			for _, s := range sinks {
				s.call(cli)
			}
			cli.EndExportWindow(t0)
			flush(t, cli)

			byEndpoint := map[string]detourSink{}
			for _, s := range sinks {
				byEndpoint[s.endpoint] = s
			}
			items := 0
			for _, body := range stub.batches() {
				var dec wire.Decoder
				if err := dec.Reset(body); err != nil {
					t.Fatal(err)
				}
				var ref []wire.Item
				for {
					var it wire.Item
					if err := dec.Next(&it); err == io.EOF {
						break
					} else if err != nil {
						t.Fatal(err)
					}
					if (it.Trace != nil) != traced {
						t.Fatalf("%s: trace present = %v with tracing %v", it.Endpoint, it.Trace != nil, traced)
					}
					js, err := json.Marshal(byEndpoint[it.Endpoint].marshal)
					if err != nil {
						t.Fatal(err)
					}
					ri := wire.Item{Endpoint: it.Endpoint, Key: it.Key, Payload: wire.PayloadFromJSON(it.Endpoint, js)}
					if it.Trace != nil { // the decoder's scratch: copy it out
						tr := *it.Trace
						tr.Spans = slices.Clone(tr.Spans)
						ri.Trace = &tr
					}
					ref = append(ref, ri)
				}
				if want := wire.AppendBatch(nil, ref); string(body) != string(want) {
					t.Fatalf("typed NPB1 body differs from the JSON detour's:\n got %x\nwant %x", body, want)
				}
				items += len(ref)
			}
			if items != len(sinks) {
				t.Fatalf("%d items posted for %d Sink calls", items, len(sinks))
			}
		})
	}
}

// TestSpoolOwnsEnqueuedRows: the spool keeps its own copy of a Sink
// call's rows, as a JSON snapshot of them would be, so a caller that
// reuses its slice after TrafficFlows returns changes no stored row.
func TestSpoolOwnsEnqueuedRows(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ft := spool.NewFaultTransport(nil, 0, 1)
	cli, err := NewClient("r-own", "US", srv.UDPAddr(), srv.HTTPAddr(),
		WithTransport(ft), WithSpool(fastSpool(spool.Config{})))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ft.SetBlackout(true) // hold the rows in the spool while the caller reuses its slice

	dev := mac.MustParse("a4:b1:97:01:02:03")
	flows := []dataset.FlowRecord{{RouterID: "r-own", Device: dev, Domain: "netflix.com", Proto: "tcp",
		First: t0, Last: t0.Add(time.Minute), DownBytes: 1 << 20, Conns: 1}}
	want := flows[0]
	cli.TrafficFlows(flows)
	flows[0].Domain, flows[0].DownBytes, flows[0].RouterID = "mutated.example", 7, "r-other"
	ft.SetBlackout(false)
	flush(t, cli)

	got := srv.Store().Flows
	if len(got) != 1 || got[0] != want {
		t.Fatalf("stored flows %+v, want exactly %+v", got, want)
	}
}

// TestSendBatchDeadLettersMalformedItems is the client half of
// TestBatchReportsMalformedItems: when the collector acknowledges a
// batch but lists items in BatchResult.Failed, sendBatch returns them as
// the spool.Result, and the spool dead-letters each one with its body
// rendered as the JSON the endpoint takes.
func TestSendBatchDeadLettersMalformedItems(t *testing.T) {
	// The collector refuses the items whose router is named here.
	failures := map[string]BatchFailure{
		"mf-bad":     {Endpoint: "/v1/uptime", Reason: "decode error: json: cannot unmarshal number into Go struct field UptimeReport.RouterID of type string"},
		"mf-unknown": {Endpoint: "/v1/nope", Reason: "unknown endpoint"},
	}
	stub := &stubCollector{reply: func(body []byte) BatchResult {
		var br BatchResult
		var dec wire.Decoder
		if dec.Reset(body) != nil {
			return br
		}
		var it wire.Item
		for dec.Next(&it) == nil {
			if f, ok := failures[it.Payload.Router()]; ok {
				f.Key = it.Key
				br.Failed = append(br.Failed, f)
				br.Rejected++
			} else {
				br.Applied++
			}
		}
		return br
	}}
	dir := t.TempDir()
	cli := stubClient(t, stub, spool.Config{Dir: dir})

	up := func(router string) wire.Payload {
		return wire.Payload{Kind: wire.KindUptime, Uptime: dataset.UptimeReport{RouterID: router, ReportedAt: t0}}
	}
	items := []spool.Item{
		{Key: "k-good", Payload: up("mf-good"), Seq: 1},
		{Key: "k-bad", Payload: up("mf-bad"), Seq: 2},
		{Key: "k-unknown", Payload: up("mf-unknown"), Seq: 3},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := cli.sendBatch(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]string{}
	for _, e := range res.Malformed {
		byKey[e.Key] = e.Reason
	}
	if len(res.Malformed) != 2 || byKey["k-bad"] != failures["mf-bad"].Reason || byKey["k-unknown"] != "unknown endpoint" {
		t.Fatalf("malformed = %+v, want k-bad and k-unknown with the collector's reasons", res.Malformed)
	}

	// Through the spool: the refused item leaves the queue and its
	// dead-letter line keeps the {at, reason, item{endpoint, key, body,
	// …}} shape.
	cli.UptimeReport(up("mf-good").Uptime)
	cli.UptimeReport(up("mf-bad").Uptime)
	flush(t, cli)
	raw, err := os.ReadFile(filepath.Join(dir, "deadletter.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 1 {
		t.Fatalf("dead-letter lines = %d, want 1:\n%s", len(lines), raw)
	}
	var entry struct {
		At     time.Time `json:"at"`
		Reason string    `json:"reason"`
		Item   struct {
			Endpoint string          `json:"endpoint"`
			Key      string          `json:"key"`
			Body     json.RawMessage `json:"body"`
			Seq      uint64          `json:"seq"`
		} `json:"item"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatal(err)
	}
	var row dataset.UptimeReport
	if err := json.Unmarshal(entry.Item.Body, &row); err != nil {
		t.Fatalf("dead-letter body %s: %v", entry.Item.Body, err)
	}
	if entry.At.IsZero() || entry.Reason != failures["mf-bad"].Reason || entry.Item.Endpoint != "/v1/uptime" ||
		!strings.HasPrefix(entry.Item.Key, "r-stub:") || row.RouterID != "mf-bad" || !row.ReportedAt.Equal(t0) {
		t.Fatalf("dead-letter entry wrong: %s", lines[0])
	}
}

// TestRegistrationCountedOnce: a registration that waits out a 429 is
// still one upload in natpeek_client_uploads_total.
func TestRegistrationCountedOnce(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	uploads := telemetry.Default.CounterVec("natpeek_client_uploads_total",
		"Upload payloads produced by this process's collector clients, per endpoint.", "endpoint").With("/v1/register")
	before := uploads.Value()
	throttle := &throttleFirst{}
	cli, err := NewClient("r-429", "US", srv.UDPAddr(), srv.HTTPAddr(), WithTransport(throttle))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if throttle.calls.Load() != 2 {
		t.Fatalf("register attempts = %d, want 2 (one 429, one pass)", throttle.calls.Load())
	}
	if srv.Store().RouterCountry["r-429"] != "US" {
		t.Fatalf("roster = %v", srv.Store().RouterCountry)
	}
	if d := uploads.Value() - before; d != 1 {
		t.Fatalf(`natpeek_client_uploads_total{endpoint="/v1/register"} rose by %v for one registration, want 1`, d)
	}
}

// throttleFirst answers the first request 429 with Retry-After: 1 and
// passes every later one to the network.
type throttleFirst struct{ calls atomic.Int64 }

func (tf *throttleFirst) RoundTrip(req *http.Request) (*http.Response, error) {
	if tf.calls.Add(1) > 1 {
		return http.DefaultTransport.RoundTrip(req)
	}
	if req.Body != nil {
		req.Body.Close()
	}
	h := make(http.Header)
	h.Set("Retry-After", "1")
	return &http.Response{StatusCode: http.StatusTooManyRequests, Header: h,
		Body: io.NopCloser(strings.NewReader("throttled")), Request: req}, nil
}

// flowPayload is one 8-flow upload, the shape of a gateway's flow export.
func flowPayload() []dataset.FlowRecord {
	domains := []string{"netflix.com", "google.com", "facebook.com", "youtube.com"}
	flows := make([]dataset.FlowRecord, 8)
	for i := range flows {
		flows[i] = dataset.FlowRecord{RouterID: "bench-router", Device: mac.Addr{0xa4, 0xb1, 0x97, 0, 0, byte(i % 3)},
			Domain: domains[i%len(domains)], Proto: "tcp", First: t0.Add(time.Duration(i) * time.Minute),
			Last: t0.Add(time.Duration(i)*time.Minute + 30*time.Second), UpBytes: int64(1000 * (i + 1)),
			DownBytes: int64(50000 * (i + 1)), UpPkts: int64(10 * (i + 1)), DownPkts: int64(40 * (i + 1)), Conns: 1}
	}
	return flows
}

// enqueueToWire is a Client whose spool hands each batch to encode — the
// NPB1 body sendBatch posts — instead of the network; each op enqueues
// one payload through TrafficFlows and waits for its body.
func enqueueToWire(tb testing.TB) (op func()) {
	cli := stubClient(tb, &stubCollector{}, spool.Config{})
	bodies := make(chan int, 1)
	cli.sp.Close()
	sp, err := spool.New(spool.Config{KeyPrefix: "bench-router"}, func(_ context.Context, items []spool.Item) (spool.Result, error) {
		bodies <- len(cli.encode(items, time.Now()))
		return spool.Result{}, nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	cli.sp = sp
	flows := flowPayload()
	return func() {
		cli.TrafficFlows(flows)
		if <-bodies == 0 {
			tb.Fatal("empty body")
		}
	}
}

// BenchmarkEnqueueToWire prices one 8-flow payload from the enqueue in
// Client.TrafficFlows to the NPB1 body the drainer posts, with no
// network, untraced and traced.
func BenchmarkEnqueueToWire(b *testing.B) {
	defer trace.SetEnabled(trace.Enabled())
	for _, traced := range []bool{false, true} {
		b.Run(fmt.Sprintf("traced=%v", traced), func(b *testing.B) {
			trace.SetEnabled(traced)
			op := enqueueToWire(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// TestEnqueueToWireAllocBudget holds BenchmarkEnqueueToWire's untraced
// path to its allocation budget; the JSON detour (json.Marshal,
// wire.PayloadFromJSON, AppendBatch) alone costs 72 for the same
// payload. The race detector's own allocations would drown the count,
// so it runs without.
func TestEnqueueToWireAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	defer trace.SetEnabled(trace.Enabled())
	trace.SetEnabled(false)
	op := enqueueToWire(t)
	op() // warm the queue and the encode buffer
	if got := testing.AllocsPerRun(200, op); got > enqueueToWireBudget {
		t.Fatalf("%.1f allocations per payload from TrafficFlows to the NPB1 body, want ≤ %d", got, enqueueToWireBudget)
	}
}

const enqueueToWireBudget = 6
