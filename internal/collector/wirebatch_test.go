package collector

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"natpeek/internal/analysis"
	"natpeek/internal/dataset"
	"natpeek/internal/mac"
	"natpeek/internal/stats"
	"natpeek/internal/trace"
	"natpeek/internal/wire"
)

func postBatch(t *testing.T, srv *Server, contentType string, body []byte) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post("http://"+srv.HTTPAddr()+"/v1/batch", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(msg)
}

func uptimeBatchJSON(t *testing.T, keys ...string) []byte {
	t.Helper()
	var items []BatchItem
	for i, k := range keys {
		body, err := json.Marshal(dataset.UptimeReport{
			RouterID: "router-1", ReportedAt: t0.Add(time.Duration(i) * time.Minute), Uptime: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, BatchItem{Endpoint: "/v1/uptime", Key: k, Body: body})
	}
	b, err := json.Marshal(items)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBatchRejectsTrailingGarbage is the regression for the old
// json.NewDecoder(r.Body).Decode(&items) envelope decode, which read the
// first JSON value and silently ignored everything after it — a request
// whose tail was a second batch would be acknowledged with the tail
// unapplied. Both encodings must reject trailing bytes with 400.
func TestBatchRejectsTrailingGarbage(t *testing.T) {
	srv, _ := startPair(t)

	body := append(uptimeBatchJSON(t, "tg-json-1"), `[{"endpoint":"/v1/uptime","key":"tg-json-lost","body":{}}]`...)
	resp, msg := postBatch(t, srv, "application/json", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("JSON batch with trailing bytes: status %d (%s), want 400", resp.StatusCode, msg)
	}

	bin := wire.AppendBatch(nil, []wire.Item{{
		Endpoint: "/v1/uptime", Key: "tg-bin-1",
		Payload: wire.Payload{Kind: wire.KindUptime,
			Uptime: dataset.UptimeReport{RouterID: "router-1", ReportedAt: t0}},
	}})
	resp, msg = postBatch(t, srv, wire.ContentTypeBinary, append(bin, "garbage"...))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("binary batch with trailing bytes: status %d (%s), want 400", resp.StatusCode, msg)
	}
	if !strings.Contains(msg, "trailing") {
		t.Fatalf("binary rejection should name the trailing bytes: %q", msg)
	}
}

// TestWhitelistAddRejectsTrailingGarbage covers the other NewDecoder
// call site found in the audit (webui.handleWhitelistAdd) — exercised
// through the webui package's own tests; here we pin the collector's
// single-row endpoints, which already read-then-Unmarshal.
func TestDirectEndpointRejectsTrailingGarbage(t *testing.T) {
	srv, _ := startPair(t)
	body := `{"RouterID":"router-1","ReportedAt":"2013-04-01T00:00:00Z"}{"RouterID":"x"}`
	resp, err := http.Post("http://"+srv.HTTPAddr()+"/v1/uptime", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestOversizedBodyGets413 is the regression for oversized bodies
// surfacing as generic 400 decode errors: the MaxBytesReader bound must
// come back as 413 naming the limit, counted under the dedicated
// oversized metric rather than decode_errors.
func TestOversizedBodyGets413(t *testing.T) {
	srv, _ := startPair(t)
	overBefore := srv.mOversized.With("/v1/batch").Value()
	decodeBefore := srv.mDecodeErrs.With("/v1/batch").Value()

	huge := bytes.Repeat([]byte("x"), maxUploadBytes+1)
	resp, msg := postBatch(t, srv, "application/json", huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%s), want 413", resp.StatusCode, msg)
	}
	if want := fmt.Sprintf("%d-byte limit", maxUploadBytes); !strings.Contains(msg, want) {
		t.Fatalf("413 body %q does not name the limit %q", msg, want)
	}
	if got := srv.mOversized.With("/v1/batch").Value() - overBefore; got != 1 {
		t.Fatalf("oversized counter advanced by %d, want 1", got)
	}
	if got := srv.mDecodeErrs.With("/v1/batch").Value() - decodeBefore; got != 0 {
		t.Fatalf("decode_errors advanced by %d for an oversized body, want 0", got)
	}
}

// TestGzipBombGets413 bounds the decompressed size too: a tiny request
// that inflates past the upload limit is refused like an oversized
// plain body, before the decoded bytes can pile up.
func TestGzipBombGets413(t *testing.T) {
	srv, _ := startPair(t)
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(bytes.Repeat([]byte("0"), maxUploadBytes+2)); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	req, err := http.NewRequest(http.MethodPost, "http://"+srv.HTTPAddr()+"/v1/batch", &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%s), want 413", resp.StatusCode, msg)
	}
}

// TestReadAllIntoClampsForgedSizeHint is the regression for sizing the
// pooled body buffer straight from Content-Length: the header is
// attacker-controlled and nobody has read a byte against it yet, so a
// forged multi-GiB value must not become allocation capacity — across
// 256 admitted requests that pre-allocation alone could exhaust memory
// before MaxBytesReader ever rejected the bodies.
func TestReadAllIntoClampsForgedSizeHint(t *testing.T) {
	buf, err := readAllInto(nil, strings.NewReader("tiny body"), 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != "tiny body" {
		t.Fatalf("read %q, want %q", buf, "tiny body")
	}
	if cap(buf) > maxUploadBytes+2 {
		t.Fatalf("forged 1 TiB size hint grew the buffer to cap %d, want ≤ %d", cap(buf), maxUploadBytes+2)
	}
}

// TestBatchReportsMalformedItems pins the server half of dead-lettering:
// undecodable items of a JSON /v1/batch envelope are acknowledged (2xx,
// not retried) but reported per item in BatchResult.Failed. The client
// half — sendBatch turning those failures into the spool.Result that
// dead-letters — is TestSendBatchDeadLettersMalformedItems.
func TestBatchReportsMalformedItems(t *testing.T) {
	srv, _ := startPair(t)
	good, err := json.Marshal(dataset.UptimeReport{RouterID: "router-1", ReportedAt: t0})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal([]BatchItem{
		{Endpoint: "/v1/uptime", Key: "mf-good", Body: good},
		{Endpoint: "/v1/uptime", Key: "mf-bad", Body: []byte(`{"RouterID":42}`)},
		{Endpoint: "/v1/nope", Key: "mf-unknown", Body: []byte(`{}`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, msg := postBatch(t, srv, "application/json", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, msg)
	}
	var br BatchResult
	if err := json.Unmarshal([]byte(msg), &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Failed) != 2 {
		t.Fatalf("failed = %+v, want 2 entries", br.Failed)
	}
	byKey := map[string]string{}
	for _, f := range br.Failed {
		byKey[f.Key] = f.Reason
	}
	if !strings.Contains(byKey["mf-bad"], "decode error") {
		t.Fatalf("mf-bad reason = %q", byKey["mf-bad"])
	}
	if byKey["mf-unknown"] != "unknown endpoint" {
		t.Fatalf("mf-unknown reason = %q", byKey["mf-unknown"])
	}
	if n := len(srv.Store().Uptime); n != 1 {
		t.Fatalf("store has %d uptime rows, want 1 (the good item)", n)
	}
}

// normalizeRows renders a store's rows as JSON with router IDs unified,
// so stores fed by different clients compare structurally.
func normalizeRows(t *testing.T, st *dataset.Store, router string) string {
	t.Helper()
	b, err := json.Marshal(struct {
		U []dataset.UptimeReport
		C []dataset.CapacityMeasure
		N []dataset.DeviceCount
		S []dataset.DeviceSighting
		W []dataset.WiFiScan
		F []dataset.FlowRecord
		T []dataset.ThroughputSample
	}{st.Uptime, st.Capacity, st.Counts, st.Sightings, st.WiFi, st.Flows, st.Throughput})
	if err != nil {
		t.Fatal(err)
	}
	return strings.ReplaceAll(string(b), router, "ROUTER")
}

// equivalenceItems is one seeded payload list that every shape of upload
// must treat identically: registration, each typed kind, a census that
// carries sightings only, a redelivered key, a row from the year 1850
// (outside the delta chain's range: NPB1 escapes it), a malformed body
// and an unknown endpoint.
func equivalenceItems(t *testing.T, router string) []BatchItem {
	t.Helper()
	mk := func(endpoint, key string, v any) BatchItem {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return BatchItem{Endpoint: endpoint, Key: key, Body: body}
	}
	dev := mac.MustParse("a4:b1:97:01:02:03")
	uptime := mk("/v1/uptime", router+":eq:up", dataset.UptimeReport{RouterID: router, ReportedAt: t0, Uptime: 36 * time.Hour})
	return []BatchItem{
		mk("/v1/register", "", RegisterRequest{RouterID: router, Country: "US"}),
		uptime,
		mk("/v1/capacity", router+":eq:cap", dataset.CapacityMeasure{RouterID: router, MeasuredAt: t0, UpBps: 1e6, DownBps: 16e6}),
		mk("/v1/devices", router+":eq:dev", wire.Census{
			Count:     dataset.DeviceCount{RouterID: router, At: t0, Wired: 1, W24: 2, W5: 1},
			Sightings: []dataset.DeviceSighting{{RouterID: router, At: t0, Device: dev, Kind: dataset.Wireless24}}}),
		mk("/v1/devices", router+":eq:sight", wire.Census{
			Sightings: []dataset.DeviceSighting{{RouterID: router, At: t0.Add(time.Minute), Device: dev, Kind: dataset.Wired}}}),
		mk("/v1/wifi", router+":eq:wifi", []dataset.WiFiScan{{RouterID: router, At: t0, Band: "2.4GHz", Channel: 6, VisibleAPs: 9, Clients: 2}}),
		mk("/v1/traffic/flows", router+":eq:flow", []dataset.FlowRecord{{RouterID: router, Device: dev, Domain: "netflix.com",
			Proto: "tcp", First: t0, Last: t0.Add(90 * time.Second), UpBytes: 1 << 20, DownBytes: 50 << 20, UpPkts: 900, DownPkts: 36000, Conns: 2}}),
		mk("/v1/traffic/throughput", router+":eq:tput", []dataset.ThroughputSample{{RouterID: router, Minute: t0, Dir: "down", PeakBps: 4.2e6, TotalBytes: 9 << 20}}),
		uptime, // redelivered
		mk("/v1/uptime", router+":eq:old", dataset.UptimeReport{RouterID: router,
			ReportedAt: time.Date(1850, 1, 1, 0, 0, 0, 0, time.UTC), Uptime: time.Hour}),
		{Endpoint: "/v1/uptime", Key: router + ":eq:bad", Body: json.RawMessage(`{"RouterID":42}`)},
		{Endpoint: "/v1/nope", Key: router + ":eq:unknown", Body: json.RawMessage(`{}`)},
	}
}

// batchBody encodes items as one /v1/batch request body: an NPB1 batch
// for shape "npb1", a JSON envelope otherwise.
func batchBody(t *testing.T, shape string, items []BatchItem) (body []byte, contentType string) {
	t.Helper()
	if shape == "npb1" {
		wireItems := make([]wire.Item, len(items))
		for i := range items {
			wireItems[i] = items[i].wireItem()
		}
		return wire.AppendBatch(nil, wireItems), wire.ContentTypeBinary
	}
	body, err := json.Marshal(items)
	if err != nil {
		t.Fatal(err)
	}
	return body, "application/json"
}

// uploadAs sends items to srv in one shape — "npb1" and "json" as one
// /v1/batch request, "direct" as one keyed POST per item (an unknown
// endpoint has no direct form: the mux refuses it before any handler) —
// and returns every item's outcome in order: what the ingest observer saw
// for the applied and deduplicated ones, the reported reason for the
// refused ones.
func uploadAs(t *testing.T, srv *Server, shape string, items []BatchItem) []string {
	t.Helper()
	var mu sync.Mutex
	decided := map[string][]string{} // key -> ingest decisions, in order
	srv.SetIngestObserver(func(endpoint, key, router string, applied bool) {
		mu.Lock()
		decided[key] = append(decided[key], fmt.Sprintf("%s -> %s applied=%v", endpoint, router, applied))
		mu.Unlock()
	})
	refused := map[string]string{}
	switch shape {
	case "direct":
		for _, it := range items {
			if it.Endpoint == "/v1/nope" {
				refused[it.Key] = "unknown endpoint"
				continue
			}
			req, err := http.NewRequest(http.MethodPost, "http://"+srv.HTTPAddr()+it.Endpoint, bytes.NewReader(it.Body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Idempotency-Key", it.Key)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusNoContent:
			case http.StatusBadRequest:
				refused[it.Key] = strings.TrimSpace(string(msg))
			default:
				t.Fatalf("direct %s: status %d (%s)", it.Endpoint, resp.StatusCode, msg)
			}
		}
	default:
		body, contentType := batchBody(t, shape, items)
		resp, msg := postBatch(t, srv, contentType, body)
		var res BatchResult
		if err := json.Unmarshal([]byte(msg), &res); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s batch: status %d: %s", shape, resp.StatusCode, msg)
		}
		if res.Rejected != len(res.Failed) || res.Applied+res.Duplicates+res.Rejected != len(items) {
			t.Fatalf("%s batch: result %+v does not account for %d items", shape, res, len(items))
		}
		for _, f := range res.Failed {
			refused[f.Key] = f.Reason
		}
	}
	out := make([]string, len(items))
	for i, it := range items {
		if reason, ok := refused[it.Key]; ok {
			out[i] = it.Key + ": rejected: " + reason
			continue
		}
		if len(decided[it.Key]) == 0 {
			t.Fatalf("%s: item %d (%s %q) neither refused nor ingested", shape, i, it.Endpoint, it.Key)
		}
		out[i] = it.Key + ": " + decided[it.Key][0]
		decided[it.Key] = decided[it.Key][1:]
	}
	return out
}

// TestBinaryBatchMatchesJSON requires the encoding to be invisible to the
// dataset: one seeded payload list (equivalenceItems) sent as an NPB1
// batch, as a JSON batch and as direct posts against three servers gives
// row-for-row identical stores, identical placement, identical per-item
// outcome and reject reason.
func TestBinaryBatchMatchesJSON(t *testing.T) {
	const router = "eq-router"
	var want struct{ rows, outcomes string }
	for _, shape := range []string{"npb1", "json", "direct"} {
		srv, err := NewServer("127.0.0.1:0", "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		outcomes := strings.Join(uploadAs(t, srv, shape, equivalenceItems(t, router)), "\n")
		st := srv.Store()
		rows := normalizeRows(t, st, router) + " country=" + st.RouterCountry[router]
		if shape == "npb1" {
			want.rows, want.outcomes = rows, outcomes
			for _, sub := range []string{":eq:up: /v1/uptime -> eq-router applied=true", ":eq:up: /v1/uptime -> eq-router applied=false",
				":eq:sight: /v1/devices -> eq-router applied=true", ":eq:old: /v1/uptime -> eq-router applied=true",
				":eq:bad: rejected: decode error: ", ":eq:unknown: rejected: unknown endpoint", ": /v1/register -> eq-router applied=true"} {
				if !strings.Contains(outcomes, sub) {
					t.Fatalf("npb1 outcomes lack %q:\n%s", sub, outcomes)
				}
			}
			if len(st.Uptime) != 2 || len(st.Counts) != 1 || len(st.Sightings) != 2 || st.Uptime[1].ReportedAt.Year() != 1850 {
				t.Fatalf("npb1 store: %s", rows)
			}
			continue
		}
		if rows != want.rows {
			t.Errorf("%s store differs from npb1:\n%s\nnpb1\n%s", shape, rows, want.rows)
		}
		if outcomes != want.outcomes {
			t.Errorf("%s per-item outcomes differ from npb1:\n%s\nnpb1\n%s", shape, outcomes, want.outcomes)
		}
	}
}

// TestDirectEndpointZonedTimes: one instant posted directly as JSON in
// two spellings, UTC and +02:00, is stored as ==-identical rows, and
// Fig. 13 bins it in the same local hour. analysis.localHour reads the
// hour in the row's own zone, so while a JSON row kept the zone it was
// sent in, a US census at 10:00Z landed in hour 5 and the same instant
// spelled 12:00+02:00 in hour 7 — until a flush or a hop moved it.
func TestDirectEndpointZonedTimes(t *testing.T) {
	type posted struct {
		st               *dataset.Store
		weekday, weekend stats.HourBins
	}
	var got []posted
	for _, at := range []string{"2013-04-01T10:00:00Z", "2013-04-01T12:00:00+02:00"} {
		srv, err := NewServer("127.0.0.1:0", "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		for _, post := range []struct{ endpoint, body string }{
			{"/v1/register", `{"router_id":"rt-zone","country":"US"}`},
			{"/v1/uptime", `{"RouterID":"rt-zone","ReportedAt":"` + at + `","Uptime":60000000000}`},
			{"/v1/capacity", `{"RouterID":"rt-zone","MeasuredAt":"` + at + `","UpBps":1e6,"DownBps":16e6}`},
			{"/v1/devices", `{"count":{"RouterID":"rt-zone","At":"` + at + `","Wired":1,"W24":2,"W5":1},` +
				`"sightings":[{"RouterID":"rt-zone","At":"` + at + `","Device":"00:1c:b3:a1:b2:c3","Kind":1}]}`},
			{"/v1/wifi", `[{"RouterID":"rt-zone","At":"` + at + `","Band":"2.4GHz","Channel":11,"VisibleAPs":7,"Clients":2}]`},
			{"/v1/traffic/flows", `[{"RouterID":"rt-zone","Device":"00:1c:b3:a1:b2:c3","Domain":"example.com","Proto":"tcp",` +
				`"First":"` + at + `","Last":"` + at + `","UpBytes":1,"DownBytes":2,"UpPkts":1,"DownPkts":1,"Conns":1}]`},
			{"/v1/traffic/throughput", `[{"RouterID":"rt-zone","Minute":"` + at + `","Dir":"down","PeakBps":8e6,"TotalBytes":1}]`},
		} {
			resp, err := http.Post("http://"+srv.HTTPAddr()+post.endpoint, "application/json", strings.NewReader(post.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				t.Fatalf("%s at %s: status %d", post.endpoint, at, resp.StatusCode)
			}
		}
		st := srv.Store()
		weekday, weekend := analysis.RollupOf(st).DiurnalDevices(analysis.NewRoster(st))
		got = append(got, posted{st, weekday, weekend})
	}
	a, b := got[0].st, got[1].st
	if !slices.Equal(a.Uptime, b.Uptime) || !slices.Equal(a.Capacity, b.Capacity) || !slices.Equal(a.Counts, b.Counts) ||
		!slices.Equal(a.Sightings, b.Sightings) || !slices.Equal(a.WiFi, b.WiFi) || !slices.Equal(a.Flows, b.Flows) ||
		!slices.Equal(a.Throughput, b.Throughput) {
		t.Errorf("the two spellings stored different rows:\n%s\n%s", normalizeRows(t, a, "rt-zone"), normalizeRows(t, b, "rt-zone"))
	}
	if got[0].weekday != got[1].weekday || got[0].weekend != got[1].weekend {
		t.Errorf("Fig. 13 bins differ by spelling:\nUTC    %v\n+02:00 %v", got[0].weekday.Count, got[1].weekday.Count)
	}
	if got[0].weekday.Count[5] != 1 {
		t.Errorf("a US census at 10:00Z binned at local hours %v, want 5", got[0].weekday.Count)
	}
}

// TestGzipUploads posts equivalenceItems to the server as a gzip'd NPB1
// batch and as a gzip'd JSON envelope: both inflate, account for every
// item and store the same rows.
func TestGzipUploads(t *testing.T) {
	const router = "gz-router"
	var rows []string
	for _, shape := range []string{"npb1", "json"} {
		srv, err := NewServer("127.0.0.1:0", "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		body, contentType := batchBody(t, shape, equivalenceItems(t, router))
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(body)
		zw.Close()
		req, err := http.NewRequest(http.MethodPost, "http://"+srv.HTTPAddr()+"/v1/batch", &buf)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		req.Header.Set("Content-Encoding", "gzip")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var res BatchResult
		if err := json.Unmarshal(msg, &res); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("gzip'd %s batch: status %d: %s", shape, resp.StatusCode, msg)
		}
		if res.Applied != 9 || res.Duplicates != 1 || res.Rejected != 2 {
			t.Fatalf("gzip'd %s batch: result %+v, want 9 applied, 1 duplicate, 2 rejected", shape, res)
		}
		st := srv.Store()
		if len(st.Uptime) != 2 || len(st.Flows) != 1 || len(st.Throughput) != 1 {
			t.Fatalf("gzip'd %s batch: rows missing: %d/%d/%d", shape, len(st.Uptime), len(st.Flows), len(st.Throughput))
		}
		rows = append(rows, normalizeRows(t, st, router))
	}
	if rows[0] != rows[1] {
		t.Fatalf("gzip'd bodies stored different rows:\nnpb1 %s\njson %s", rows[0], rows[1])
	}
}

// TestBinaryBatchPreservesTraces runs a traced binary upload end to end
// and requires the server-assembled trace to contain the client's spans
// (queue wait and send attempt) — trace spans must survive the binary
// encoding byte-for-byte.
func TestBinaryBatchPreservesTraces(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.SetTraceSampling(1.0, time.Hour) // keep everything
	cli, err := NewClient("traced-router", "US", srv.UDPAddr(), srv.HTTPAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	cli.UptimeReport(dataset.UptimeReport{RouterID: "traced-router", ReportedAt: t0})
	flush(t, cli)

	traces := srv.TraceRecorder().Traces(trace.Filter{Router: "traced-router"})
	if len(traces) == 0 {
		t.Fatal("no traces recorded")
	}
	var names []string
	for _, sp := range traces[0].Spans {
		names = append(names, sp.Name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"spool.queued", "spool.send", "collector.decode", "collector.apply"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("trace missing %q span: %v", want, names)
		}
	}
	if traces[0].Router != "traced-router" {
		t.Fatalf("trace router = %q", traces[0].Router)
	}
}
