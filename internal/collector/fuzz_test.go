package collector

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"natpeek/internal/dataset"
	"natpeek/internal/wire"
)

// FuzzRequestDecode fuzzes the upload API's decode surface: every /v1/*
// endpoint's payload decoder plus the /v1/batch envelope, applied to a
// throwaway store — the exact code path a hostile POST body reaches.
// Properties:
//
//  1. No decoder panics, and an accepted payload applies cleanly.
//  2. decode∘encode = id for every typed endpoint payload: a decoded
//     value re-encoded by the client's encoder (encoding/json, the same
//     one collector.Client uses) decodes back to the same encoding.
func FuzzRequestDecode(f *testing.F) {
	f.Add([]byte(`{"RouterID":"bismark-US-001","ReportedAt":"2013-04-01T00:00:00Z","Uptime":3600000000000}`))
	f.Add([]byte(`{"RouterID":"bismark-IN-002","MeasuredAt":"2013-04-02T12:00:00Z","UpBps":450000,"DownBps":8000000}`))
	f.Add([]byte(`{"count":{"RouterID":"r","At":"2013-03-06T00:00:00Z","Wired":1,"W24":2,"W5":0},` +
		`"sightings":[{"RouterID":"r","At":"2013-03-06T00:00:00Z","Device":"00:1c:b3:a1:b2:c3","Kind":1}]}`))
	f.Add([]byte(`[{"RouterID":"r","At":"2012-11-01T00:10:00Z","Band":"2.4GHz","Channel":11,"VisibleAPs":7,"Clients":2}]`))
	f.Add([]byte(`[{"RouterID":"r","Device":"00:1c:b3:a1:b2:c3","Domain":"anon-0123456789abcdef","Proto":"tcp",` +
		`"First":"2013-04-01T10:00:00Z","Last":"2013-04-01T10:05:00Z","UpBytes":1000,"DownBytes":90000,` +
		`"UpPkts":10,"DownPkts":70,"Conns":1}]`))
	f.Add([]byte(`[{"RouterID":"r","Minute":"2013-04-01T10:00:00Z","Dir":"up","PeakBps":1048576,"TotalBytes":500000}]`))
	f.Add([]byte(`{"router_id":"bismark-US-001","country":"US"}`))
	f.Add([]byte(`[{"endpoint":"/v1/uptime","key":"k1","body":{"RouterID":"r"}},` +
		`{"endpoint":"/v1/nope","key":"k2","body":{}},{"endpoint":"/v1/wifi","key":"k3","body":"notanarray"}]`))
	f.Add([]byte(`null`))

	endpoints := append(Endpoints(), BatchEndpoint)

	f.Fuzz(func(t *testing.T, data []byte) {
		// The body is offered to every direct endpoint, as a mis-routed
		// client could, and to /v1/batch as a JSON envelope, through the
		// item source and the raw decoder the handler uses: unknown
		// endpoints and undecodable bodies must be skipped, not fatal.
		for _, ep := range endpoints {
			src, err := NewItemSource(ep, "application/json", "k", data)
			if err != nil {
				continue
			}
			st := dataset.NewStore()
			var it wire.Item
			for src.Next(&it) == nil {
				apply := it.Payload.AppendTo
				if it.Payload.Kind == wire.KindRaw {
					if _, apply, err = DecodeRaw(it.Endpoint, it.Payload.Raw); err != nil {
						continue
					}
				}
				apply(st)
			}
			src.Close()
		}
		// Round-trip every typed payload the client can encode.
		roundTrip[dataset.UptimeReport](t, data)
		roundTrip[dataset.CapacityMeasure](t, data)
		roundTrip[wire.Census](t, data)
		roundTrip[[]dataset.WiFiScan](t, data)
		roundTrip[[]dataset.FlowRecord](t, data)
		roundTrip[[]dataset.ThroughputSample](t, data)
		roundTrip[RegisterRequest](t, data)
		roundTrip[[]BatchItem](t, data)
	})
}

// FuzzBatchTranscode cross-checks the two /v1/batch encodings: any JSON
// batch the server accepts, transcoded to the binary wire format the
// client's encoder would produce, must yield the same BatchResult and
// the same store rows, byte for byte and zones included, when replayed
// against a fresh server. Divergence means a gateway switching wire
// formats would silently change what the dataset records.
func FuzzBatchTranscode(f *testing.F) {
	f.Add([]byte(`[{"endpoint":"/v1/uptime","key":"k1","body":{"RouterID":"r","ReportedAt":"2013-04-01T00:00:00Z","Uptime":3600000000000}}]`))
	f.Add([]byte(`[{"endpoint":"/v1/capacity","key":"","body":{"RouterID":"r","MeasuredAt":"2013-04-02T12:00:00+05:30","UpBps":450000,"DownBps":8000000}}]`))
	f.Add([]byte(`[{"endpoint":"/v1/devices","key":"c1","body":{"count":{"RouterID":"r","At":"2013-03-06T00:00:00Z","Wired":1,"W24":2,"W5":0},` +
		`"sightings":[{"RouterID":"r","At":"2013-03-06T00:00:00Z","Device":"00:1c:b3:a1:b2:c3","Kind":1}]}}]`))
	f.Add([]byte(`[{"endpoint":"/v1/wifi","key":"w","body":[{"RouterID":"r","At":"2012-11-01T00:10:00Z","Band":"2.4GHz","Channel":11,"VisibleAPs":7,"Clients":2}]},` +
		`{"endpoint":"/v1/wifi","key":"w","body":[]}]`))
	f.Add([]byte(`[{"endpoint":"/v1/traffic/flows","key":"f","body":[{"RouterID":"r","Device":"00:1c:b3:a1:b2:c3","Domain":"anon-0123","Proto":"tcp",` +
		`"First":"2013-04-01T10:00:00Z","Last":"2013-04-01T10:05:00Z","UpBytes":1000,"DownBytes":90000,"UpPkts":10,"DownPkts":70,"Conns":1}]}]`))
	f.Add([]byte(`[{"endpoint":"/v1/traffic/throughput","key":"t","body":[{"RouterID":"r","Minute":"2013-04-01T10:00:00Z","Dir":"up","PeakBps":1048576,"TotalBytes":500000}]}]`))
	f.Add([]byte(`[{"endpoint":"/v1/uptime","key":"old","body":{"RouterID":"r","ReportedAt":"1899-12-31T23:59:59Z"}}]`))
	f.Add([]byte(`[{"endpoint":"/v1/traffic/flows","key":"y","body":[{"RouterID":"r",` +
		`"First":"0001-01-01T00:00:00.5-00:30","Last":"9999-12-31T23:59:59.999999999Z"}]}]`))
	f.Add([]byte(`[{"endpoint":"/v1/nope","key":"k2","body":{}},{"endpoint":"/v1/wifi","key":"k3","body":"notanarray"}]`))
	f.Add([]byte(`[{"endpoint":"/v1/uptime","key":"z","body":null}]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4<<10 {
			return
		}
		var items []BatchItem
		if json.Unmarshal(data, &items) != nil || len(items) > 32 {
			return
		}
		// Re-marshal so both encodings start from the same canonical
		// envelope (no trailing bytes, no duplicate-field ambiguity, an
		// absent body spelled null), and transcode that envelope's items.
		jsonBody, err := json.Marshal(items)
		if err != nil {
			return
		}
		items = nil
		if err := json.Unmarshal(jsonBody, &items); err != nil {
			t.Fatal(err)
		}
		wireItems := make([]wire.Item, len(items))
		for i, it := range items {
			wireItems[i] = wire.Item{Endpoint: it.Endpoint, Key: it.Key,
				Payload: wire.PayloadFromJSON(it.Endpoint, it.Body)}
		}
		binBody := wire.AppendBatch(nil, wireItems)

		jsonRes, jsonStore := replayBatch(t, "application/json", jsonBody)
		binRes, binStore := replayBatch(t, wire.ContentTypeBinary, binBody)
		if jsonRes != binRes {
			t.Fatalf("batch results diverge:\n json   %s\n binary %s", jsonRes, binRes)
		}
		if jsonStore != binStore {
			t.Fatalf("stores diverge:\n json   %s\n binary %s", jsonStore, binStore)
		}
	})
}

// replayBatch posts one batch body to a fresh server and returns the
// BatchResult and store contents.
func replayBatch(t *testing.T, contentType string, body []byte) (string, string) {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	srv.handleUpload(BatchEndpoint)(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s batch: status %d: %s", contentType, rec.Code, rec.Body)
	}
	st := srv.Store()
	rows, err := json.Marshal([]any{st.Uptime, st.Capacity, st.Counts, st.Sightings, st.WiFi, st.Flows, st.Throughput})
	if err != nil {
		t.Fatal(err)
	}
	return rec.Body.String(), string(rows)
}

// roundTrip asserts that once data decodes as T, encode→decode→encode
// is stable: the server always accepts what the client encodes.
func roundTrip[T any](t *testing.T, data []byte) {
	t.Helper()
	var v T
	if json.Unmarshal(data, &v) != nil {
		return
	}
	b2, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%T: decoded value does not re-encode: %v", v, err)
	}
	var v2 T
	if err := json.Unmarshal(b2, &v2); err != nil {
		t.Fatalf("%T: own encoding rejected on re-decode: %v\n b2=%s", v, err, b2)
	}
	b3, err := json.Marshal(v2)
	if err != nil {
		t.Fatalf("%T: re-encode failed: %v", v, err)
	}
	if !bytes.Equal(b2, b3) {
		t.Fatalf("%T: encode not stable:\n b2=%s\n b3=%s", v, b2, b3)
	}
}
