// Package wire is the compact binary batch encoding for the upload
// pipeline ("NPB1"). JSON got the platform to correctness; at fleet
// scale the collector's ingest path is decode- and alloc-bound, and the
// paper's own platform shipped compact reports from resource-starved
// home routers for the same reason. This package encodes the exact
// payloads /v1/batch carries — idempotency keys, trace spans, and the
// typed measurement rows of every /v1/* endpoint — several times
// smaller and an order of magnitude cheaper to decode than the JSON
// envelope.
//
// The primitives — varints, length-prefixed and dictionary-coded
// strings, bounds checks, the sticky decode error — are internal/codec's;
// this package is the NPB1 schema over them plus what only NPB1 has: the
// batch-wide timestamp chain, the cross-batch intern cache, and the
// pooled decoder's scratch reuse.
//
// Format (all integers varint-encoded unless noted):
//
//	magic "NPB1"
//	uvarint item count
//	per item:
//	  uvarint meta            — bits 0..2 payload kind, bit 3 "has trace";
//	                            higher bits are undefined and refused
//	  stringRef endpoint      — KindRaw only (typed kinds imply theirs)
//	  string    key           — idempotency key, verbatim bytes
//	  trace                   — if bit 3: stringRef router, uvarint span
//	                            count, then per span stringRef name,
//	                            stringRef status, time start, time end,
//	                            uvarint attr count, per attr stringRef
//	                            key, stringRef value
//	  payload                 — per-kind row fields (see encode.go)
//
// Strings come in two shapes. A plain `string` is a uvarint length plus
// raw bytes. A `stringRef` is the inline dictionary: uvarint 0 means "a
// literal string follows; assign it the next dictionary index", any
// other value v means dictionary entry v-1. Router IDs, endpoints,
// domains, protocol names, bands, directions, span names/statuses, and
// attr keys/values are all dictionary-coded, so a batch carries each
// distinct string once.
//
// Timestamps share one delta chain across the whole batch: each time is
// the zigzag varint of its UnixNano minus the previous encoded time's
// (wrapping two's-complement arithmetic, so any in-range instant
// round-trips exactly). The zero time.Time is the sentinel absolute
// value math.MinInt64 and does not advance the chain — open trace spans
// (zero End) survive the trip byte-for-byte. A non-zero instant whose
// delta would collide with the sentinel (possible only for span times
// from absurd client clocks; payload times are range-checked) is nudged
// forward 1 ns instead of desynchronizing the chain. Durations and counters are
// zigzag varints; floats are 8-byte little-endian IEEE 754; MAC
// addresses are their 6 raw (already anonymized) bytes.
//
// Compatibility: the encoding is negotiated, never assumed. Requests
// carry Content-Type ContentTypeBinary; the collector advertises
// support via an "Accept-Post" response header and keeps serving JSON
// clients unchanged. Unknown endpoints ride inside the envelope as
// KindRaw with their JSON body verbatim, so the binary path never has
// to reject what the JSON path would have accepted.
package wire

import (
	"encoding/json"
	"fmt"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/trace"
)

// ContentTypeBinary is the negotiated media type for NPB1-encoded batch
// requests. Anything else on /v1/batch is treated as JSON.
const ContentTypeBinary = "application/x-natpeek-batch"

// magic starts every NPB1 buffer ("natpeek binary, version 1").
const magic = "NPB1"

// Kind identifies a payload's row schema inside the binary envelope.
type Kind uint8

// Payload kinds. KindRaw carries a verbatim JSON body for endpoints the
// encoder has no schema for (registration, future endpoints); the
// decoder hands it to the same JSON applier the plain path uses.
const (
	KindRaw Kind = iota
	KindUptime
	KindCapacity
	KindDevices
	KindWiFi
	KindFlows
	KindThroughput

	kindMax = KindThroughput
)

// metaTrace is the item meta's "has trace" bit; bits 0..2 hold the kind,
// and no bit above metaTrace is defined.
const metaTrace = 1 << 3

// kindEndpoints is the upload endpoint each typed kind serves; KindRaw's
// is carried explicitly.
var kindEndpoints = [kindMax + 1]string{
	KindUptime:     "/v1/uptime",
	KindCapacity:   "/v1/capacity",
	KindDevices:    "/v1/devices",
	KindWiFi:       "/v1/wifi",
	KindFlows:      "/v1/traffic/flows",
	KindThroughput: "/v1/traffic/throughput",
}

// KindFor maps an upload endpoint to its typed payload kind (KindRaw
// for endpoints without a binary schema).
func KindFor(endpoint string) Kind {
	for k := KindUptime; k <= kindMax; k++ {
		if kindEndpoints[k] == endpoint {
			return k
		}
	}
	return KindRaw
}

// Endpoint returns the upload endpoint a typed kind serves ("" for
// KindRaw and for unknown kinds).
func (k Kind) Endpoint() string {
	if k > kindMax {
		return ""
	}
	return kindEndpoints[k]
}

// Item is one batch entry: the binary equivalent of the JSON
// /v1/batch item (endpoint, idempotency key, payload, client trace).
type Item struct {
	Endpoint string
	Key      string
	Payload  Payload
	// Trace carries the client-side spans. The trace ID itself is not
	// shipped — the collector derives it from the idempotency key and
	// never trusts the wire — so decoded Wires have an empty TraceID.
	Trace *trace.Wire
}

// Census mirrors the /v1/devices JSON payload: one count row plus the
// per-device sightings recorded with it.
type Census struct {
	Count     dataset.DeviceCount      `json:"count"`
	Sightings []dataset.DeviceSighting `json:"sightings"`
}

// Payload is one item's measurement rows, discriminated by Kind. Only
// the fields for the active kind are meaningful. Slices produced by a
// Decoder are scratch storage owned by the decoder — valid until the
// next Next or Reset call — and Raw aliases the decoder's input buffer;
// consumers must copy anything they retain (the collector's store
// appends copy rows synchronously under the shard lock, so the ingest
// path needs no extra copies).
type Payload struct {
	Kind Kind

	Raw        []byte // KindRaw: verbatim JSON body
	Uptime     dataset.UptimeReport
	Capacity   dataset.CapacityMeasure
	Count      dataset.DeviceCount
	Sightings  []dataset.DeviceSighting
	WiFi       []dataset.WiFiScan
	Flows      []dataset.FlowRecord
	Throughput []dataset.ThroughputSample
}

// Router returns the payload's shard-routing router ID — the one rule
// every ingest path (JSON or binary, collector or cluster front) places
// a payload by: the census count's router, falling back to the first
// sighting's for a census that carries sightings only, or the first
// row's for slice payloads. A payload always carries one router's rows
// (each gateway uploads its own); an empty one routes to the empty-ID
// shard, which is safe.
func (p *Payload) Router() string {
	switch p.Kind {
	case KindUptime:
		return p.Uptime.RouterID
	case KindCapacity:
		return p.Capacity.RouterID
	case KindDevices:
		if p.Count.RouterID == "" && len(p.Sightings) > 0 {
			return p.Sightings[0].RouterID
		}
		return p.Count.RouterID
	case KindWiFi:
		if len(p.WiFi) > 0 {
			return p.WiFi[0].RouterID
		}
	case KindFlows:
		if len(p.Flows) > 0 {
			return p.Flows[0].RouterID
		}
	case KindThroughput:
		if len(p.Throughput) > 0 {
			return p.Throughput[0].RouterID
		}
	}
	return ""
}

// Rows counts the dataset rows the payload carries (0 for KindRaw,
// whose rows are only known after JSON decode).
func (p *Payload) Rows() int {
	switch p.Kind {
	case KindUptime, KindCapacity:
		return 1
	case KindDevices:
		return 1 + len(p.Sightings)
	case KindWiFi:
		return len(p.WiFi)
	case KindFlows:
		return len(p.Flows)
	case KindThroughput:
		return len(p.Throughput)
	}
	return 0
}

// AppendTo appends the payload's rows to st: the one rows-into-store
// function behind every ingest path (the caller holds the shard lock;
// the appends copy the rows, which is what makes a Decoder's scratch
// reuse safe). KindRaw carries no typed rows and appends nothing.
func (p *Payload) AppendTo(st *dataset.Store) {
	switch p.Kind {
	case KindUptime:
		st.Uptime = append(st.Uptime, p.Uptime)
	case KindCapacity:
		st.Capacity = append(st.Capacity, p.Capacity)
	case KindDevices:
		// A zero-value count means the upload carries only sightings
		// (cluster rebalancing streams the two row sets separately);
		// appending it would invent a row.
		if p.Count != (dataset.DeviceCount{}) {
			st.Counts = append(st.Counts, p.Count)
		}
		st.Sightings = append(st.Sightings, p.Sightings...)
	case KindWiFi:
		st.WiFi = append(st.WiFi, p.WiFi...)
	case KindFlows:
		st.Flows = append(st.Flows, p.Flows...)
	case KindThroughput:
		st.Throughput = append(st.Throughput, p.Throughput...)
	}
}

// JSONBody renders the payload as the JSON body the plain /v1/* path
// would have carried — the bridge for privacy scanners, journaling, and
// equivalence tests. KindRaw returns its bytes verbatim.
func (p *Payload) JSONBody() ([]byte, error) {
	switch p.Kind {
	case KindUptime:
		return json.Marshal(p.Uptime)
	case KindCapacity:
		return json.Marshal(p.Capacity)
	case KindDevices:
		return json.Marshal(Census{Count: p.Count, Sightings: p.Sightings})
	case KindWiFi:
		return json.Marshal(p.WiFi)
	case KindFlows:
		return json.Marshal(p.Flows)
	case KindThroughput:
		return json.Marshal(p.Throughput)
	}
	return p.Raw, nil
}

// ParseJSON strictly decodes one typed endpoint's JSON body: the decode
// behind the collector's direct /v1/* endpoints and JSON batch items. An
// endpoint without a typed schema, or a body that does not decode, is an
// error; timestamps are not range-checked (a JSON row is stored as sent).
func ParseJSON(endpoint string, body []byte) (*Payload, error) {
	p := &Payload{Kind: KindFor(endpoint)}
	var err error
	switch p.Kind {
	case KindUptime:
		err = json.Unmarshal(body, &p.Uptime)
	case KindCapacity:
		err = json.Unmarshal(body, &p.Capacity)
	case KindDevices:
		var v Census
		err = json.Unmarshal(body, &v)
		p.Count, p.Sightings = v.Count, v.Sightings
	case KindWiFi:
		err = json.Unmarshal(body, &p.WiFi)
	case KindFlows:
		err = json.Unmarshal(body, &p.Flows)
	case KindThroughput:
		err = json.Unmarshal(body, &p.Throughput)
	default:
		err = fmt.Errorf("wire: no typed schema for endpoint %q", endpoint)
	}
	return p, err
}

// PayloadFromJSON transcodes one endpoint's JSON body into a typed
// payload. Anything that does not decode cleanly — an unknown endpoint,
// a malformed body, or a timestamp outside the safely delta-encodable
// range — falls back to KindRaw with the body verbatim, so the server's
// accept/reject behaviour is byte-for-byte the JSON path's.
func PayloadFromJSON(endpoint string, body []byte) Payload {
	if p, err := ParseJSON(endpoint, body); err == nil && p.timesEncodable() {
		return *p
	}
	return Payload{Kind: KindRaw, Raw: body}
}

// Portable returns p as a batch can carry it: p itself when every row
// time fits the typed encoding, its JSON body as KindRaw otherwise (the
// receiver parses that without the range check). Rows read back from a
// store need it before AppendBatch — a JSON upload is stored with
// whatever time it was sent with, and a time outside the range may have
// no UnixNano at all.
func Portable(p Payload) Payload {
	if p.timesEncodable() {
		return p
	}
	body, err := p.JSONBody()
	if err != nil {
		// A NaN or infinite float has no JSON: keep the typed form, exact
		// for every time that has a UnixNano.
		return p
	}
	return Payload{Kind: KindRaw, Raw: body}
}

// timesEncodable reports whether every row timestamp fits the typed
// encoding (see timeEncodable).
func (p *Payload) timesEncodable() bool {
	ok := timeEncodable(p.Uptime.ReportedAt) && timeEncodable(p.Capacity.MeasuredAt) && timeEncodable(p.Count.At)
	for i := 0; ok && i < len(p.Sightings); i++ {
		ok = timeEncodable(p.Sightings[i].At)
	}
	for i := 0; ok && i < len(p.WiFi); i++ {
		ok = timeEncodable(p.WiFi[i].At)
	}
	for i := 0; ok && i < len(p.Flows); i++ {
		ok = timeEncodable(p.Flows[i].First) && timeEncodable(p.Flows[i].Last)
	}
	for i := 0; ok && i < len(p.Throughput); i++ {
		ok = timeEncodable(p.Throughput[i].Minute)
	}
	return ok
}

// timeEncodable bounds the timestamps the typed encoding accepts. The
// delta chain round-trips any pair of instants whose UnixNano values
// exist and whose difference is not exactly the zero-time sentinel;
// confining typed rows to two centuries around the epoch (the study is
// 2012–2013, live clocks are "now") makes both impossible, and anything
// weirder ships as KindRaw JSON instead.
func timeEncodable(t time.Time) bool {
	if t.IsZero() {
		return true
	}
	y := t.Year()
	return y >= 1900 && y <= 2100
}
