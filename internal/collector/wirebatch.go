// The path of an upload between its request bytes and Server.ingest,
// written once for every shape a request comes in: the bounded, pooled
// body reader (ReadBody); the item source that turns an NPB1 batch, a
// JSON batch envelope or a direct /v1/* body into wire.Items
// (ItemSource — the only code that knows there are three formats); the
// raw decoder for payloads without a typed schema (DecodeRaw); and the
// apply step every item goes through (batchIngest). The cluster front
// reads, decodes and routes with the same three exported pieces, so
// placement, dedupe, reject reasons and body limits have one definition.
//
// The NPB1 hot loop is deliberately allocation-free: the body lands in a
// pooled buffer sized from Content-Length, items decode in place through
// a pooled wire.Decoder whose scratch rows the store appends copy under
// the shard lock, and the per-item apply runs through one method value
// bound per request — no closure and no interface boxing per item.
package collector

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/trace"
	"natpeek/internal/wire"
)

// BatchEndpoint is the one endpoint whose body is an envelope of items;
// every other upload endpoint's body is one item's payload.
const BatchEndpoint = "/v1/batch"

// Body is a pooled request-body buffer. Pooling these (instead of
// io.ReadAll per request) removes the largest per-request allocation on
// the ingest path; buffers keep their high-water capacity across
// requests.
type Body struct{ b []byte }

var bodyPool = sync.Pool{New: func() any { return new(Body) }}

// Bytes is the body as read (and inflated); valid until Release.
func (b *Body) Bytes() []byte { return b.b }

// Release returns the buffer to the pool.
func (b *Body) Release() { bodyPool.Put(b) }

// readAllInto is io.ReadAll into a reused buffer, growing dst from the
// size hint (Content-Length) so a right-sized request reads without any
// growth copies.
func readAllInto(dst []byte, r io.Reader, sizeHint int64) ([]byte, error) {
	// The hint is attacker-controlled (a Content-Length header nobody
	// has read a byte against yet): clamp it to the upload cap before it
	// becomes allocation capacity, so a forged multi-GiB header cannot
	// drive a huge make() that MaxBytesReader would never let fill.
	if sizeHint > maxUploadBytes+1 {
		sizeHint = maxUploadBytes + 1
	}
	if n := int(sizeHint); n > 0 && int64(n) == sizeHint && cap(dst) < n+1 {
		dst = append(make([]byte, 0, n+1), dst...)
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// ReadBody reads an upload's body into a pooled buffer, bounded at the
// upload limit and transparently decompressing Content-Encoding: gzip.
// On failure it answers the request itself and returns the error for the
// caller to count: an oversized body (the MaxBytesReader bound, or a
// gzip bomb expanding past it) is a *http.MaxBytesError and gets a 413
// naming the limit — not a decode error, which would bury a
// misconfigured client in the corruption noise — anything else a 400.
// The caller owns the returned Body and must Release it.
func ReadBody(w http.ResponseWriter, r *http.Request) (*Body, error) {
	bb := bodyPool.Get().(*Body)
	var err error
	bb.b, err = readAllInto(bb.b[:0], http.MaxBytesReader(w, r.Body, maxUploadBytes), r.ContentLength)
	if err == nil && r.Header.Get("Content-Encoding") == "gzip" {
		bb, err = gunzipBody(bb)
	}
	if err == nil {
		return bb, nil
	}
	bb.Release()
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		http.Error(w, fmt.Sprintf("request body exceeds %d-byte limit", mbe.Limit),
			http.StatusRequestEntityTooLarge)
	} else {
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
	return nil, err
}

// gunzipBody swaps a compressed pooled buffer for a decompressed one,
// bounding the expansion at maxUploadBytes (a *http.MaxBytesError, so
// the client sees a 413 exactly like an oversized plain body).
func gunzipBody(bb *Body) (*Body, error) {
	zr, err := gzip.NewReader(bytes.NewReader(bb.b))
	if err != nil {
		return bb, err
	}
	out := bodyPool.Get().(*Body)
	out.b, err = readAllInto(out.b[:0], io.LimitReader(zr, maxUploadBytes+1), int64(len(bb.b))*3)
	if err == nil {
		err = zr.Close()
	}
	if err == nil && len(out.b) > maxUploadBytes {
		err = &http.MaxBytesError{Limit: maxUploadBytes}
	}
	if err != nil {
		out.Release()
		return bb, err
	}
	bb.Release()
	return out, nil
}

var decoderPool = sync.Pool{New: func() any { return new(wire.Decoder) }}

// ItemSource yields one upload request's items, whichever of the three
// shapes the request came in. Typed NPB1 payloads skip JSON entirely:
// they decode in place into a pooled decoder's scratch slices, so an
// item is valid until the next Next (wire.Payload's aliasing rules;
// Clone what outlives that). JSON bodies — a batch envelope's items or a
// direct post's one — are transcoded with wire.PayloadFromJSON, whose
// KindRaw fallback keeps the accept/reject outcome identical across
// encodings.
type ItemSource struct {
	dec  *wire.Decoder // NPB1 batch
	json []BatchItem   // JSON batch envelope, or the one direct item; not yet yielded
}

// NewItemSource opens body as the upload endpoint's items: for
// /v1/batch an NPB1 envelope or, for any other content type, a JSON one
// (json.Unmarshal, not a Decoder, so trailing bytes after the array are
// refused rather than acknowledged unapplied); for a direct endpoint one
// item carrying the whole body, keyed by the Idempotency-Key header's
// value. Close the source when done.
func NewItemSource(endpoint, contentType, key string, body []byte) (ItemSource, error) {
	var src ItemSource
	switch {
	case endpoint != BatchEndpoint:
		src.json = []BatchItem{{Endpoint: endpoint, Key: key, Body: body}}
	case contentType == wire.ContentTypeBinary || strings.HasPrefix(contentType, wire.ContentTypeBinary+";"):
		src.dec = decoderPool.Get().(*wire.Decoder)
		if err := src.dec.Reset(body); err != nil {
			src.Close()
			return src, err
		}
	default:
		var items []BatchItem // its own variable: Unmarshal's pointer would move src to the heap for every shape
		if err := json.Unmarshal(body, &items); err != nil {
			return src, err
		}
		src.json = items
	}
	return src, nil
}

// Len is how many items remain. An NPB1 envelope's claim is bounded only
// by the bytes that follow it: a size hint, never an allocation size.
func (src *ItemSource) Len() int {
	if src.dec != nil {
		return src.dec.Len()
	}
	return len(src.json)
}

// Next fills it with the next item, io.EOF after the last. Any other
// error is envelope corruption: nothing after the break can be trusted,
// so the request fails as a whole — items yielded before it stay
// applied, and the client's retry is deduplicated by its keys.
func (src *ItemSource) Next(it *wire.Item) error {
	if src.dec != nil {
		return src.dec.Next(it)
	}
	if len(src.json) == 0 {
		return io.EOF
	}
	*it = src.json[0].wireItem()
	src.json = src.json[1:]
	return nil
}

// Close returns the source's pooled decoder.
func (src *ItemSource) Close() {
	if src.dec != nil {
		decoderPool.Put(src.dec)
		src.dec = nil
	}
}

// Endpoints returns every logical upload endpoint the server serves
// directly ("/v1/register", "/v1/uptime", ...), sorted: registration
// plus one per typed payload kind. The cluster front serves exactly this
// set.
func Endpoints() []string {
	out := []string{"/v1/register"}
	for k := wire.KindUptime; k <= wire.KindThroughput; k++ {
		out = append(out, k.Endpoint())
	}
	sort.Strings(out)
	return out
}

var errUnknownEndpoint = errors.New("unknown endpoint")

// DecodeRaw decodes a KindRaw payload — a JSON body the sender had no
// typed encoding for — into the router that places it and the mutation
// to run under that router's shard lock. Registration has no typed
// schema (a router must have an ID). A typed endpoint's body gets here
// when wire.PayloadFromJSON refused it, and its strict re-parse is what
// names the reject reason; it also applies the typed KindRaw rows a
// sender from before NPB1's time escape shipped for years outside
// 1900–2100. Any other endpoint is unknown. This is the only decoder of
// either, for the collector and for the cluster (routing, restoring
// undelivered transfer items) alike.
func DecodeRaw(endpoint string, body []byte) (router string, apply func(*dataset.Store), err error) {
	if endpoint == "/v1/register" {
		var req RegisterRequest
		if err := json.Unmarshal(body, &req); err != nil || req.RouterID == "" {
			return "", nil, errors.New("bad register")
		}
		return req.RouterID, func(st *dataset.Store) { st.RouterCountry[req.RouterID] = req.Country }, nil
	}
	if wire.KindFor(endpoint) == wire.KindRaw {
		return "", nil, errUnknownEndpoint
	}
	p, err := wire.ParseJSON(endpoint, body)
	if err != nil {
		return "", nil, err
	}
	return p.Router(), p.AppendTo, nil
}

// rejectReason renders why an item was refused for BatchResult.Failed,
// bounded so one hostile payload cannot balloon the response.
func rejectReason(err error) string {
	if errors.Is(err, errUnknownEndpoint) {
		return errUnknownEndpoint.Error()
	}
	msg := "decode error: " + err.Error()
	if len(msg) > 200 {
		msg = msg[:200]
	}
	return msg
}

// batchIngest is the apply step every upload goes through, and the state
// one request threads through its item loop: outcome counts, assembled
// traces, and the envelope-decode timestamps every item's trace shares.
// Items are applied independently: an undecodable one is counted,
// reported in BatchResult.Failed, and skipped without failing the
// request (the client's payloads are machine-generated, so a decode
// error is a bug, not a retryable condition), and duplicate keys are
// acknowledged without re-applying.
type batchIngest struct {
	s           *Server
	endpoint    string // the request's, for failures no item endpoint can label
	tracing     bool
	decodeStart time.Time
	decodeEnd   time.Time
	res         BatchResult
	traces      []*trace.Trace

	// it is the one item every Next decodes into, appendTo its
	// Payload.AppendTo bound once per request — so a typed item costs no
	// closure allocation and no interface boxing.
	it       wire.Item
	appendTo func(*dataset.Store)
	// t is the current item's trace (nil while untraced or sampled out)
	// and lazyKey the key to build one from should its outcome turn out
	// interesting; see pre.
	t       *trace.Trace
	lazyKey string
}

// maxFailWarnings bounds per-request server-side logging of rejected
// items; the full list still returns to the client in BatchResult.
const maxFailWarnings = 3

func (s *Server) newBatchIngest(endpoint string, decodeStart time.Time) *batchIngest {
	b := &batchIngest{s: s, endpoint: endpoint, tracing: trace.Enabled(),
		decodeStart: decodeStart, decodeEnd: time.Now()}
	b.appendTo = b.it.Payload.AppendTo
	return b
}

// run applies every item of src, stopping at envelope corruption.
func (b *batchIngest) run(src *ItemSource) error {
	for {
		if err := src.Next(&b.it); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		b.apply()
	}
}

// apply ingests b.it: the only caller of Server.ingest.
func (b *batchIngest) apply() {
	it := &b.it
	b.pre()
	start := time.Now()
	router, apply := it.Payload.Router(), b.appendTo
	if it.Payload.Kind == wire.KindRaw {
		var err error
		if router, apply, err = DecodeRaw(it.Endpoint, it.Payload.Raw); err != nil {
			b.reject(err, start)
			return
		}
	}
	b.s.mItems.With(it.Endpoint).Inc()
	if b.s.ingest(it.Endpoint, it.Key, router, apply) {
		b.res.Applied++
		b.addApply(start, trace.StatusOK, "")
		if b.t == nil && b.lazyKey != "" {
			b.s.rec.NoteSampledOut()
		}
	} else {
		b.res.Duplicates++
		b.lazyTrace()
		b.addApply(start, trace.StatusDuplicate, "")
	}
	if b.t != nil && b.t.Router == "" {
		b.t.Router = router
	}
}

// pre makes the keep/skip sampling decision for the current item before
// any trace is assembled. Most items are healthy and most healthy traces
// are sampled away, so on the hot path only the hashed sampling decision
// runs per item (zero allocations when it says skip); the trace itself
// is built eagerly when WantTraceKey says keep, or lazily the moment an
// item goes wrong.
func (b *batchIngest) pre() {
	b.t, b.lazyKey = nil, ""
	if !b.tracing || b.it.Key == "" {
		return
	}
	var wireSpans []trace.Span
	if b.it.Trace != nil {
		wireSpans = b.it.Trace.Spans
	}
	b.lazyKey = b.it.Key
	if b.s.rec.WantTraceKey(b.it.Key, wireSpans, b.decodeEnd) {
		b.lazyTrace()
	}
}

// lazyTrace assembles the server-side trace for the current item — the
// client's wire spans plus the shared envelope-decode span, sized in one
// allocation with room for the apply span to come — the first time it is
// wanted: by the pre-sampler, or because the item's outcome turned out
// interesting (rejected or duplicate; the tail contract says those are
// never sampled away). Keep is set so Finish does not flip the sampling
// coin again. No-op when the item is untraced or its trace exists.
func (b *batchIngest) lazyTrace() {
	if b.t != nil || b.lazyKey == "" {
		return
	}
	t := &trace.Trace{ID: trace.IDFromKey(b.lazyKey), Endpoint: b.it.Endpoint, Keep: true}
	var wireSpans []trace.Span
	if w := b.it.Trace; w != nil {
		t.Router = w.Router
		wireSpans = w.Spans
	}
	t.Spans = append(make([]trace.Span, 0, len(wireSpans)+2), wireSpans...)
	t.Spans = append(t.Spans, trace.Span{
		Name: "collector.decode", Start: b.decodeStart, End: b.decodeEnd,
	})
	b.t, b.lazyKey = t, ""
	b.traces = append(b.traces, t)
}

// addApply appends the per-item apply span (decode + dedupe + shard
// mutation) to the current item's trace, if it has one.
func (b *batchIngest) addApply(start time.Time, status, reason string) {
	if b.t == nil {
		return
	}
	sp := trace.Span{Name: "collector.apply", Start: start, End: time.Now(), Status: status}
	if reason != "" {
		sp.Attrs = []trace.Attr{{K: "reason", V: reason}}
	}
	b.t.Spans = append(b.t.Spans, sp)
}

// reject records the current item as undecodable: the rejection counts,
// the per-item failure report the spool uses to dead-letter instead of
// retry, a bounded server-side warning, and the item's trace. An unknown
// endpoint counts under the request's endpoint — its own is an
// attacker-chosen metric label.
func (b *batchIngest) reject(err error, at time.Time) {
	it, reason, label := &b.it, rejectReason(err), b.it.Endpoint
	if errors.Is(err, errUnknownEndpoint) {
		label = b.endpoint
	}
	b.s.mDecodeErrs.With(label).Inc()
	b.res.Rejected++
	b.res.Failed = append(b.res.Failed, BatchFailure{Endpoint: it.Endpoint, Key: it.Key, Reason: reason})
	if len(b.res.Failed) <= maxFailWarnings {
		b.s.log.Warn("upload item rejected", "endpoint", it.Endpoint, "key", it.Key, "reason", reason)
	}
	b.lazyTrace()
	b.addApply(at, trace.StatusRejected, reason)
}

// Add folds another request's result into r.
func (r *BatchResult) Add(o BatchResult) {
	r.Applied += o.Applied
	r.Duplicates += o.Duplicates
	r.Rejected += o.Rejected
	r.Failed = append(r.Failed, o.Failed...)
}

// Reply answers an upload with its result: a /v1/batch request gets the
// BatchResult as JSON; a direct post is its one item's outcome — 204
// when applied or deduplicated, 400 with the reason when refused.
func (r *BatchResult) Reply(w http.ResponseWriter, endpoint string) {
	switch {
	case endpoint == BatchEndpoint:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(r)
	case len(r.Failed) > 0:
		http.Error(w, r.Failed[0].Reason, http.StatusBadRequest)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}
