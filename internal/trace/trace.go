// Package trace is the pipeline's distributed-tracing layer: lightweight
// spans threaded through the whole ingest path (gateway export → spool
// queue/backoff → HTTP attempt → collector decode/dedupe/apply), so a
// single batch or router can be followed end to end and "where did the
// latency/row go?" has an answer per payload, not just in aggregate.
//
// Identity is the existing idempotency key: a payload's trace ID is
// derived deterministically from its key (IDFromKey), so every retry of
// the same payload — across spool backoff cycles, 429 throttling, even a
// client restart replaying its journal — joins the same trace. Client-side
// spans ride inside the /v1/batch items (and a traceparent-style header
// carries the batch's representative context), and the collector merges
// them with its own server-side spans into one completed trace.
//
// Completed traces land in a bounded in-process ring buffer with
// tail-based sampling: error, throttled, and slow traces are always kept,
// the rest are sampled probabilistically (see Recorder). The ring is
// exposed at /debug/traces (list + filters) and /debug/traces/{id}
// (JSON or an ASCII waterfall) — see RegisterDebug.
//
// Tracing is on by default and cheap (a few time.Now calls and slice
// appends per payload); SetEnabled(false) reduces it to a single atomic
// load on every path.
package trace

import (
	"strings"
	"sync/atomic"
	"time"
)

// Span statuses. Empty means "ok".
const (
	StatusOK        = "ok"
	StatusError     = "error"
	StatusThrottled = "throttled"
	StatusDuplicate = "duplicate"
	StatusRejected  = "rejected"
)

var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled toggles tracing process-wide. Disabled tracing reduces every
// instrumentation site to one atomic load; existing recorded traces are
// kept.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether tracing is on.
func Enabled() bool { return enabled.Load() }

// Attr is one key=value annotation on a span.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Span is one timed operation within a trace. A zero End means the span
// was still open when shipped (e.g. the in-flight HTTP attempt); the
// waterfall renders it to the trace's end.
type Span struct {
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end,omitempty"`
	Status string    `json:"status,omitempty"`
	Attrs  []Attr    `json:"attrs,omitempty"`
}

// Trace is one payload's completed end-to-end history.
type Trace struct {
	ID       string    `json:"id"`
	Router   string    `json:"router,omitempty"`
	Endpoint string    `json:"endpoint,omitempty"`
	Start    time.Time `json:"start"`
	End      time.Time `json:"end"`
	Status   string    `json:"status"`
	Spans    []Span    `json:"spans"`

	// Keep forces the tail sampler to retain the trace regardless of
	// status or duration. Pre-sampled hot paths (Recorder.WantTrace) set
	// it so the sampling coin is not flipped a second time at Finish.
	Keep bool `json:"-"`
}

// Duration is the trace's wall-clock extent.
func (t *Trace) Duration() time.Duration { return t.End.Sub(t.Start) }

// Wire is the client-side half of a trace, shipped inside a batch item so
// the collector can assemble the end-to-end view. Spans typically cover
// the gateway export window, spool queueing, and failed delivery
// attempts; the server appends its own decode/dedupe/apply spans.
type Wire struct {
	TraceID string `json:"trace_id"`
	Router  string `json:"router,omitempty"`
	Spans   []Span `json:"spans,omitempty"`
}

// IDFromKey derives a payload's trace ID from its idempotency key. The
// derivation is deterministic, so every redelivery of the same key joins
// the same trace — which is exactly what makes a dropped-then-retried
// batch one story instead of several. 128 bits (two salted FNV-64a
// hashes) keeps accidental collisions out of reach at fleet scale.
// Hashing and hex-encoding are inlined: this runs once per keyed item on
// the ingest hot path, and the hash/fmt package route costs several
// allocations per call.
func IDFromKey(key string) string {
	var buf [32]byte
	idFromKeyInto(&buf, key)
	return string(buf[:])
}

// idFromKeyInto writes IDFromKey(key) into a caller-owned buffer so the
// pre-sampling path (Recorder.WantTraceKey) can probe its maps without
// materializing the ID string.
func idFromKeyInto(buf *[32]byte, key string) {
	h1 := fnvString(fnvOffset, key)
	h2 := fnvString(fnvString(fnvOffset, "natpeek:"), key)
	hexPut(buf[:16], h1)
	hexPut(buf[16:], h2)
}

// FNV-64a parameters (hash/fnv's, restated so the hot path can avoid the
// hash.Hash64 allocation and string→[]byte copies).
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func hexPut(dst []byte, v uint64) {
	const digits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		dst[i] = digits[v&0xf]
		v >>= 4
	}
}

// FormatTraceparent renders a W3C traceparent-style header value for the
// given trace ID (the span-ID field carries a fixed marker; natpeek spans
// are identified by name, not ID).
func FormatTraceparent(traceID string) string {
	return "00-" + traceID + "-00000000000000a7-01"
}

// ParseTraceparent extracts the trace ID from a traceparent-style header
// value. It accepts both the 4-field W3C form and a bare trace ID.
func ParseTraceparent(v string) (string, bool) {
	v = strings.TrimSpace(v)
	if v == "" {
		return "", false
	}
	parts := strings.Split(v, "-")
	if len(parts) >= 2 {
		v = parts[1]
	}
	if len(v) != 32 || !isHex(v) {
		return "", false
	}
	return v, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F') {
			return false
		}
	}
	return true
}
