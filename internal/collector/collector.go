// Package collector implements the central BISmark server: a UDP sink
// for heartbeats and an HTTP API for measurement uploads, storing
// everything in a dataset.Store. The matching Client implements
// gateway.Sink over the network, so the same agent code that runs in the
// simulator can report to a real server (cmd/bismark-gateway →
// cmd/bismark-server).
//
// The upload path is reliable end to end. The client never posts
// measurements inline: every payload is enqueued into an internal/spool
// queue with an idempotency key and delivered by a background drainer
// that batches queued payloads into single POSTs (/v1/batch) and retries
// under exponential backoff. The server applies each idempotency key at
// most once (the dedupe index lives in the dataset.Store, so it survives
// a server restart that keeps the store), which makes redelivery safe:
// at-least-once transport plus server dedupe is exactly-once ingestion.
//
// The server is instrumented end to end: every /v1/* endpoint counts
// requests, decode errors, payload bytes, and latency; the telemetry
// registry is exposed at /metrics (Prometheus text format) alongside
// /healthz and the pprof handlers. See DESIGN.md §"Operating the
// platform" for the metric names. SetFaultInjection (bismark-server
// -fail-rate) makes the server randomly reject or drop-ack uploads so
// the retry/dedupe path can be demonstrated against a live deployment.
package collector

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/heartbeat"
	"natpeek/internal/rng"
	"natpeek/internal/spool"
	"natpeek/internal/telemetry"
	"natpeek/internal/trace"
	"natpeek/internal/webui"
	"natpeek/internal/wire"
)

// closeTimeout bounds how long Close waits for in-flight uploads before
// force-closing connections.
const closeTimeout = 3 * time.Second

// maxUploadBytes bounds every upload request body. A single oversized
// POST must not be able to exhaust the collector's memory; the gateway's
// batches sit far below this.
const maxUploadBytes = 8 << 20

// DefaultMaxInflight is the admission-control limit: the number of
// data-plane uploads the server will decode and apply concurrently
// before answering 429. It bounds memory (each in-flight request may
// hold up to maxUploadBytes of body) rather than CPU; the sharded store
// itself has no global serialization to protect.
const DefaultMaxInflight = 256

// Server is the collection server. The store is lock-striped
// (dataset.Sharded): uploads for different routers decode and append
// concurrently, with no global serialization on the ingest path. The
// server's own mutex only guards the fault injector.
type Server struct {
	mu    sync.Mutex // guards faults only
	store dataset.IngestStore
	admit atomic.Value // chan struct{}; see SetMaxInflight

	hbRx *heartbeat.Receiver
	http *http.Server
	mux  *http.ServeMux
	ln   net.Listener
	log  *slog.Logger

	startedAt time.Time

	mReqs       *telemetry.CounterVec
	mDecodeErrs *telemetry.CounterVec
	mOversized  *telemetry.CounterVec
	mPayload    *telemetry.CounterVec
	mItems      *telemetry.CounterVec
	mDedupe     *telemetry.CounterVec
	mInjected   *telemetry.CounterVec
	mThrottled  *telemetry.CounterVec
	hLatency    *telemetry.HistogramVec

	rec    *trace.Recorder
	faults *faultInjector

	// advertiseBinary gates the Accept-Post header through which clients
	// discover NPB1 support (default on; bismark-server -no-binary).
	advertiseBinary atomic.Bool

	// ingestObs, when set, sees every keyed ingest decision; see
	// SetIngestObserver.
	ingestObs atomic.Pointer[func(endpoint, key, router string, applied bool)]
	// ingestGate, when set, runs before every keyed apply; see
	// SetIngestGate.
	ingestGate atomic.Pointer[func(router string)]

	closeOnce sync.Once
	closeErr  error
	closed    chan struct{}
}

// NewServer starts a collection server with a UDP heartbeat port and an
// HTTP upload API. Pass "127.0.0.1:0" style addresses; zero ports pick
// ephemeral ones.
func NewServer(udpAddr, httpAddr string, store dataset.IngestStore) (*Server, error) {
	if store == nil {
		store = dataset.NewSharded(0)
	}
	reg := telemetry.Default
	s := &Server{
		store:     store,
		log:       slog.Default().With("component", "collector"),
		startedAt: time.Now(),
		closed:    make(chan struct{}),
		mReqs: reg.CounterVec("natpeek_http_requests_total",
			"Upload API requests received, per endpoint.", "endpoint"),
		mDecodeErrs: reg.CounterVec("natpeek_http_decode_errors_total",
			"Upload API requests rejected with a body decode error, per endpoint.", "endpoint"),
		mOversized: reg.CounterVec("natpeek_http_oversized_total",
			"Upload API requests rejected with 413 because the body exceeded the upload limit, per endpoint.", "endpoint"),
		mPayload: reg.CounterVec("natpeek_http_payload_bytes_total",
			"Upload API request payload bytes actually read, per endpoint.", "endpoint"),
		mItems: reg.CounterVec("natpeek_collector_batch_items_total",
			"Spooled payloads ingested through /v1/batch, per logical endpoint.", "endpoint"),
		mDedupe: reg.CounterVec("natpeek_collector_dedupe_total",
			"Uploads skipped because their idempotency key was already applied, per endpoint.", "endpoint"),
		mInjected: reg.CounterVec("natpeek_collector_injected_failures_total",
			"Failures injected by SetFaultInjection, per mode (reject=before apply, drop-ack=after).", "mode"),
		mThrottled: reg.CounterVec("natpeek_collector_throttled_total",
			"Uploads answered 429 because the in-flight limit was reached, per endpoint.", "endpoint"),
		hLatency: reg.HistogramVec("natpeek_http_request_seconds",
			"Upload API request handling latency.", nil, "endpoint"),
		rec: trace.NewRecorder(trace.Config{}),
	}
	s.admit.Store(make(chan struct{}, DefaultMaxInflight))
	s.advertiseBinary.Store(true)
	rx, err := heartbeat.NewReceiver(udpAddr, store.HeartbeatLog(), nil)
	if err != nil {
		return nil, err
	}
	s.hbRx = rx

	mux := http.NewServeMux()
	for _, path := range append(Endpoints(), batchEndpoint) {
		// Registration is exempt from fault injection: it is the one
		// synchronous control-plane call, and failing it would keep
		// demo gateways from ever coming up.
		injectable := path != "/v1/register"
		mux.HandleFunc("POST "+path, s.instrument(path, injectable, s.handleUpload(path)))
	}
	mux.HandleFunc("GET /v1/stats", s.instrument("/v1/stats", false, s.handleStats))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	telemetry.RegisterDebug(mux, reg)
	trace.RegisterDebug(mux, s.rec)
	webui.RegisterPipeline(mux, webui.PipelineConfig{
		Title: "collector",
		Snapshot: webui.PipelineFromTelemetry(s.hLatency, s.rec,
			reg.Gauge("natpeek_spool_depth",
				"Payloads currently queued across all spools in this process.")),
	})

	ln, err := net.Listen("tcp", httpAddr)
	if err != nil {
		rx.Close()
		return nil, fmt.Errorf("collector: listen %s: %w", httpAddr, err)
	}
	s.ln = ln
	s.mux = mux
	s.http = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go s.http.Serve(ln)
	s.log.Debug("listening", "udp", s.UDPAddr(), "http", s.HTTPAddr())
	return s, nil
}

// UDPAddr returns the heartbeat address.
func (s *Server) UDPAddr() string { return s.hbRx.Addr().String() }

// HTTPAddr returns the upload API address.
func (s *Server) HTTPAddr() string { return s.ln.Addr().String() }

// Mux exposes the collector's HTTP mux so callers can mount extra
// views (e.g. the incremental figures dashboard). ServeMux registration
// is safe after the server has started serving.
func (s *Server) Mux() *http.ServeMux { return s.mux }

// Store returns a merged point-in-time snapshot of everything the
// server has collected, in global arrival order. The snapshot is safe
// to read (and, after Close, to keep) — it shares nothing with the
// ingest path except the internally-synchronized heartbeat log.
func (s *Server) Store() *dataset.Store { return s.store.Merge() }

// Sharded returns the server's live ingest store, for callers that
// need cheap row counts (RowCounts) or to share the store across a
// server restart.
func (s *Server) Sharded() dataset.IngestStore { return s.store }

// SetMaxInflight replaces the admission limit for data-plane uploads
// (n <= 0 restores DefaultMaxInflight). Requests beyond the limit are
// answered 429 + Retry-After instead of queuing, so a saturated
// collector sheds load onto the clients' spools — which already retry
// any non-2xx with backoff — rather than blocking its accept loop.
func (s *Server) SetMaxInflight(n int) {
	if n <= 0 {
		n = DefaultMaxInflight
	}
	s.admit.Store(make(chan struct{}, n))
}

// TraceRecorder exposes the server's flight recorder (also mounted on
// the API mux at /debug/traces).
func (s *Server) TraceRecorder() *trace.Recorder { return s.rec }

// SetAdvertiseBinary toggles the Accept-Post advertisement through which
// clients discover binary batch support (bismark-server -no-binary).
// With it off, auto-negotiating clients stay on JSON; the server still
// accepts binary requests from clients explicitly configured to send
// them.
func (s *Server) SetAdvertiseBinary(on bool) { s.advertiseBinary.Store(on) }

// SetTraceSampling replaces the tail-sampling knobs: rate is the keep
// probability for healthy traces, slow the always-keep latency threshold
// (zero values keep defaults).
func (s *Server) SetTraceSampling(rate float64, slow time.Duration) {
	s.rec.SetSampling(rate, slow)
}

// SetFaultInjection makes the server fail the given fraction of upload
// requests, deterministically driven by seed. Half of the injected
// failures reject the request before it is applied (503, nothing
// stored); the other half apply the payload and then drop the
// acknowledgment (503 after apply) — the lost-ack case that makes
// idempotency keys necessary. Pass rate 0 to disable.
func (s *Server) SetFaultInjection(rate float64, seed uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rate <= 0 {
		s.faults = nil
		return
	}
	s.faults = &faultInjector{rate: rate, rng: rng.New(seed)}
}

type faultInjector struct {
	mu   sync.Mutex
	rate float64
	rng  *rng.Stream
}

type faultMode int

const (
	faultNone    faultMode = iota
	faultReject            // fail before the handler runs
	faultDropAck           // run the handler, then fail the response
)

func (f *faultInjector) roll() faultMode {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.rng.Bool(f.rate) {
		return faultNone
	}
	if f.rng.Bool(0.5) {
		return faultReject
	}
	return faultDropAck
}

func (s *Server) injector() *faultInjector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faults
}

// discardResponse swallows a handler's response so a drop-ack fault can
// replace it with a 503 after the handler has already mutated the store.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header {
	if d.h == nil {
		d.h = make(http.Header)
	}
	return d.h
}
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// countingReader counts the bytes actually read from a request body, so
// payload accounting covers chunked uploads (ContentLength == -1) too.
type countingReader struct {
	rc io.ReadCloser
	n  int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.rc.Close() }

// instrument wraps an endpoint handler with the request/latency/payload
// metrics, applies admission control, and applies fault injection to
// injectable (data-plane) endpoints. Metric handles are resolved once
// per endpoint at mux build time.
//
// Admission control is non-blocking: when the in-flight limit is
// reached the request is answered 429 + Retry-After immediately — load
// is shed onto the clients' retrying spools instead of parking
// goroutines (and their request bodies) inside the server.
func (s *Server) instrument(endpoint string, injectable bool, h http.HandlerFunc) http.HandlerFunc {
	reqs := s.mReqs.With(endpoint)
	payload := s.mPayload.With(endpoint)
	lat := s.hLatency.With(endpoint)
	reject := s.mInjected.With("reject")
	dropAck := s.mInjected.With("drop-ack")
	throttled := s.mThrottled.With(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqs.Inc()
		// Advertise the binary batch encoding; clients capture this from
		// the registration response and switch /v1/batch to NPB1.
		if s.advertiseBinary.Load() {
			w.Header().Set("Accept-Post", wire.ContentTypeBinary+", application/json")
		}
		// The Traceparent header names the batch's representative trace
		// (its first item). It correlates 429s, injected faults, and
		// latency exemplars back to the originating upload.
		traceID, _ := trace.ParseTraceparent(r.Header.Get("Traceparent"))
		if injectable {
			sem := s.admit.Load().(chan struct{})
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			default:
				throttled.Inc()
				if traceID != "" {
					s.rec.AddPending(traceID, trace.Span{
						Name: "collector.throttle", Start: start, End: time.Now(),
						Status: trace.StatusThrottled,
						Attrs:  []trace.Attr{{K: "endpoint", V: endpoint}},
					})
					w.Header().Set("X-Natpeek-Trace", traceID)
				}
				w.Header().Set("Retry-After", "1")
				http.Error(w, "ingest saturated, retry later (trace "+traceID+")", http.StatusTooManyRequests)
				lat.Observe(time.Since(start).Seconds())
				return
			}
		}
		var cr *countingReader
		if r.Body != nil {
			cr = &countingReader{rc: r.Body}
			r.Body = cr
		}
		mode := faultNone
		if injectable {
			if f := s.injector(); f != nil {
				mode = f.roll()
			}
		}
		switch mode {
		case faultReject:
			reject.Inc()
			s.faultSpan(traceID, "reject", start)
			http.Error(w, "injected failure (rejected)", http.StatusServiceUnavailable)
		case faultDropAck:
			dropAck.Inc()
			s.faultSpan(traceID, "drop-ack", start)
			h(&discardResponse{}, r)
			http.Error(w, "injected failure (ack dropped)", http.StatusServiceUnavailable)
		default:
			h(w, r)
		}
		if cr != nil {
			payload.Add(cr.n)
		}
		lat.ObserveExemplar(time.Since(start).Seconds(), traceID)
	}
}

// faultSpan records an injected-fault outcome against the batch's trace.
// The span is pending: the batch will be retried, and the retry's
// completion folds the fault history into the final trace.
func (s *Server) faultSpan(traceID, mode string, start time.Time) {
	if traceID == "" {
		return
	}
	s.rec.AddPending(traceID, trace.Span{
		Name: "collector.fault", Start: start, End: time.Now(),
		Status: trace.StatusError,
		Attrs:  []trace.Attr{{K: "mode", V: mode}},
	})
}

// ingest runs one decoded payload against the originating router's
// store shard, honoring its idempotency key. It reports whether the
// payload was applied (false means a deduplicated replay). Uploads for
// different routers take different shard locks and proceed in parallel.
func (s *Server) ingest(endpoint, key, router string, apply func(*dataset.Store)) bool {
	if key != "" {
		if gate := s.ingestGate.Load(); gate != nil {
			(*gate)(router)
		}
	}
	applied := s.store.Apply(router, key, apply)
	if !applied {
		s.mDedupe.With(endpoint).Inc()
	}
	if obs := s.ingestObs.Load(); obs != nil {
		(*obs)(endpoint, key, router, applied)
	}
	return applied
}

// SetIngestObserver registers fn to be called synchronously after every
// ingest decision (applied or deduplicated). Cluster nodes use it to
// maintain the per-router applied-key index that key manifests are
// served from; nil unregisters. The callback runs on the request path —
// it must be cheap and must not call back into the server.
func (s *Server) SetIngestObserver(fn func(endpoint, key, router string, applied bool)) {
	if fn == nil {
		s.ingestObs.Store(nil)
		return
	}
	s.ingestObs.Store(&fn)
}

// SetIngestGate registers fn to be called synchronously before every
// keyed apply, with the originating router ID. Cluster nodes use it to
// finish seeding a router's dedupe index before its first write lands
// (closing the window where a write applied elsewhere during an
// ownership change could re-apply here); nil unregisters. The callback
// runs on the request path and may block that request, but must not
// call back into the server.
func (s *Server) SetIngestGate(fn func(router string)) {
	if fn == nil {
		s.ingestGate.Store(nil)
		return
	}
	s.ingestGate.Store(&fn)
}

// handleUpload serves one upload endpoint, /v1/batch or a direct one:
// read the body, open it as items, apply each, answer from the result.
// Items may carry an idempotency key (a direct post's is its
// Idempotency-Key header); replays of an applied key are acknowledged
// without being re-applied.
func (s *Server) handleUpload(endpoint string) http.HandlerFunc {
	decodeErrs, oversized := s.mDecodeErrs.With(endpoint), s.mOversized.With(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		decodeStart := time.Now()
		body, err := ReadBody(w, r)
		if err != nil {
			if errors.As(err, new(*http.MaxBytesError)) {
				oversized.Inc()
			} else {
				decodeErrs.Inc()
			}
			return
		}
		defer body.Release()
		src, err := NewItemSource(endpoint, r.Header.Get("Content-Type"), r.Header.Get("Idempotency-Key"), body.Bytes())
		if err == nil {
			defer src.Close()
			b := s.newBatchIngest(endpoint, decodeStart)
			if err = b.run(&src); err == nil {
				for _, t := range b.traces {
					s.rec.Finish(t)
				}
				b.res.Reply(w, endpoint)
				return
			}
		}
		decodeErrs.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// BatchItem is one spooled payload inside a /v1/batch request. The JSON
// shape matches spool.Item's wire encoding.
type BatchItem struct {
	Endpoint string          `json:"endpoint"`
	Key      string          `json:"key"`
	Body     json.RawMessage `json:"body"`
	// Trace carries the client's half of the payload's trace — the
	// gateway export, spool queue-wait, and delivery-attempt spans — so
	// the server can assemble one end-to-end trace per payload.
	Trace *trace.Wire `json:"trace,omitempty"`
}

// wireItem transcodes the item for the binary envelope, conservatively:
// a body that does not decode cleanly into its endpoint's typed rows
// rides as raw JSON (wire.PayloadFromJSON), so the accept/reject outcome
// is the same whichever side of the wire transcodes.
func (bi *BatchItem) wireItem() wire.Item {
	return wire.Item{Endpoint: bi.Endpoint, Key: bi.Key, Trace: bi.Trace,
		Payload: wire.PayloadFromJSON(bi.Endpoint, bi.Body)}
}

// BatchResult summarizes one /v1/batch ingestion. Failed reports every
// item the server acknowledged but could not decode, so the client's
// spool can distinguish "applied" from "dropped as malformed" and
// dead-letter the latter instead of silently counting them delivered.
type BatchResult struct {
	Applied    int            `json:"applied"`
	Duplicates int            `json:"duplicates"`
	Rejected   int            `json:"rejected"`
	Failed     []BatchFailure `json:"failed,omitempty"`
}

// BatchFailure names one rejected batch item and why it was refused.
type BatchFailure struct {
	Endpoint string `json:"endpoint"`
	Key      string `json:"key"`
	Reason   string `json:"reason"`
}

// Close shuts the server down gracefully: the heartbeat socket stops
// immediately, while in-flight uploads get closeTimeout to finish
// decoding before their connections are force-closed. Close is
// idempotent; the TCP listener is closed exactly once (by Shutdown).
func (s *Server) Close() error { return s.shutdown(true) }

// Abort force-closes the server without the graceful drain window:
// listeners and every in-flight connection drop immediately, exactly
// like a crashed process as seen from the network. The cluster chaos
// harness kills nodes with it; production shutdown wants Close.
func (s *Server) Abort() error { return s.shutdown(false) }

func (s *Server) shutdown(graceful bool) error {
	s.closeOnce.Do(func() {
		close(s.closed)
		err := s.hbRx.Close()
		if !graceful {
			if cerr := s.http.Close(); err == nil {
				err = cerr
			}
			s.closeErr = err
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), closeTimeout)
		defer cancel()
		if serr := s.http.Shutdown(ctx); serr != nil {
			// Drain window expired; drop whatever is still in flight.
			s.log.Warn("graceful shutdown incomplete, force-closing", "err", serr)
			cerr := s.http.Close()
			if err == nil {
				err = serr
			}
			_ = cerr
		}
		s.closeErr = err
	})
	return s.closeErr
}

type registerReq struct {
	RouterID string `json:"router_id"`
	Country  string `json:"country"`
}

// Stats summarizes what the server has collected.
type Stats struct {
	Routers    int `json:"routers"`
	Heartbeats int `json:"heartbeats"`
	Uptime     int `json:"uptime"`
	Capacity   int `json:"capacity"`
	Counts     int `json:"device_counts"`
	Sightings  int `json:"device_sightings"`
	WiFi       int `json:"wifi_scans"`
	Flows      int `json:"flows"`
	Throughput int `json:"throughput_samples"`
}

func (s *Server) stats() Stats {
	rc := s.store.RowCounts()
	st := Stats{
		Routers:    rc.Routers,
		Uptime:     rc.Uptime,
		Capacity:   rc.Capacity,
		Counts:     rc.Counts,
		Sightings:  rc.Sightings,
		WiFi:       rc.WiFi,
		Flows:      rc.Flows,
		Throughput: rc.Throughput,
	}
	hb := s.store.HeartbeatLog()
	for _, id := range hb.Routers() {
		st.Heartbeats += hb.Count(id)
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.stats())
}

// Health is the /healthz response: liveness plus enough state to see at
// a glance whether the deployment is actually reporting.
type Health struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	HeartbeatAddr string  `json:"heartbeat_addr"`
	HeartbeatBad  int     `json:"heartbeat_bad_datagrams"`
	HTTPAddr      string  `json:"http_addr"`
	Rows          Stats   `json:"rows"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{
		Status:        "ok",
		UptimeSeconds: time.Since(s.startedAt).Seconds(),
		HeartbeatAddr: s.UDPAddr(),
		HeartbeatBad:  s.hbRx.BadDatagrams(),
		HTTPAddr:      s.HTTPAddr(),
		Rows:          s.stats(),
	}
	select {
	case <-s.closed:
		h.Status = "closing"
	default:
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
}

// Client reports a gateway's measurements to a Server over the network.
// It implements gateway.Sink.
//
// Measurement uploads are spooled, not posted inline: each Sink call
// marshals its payload, stamps it with an idempotency key, and enqueues
// it; the spool's drainer delivers batches to /v1/batch with retries
// under exponential backoff. The Sink methods therefore never block on
// the network and never lose rows to a transient failure — matching the
// firmware, which buffered to flash and uploaded opportunistically.
// Heartbeats stay fire-and-forget UDP by design (a lost heartbeat is
// itself the signal the Heartbeats data set measures).
type Client struct {
	routerID string
	baseURL  string
	hb       *heartbeat.Sender
	httpc    *http.Client
	sp       *spool.Spooler
	rec      *trace.Recorder

	mUploads  *telemetry.CounterVec
	mFailures *telemetry.CounterVec

	wireMode WireMode
	gzipOn   bool
	// binary records whether the server advertised NPB1 support
	// (Accept-Post on the registration response); WireAuto keys off it.
	binary atomic.Bool

	mu       sync.Mutex
	lastErr  error
	window   *trace.Span  // open export-window span, nil outside a window
	attempts []trace.Span // failed delivery attempts since the last ack
	encBuf   []byte       // drainer-owned binary encode buffer, reused per batch
	zipBuf   bytes.Buffer // drainer-owned gzip buffer, reused per batch
}

// maxAttemptSpans bounds the retained failed-attempt history per batch;
// a long outage keeps the first few and most recent failures.
const maxAttemptSpans = 16

// WireMode selects the encoding a Client uses for /v1/batch uploads.
type WireMode int

const (
	// WireAuto (the default) uses the binary encoding when the server
	// advertises it on the registration response, JSON otherwise — new
	// clients against old servers degrade to JSON automatically.
	WireAuto WireMode = iota
	// WireJSON always sends the JSON envelope.
	WireJSON
	// WireBinary always sends NPB1, regardless of advertisement.
	WireBinary
)

// Option tunes a Client.
type Option func(*clientOptions)

type clientOptions struct {
	transport http.RoundTripper
	spool     spool.Config
	wire      WireMode
	gzip      bool
}

// WithWireFormat pins the batch encoding instead of auto-negotiating.
func WithWireFormat(m WireMode) Option {
	return func(o *clientOptions) { o.wire = m }
}

// WithGzip compresses batch request bodies (either encoding). Worth it
// on constrained uplinks; the collector always accepts gzip.
func WithGzip(on bool) Option {
	return func(o *clientOptions) { o.gzip = on }
}

// WithTransport installs a custom HTTP transport (e.g. a
// spool.FaultTransport in reliability tests).
func WithTransport(rt http.RoundTripper) Option {
	return func(o *clientOptions) { o.transport = rt }
}

// WithSpool overrides the upload spool configuration (queue capacity,
// batch size, retry backoff, journal directory).
func WithSpool(cfg spool.Config) Option {
	return func(o *clientOptions) { o.spool = cfg }
}

// flushTimeout bounds how long Close waits for the spool to drain.
const flushTimeout = 1500 * time.Millisecond

// NewClient dials the server. udpAddr receives heartbeats, httpAddr the
// uploads.
func NewClient(routerID, country, udpAddr, httpAddr string, opts ...Option) (*Client, error) {
	var o clientOptions
	for _, opt := range opts {
		opt(&o)
	}
	hb, err := heartbeat.NewSender(routerID, udpAddr)
	if err != nil {
		return nil, err
	}
	reg := telemetry.Default
	c := &Client{
		routerID: routerID,
		baseURL:  "http://" + httpAddr,
		hb:       hb,
		httpc:    &http.Client{Timeout: 10 * time.Second, Transport: o.transport},
		rec:      trace.NewRecorder(trace.Config{Capacity: 256}),
		mUploads: reg.CounterVec("natpeek_client_uploads_total",
			"Upload payloads produced by this process's collector clients, per endpoint.", "endpoint"),
		mFailures: reg.CounterVec("natpeek_client_upload_failures_total",
			"Failed upload delivery attempts, per endpoint.", "endpoint"),
		wireMode: o.wire,
		gzipOn:   o.gzip,
	}
	o.spool.KeyPrefix = routerID
	sp, err := spool.New(o.spool, c.sendBatch)
	if err != nil {
		hb.Close()
		return nil, err
	}
	c.sp = sp
	// Registration is the one synchronous call: a client that cannot
	// reach the server at all should fail construction, not queue. A
	// 429, though, is the server's documented "retry later" signal —
	// admission throttling, or a cluster front fencing the router's
	// shard during a rebalance cutover — so it is retried with the
	// advertised backoff for a bounded window rather than failing a
	// healthy deployment.
	deadline := time.Now().Add(registerRetryWindow)
	for {
		err := c.post("/v1/register", registerReq{RouterID: routerID, Country: country})
		if err == nil {
			break
		}
		var se *statusError
		if errors.As(err, &se) && se.status == http.StatusTooManyRequests && time.Now().Before(deadline) {
			wait := se.retryAfter
			if wait <= 0 || wait > 5*time.Second {
				wait = time.Second
			}
			time.Sleep(wait)
			continue
		}
		sp.Close()
		hb.Close()
		return nil, err
	}
	return c, nil
}

// registerRetryWindow bounds how long NewClient keeps retrying a 429'd
// registration before giving up. Rebalance fencing windows last seconds;
// a throttle that persists for half a minute is a capacity problem the
// caller should see.
const registerRetryWindow = 30 * time.Second

// statusError carries a non-2xx upload response, preserving the status
// code and any Retry-After advice for callers that retry.
type statusError struct {
	path       string
	status     int
	retryAfter time.Duration
	msg        string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("collector: POST %s: status %d: %s", e.path, e.status, e.msg)
}

// Close drains the spool (bounded by flushTimeout), stops the drainer,
// and releases the client's sockets. With a journal configured,
// undrained items survive to the next run; without one they are lost
// after the flush window (counted in natpeek_spool_depth at exit).
func (c *Client) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), flushTimeout)
	defer cancel()
	_ = c.sp.Flush(ctx)
	err := c.sp.Close()
	if herr := c.hb.Close(); err == nil {
		err = herr
	}
	return err
}

// Flush blocks until every spooled upload has been acknowledged by the
// server, or ctx is done.
func (c *Client) Flush(ctx context.Context) error { return c.sp.Flush(ctx) }

// TraceRecorder exposes the client's local flight recorder: the
// gateway-side view of each payload's trace, finished when the server
// acknowledges the batch. Mount it on the gateway's debug listener.
func (c *Client) TraceRecorder() *trace.Recorder { return c.rec }

// SpoolHealth samples the client's upload queues (depth, oldest age)
// for ops surfaces.
func (c *Client) SpoolHealth() []spool.EndpointHealth { return c.sp.Health() }

// BeginExportWindow opens a gateway export window: every payload
// enqueued before EndExportWindow carries a span for the window, so
// traces show how long the gateway's measurement pass took before the
// payload entered the spool. The gateway discovers this method by
// structural assertion, keeping gateway.Sink unchanged. The span's time
// axis is wall-clock like every other span; at is the scheduler's
// notion of the window time (simulated in harness runs) and rides as an
// attribute.
func (c *Client) BeginExportWindow(kind string, at time.Time) {
	if !trace.Enabled() {
		return
	}
	c.mu.Lock()
	c.window = &trace.Span{Name: "gateway.export", Start: time.Now(),
		Attrs: []trace.Attr{{K: "kind", V: kind}, {K: "at", V: at.Format(time.RFC3339)}}}
	c.mu.Unlock()
}

// EndExportWindow closes the current export window.
func (c *Client) EndExportWindow(time.Time) {
	c.mu.Lock()
	c.window = nil
	c.mu.Unlock()
}

// SpoolDepth returns the number of uploads still queued for delivery.
func (c *Client) SpoolDepth() int { return c.sp.Depth() }

// Err returns the most recent upload or heartbeat error, or nil if no
// attempt has failed yet. Uploads stay non-blocking on the measurement
// path (gateway.Sink has no error returns, matching the firmware), and
// failed deliveries are retried by the spool — but the failure is not
// invisible: it lands here and in natpeek_client_upload_failures_total.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastErr
}

func (c *Client) fail(endpoint string, err error) error {
	c.mFailures.With(endpoint).Inc()
	c.mu.Lock()
	c.lastErr = err
	c.mu.Unlock()
	return err
}

// drainBody reads a response body to EOF (bounded) so the keep-alive
// connection can be reused, returning the first bytes for error context.
func drainBody(resp *http.Response) string {
	head, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	io.Copy(io.Discard, resp.Body)
	return strings.TrimSpace(string(head))
}

// post performs one synchronous POST (registration only). The error
// body, if any, is drained before close so the connection is reused.
func (c *Client) post(path string, v any) error {
	c.mUploads.With(path).Inc()
	body, err := json.Marshal(v)
	if err != nil {
		return c.fail(path, err)
	}
	resp, err := c.httpc.Post(c.baseURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return c.fail(path, fmt.Errorf("collector: POST %s: %w", path, err))
	}
	if strings.Contains(resp.Header.Get("Accept-Post"), wire.ContentTypeBinary) {
		c.binary.Store(true)
	}
	msg := drainBody(resp)
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		se := &statusError{path: path, status: resp.StatusCode, msg: msg}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra >= 0 {
			se.retryAfter = time.Duration(ra) * time.Second
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			// Backpressure: counted, retried by the caller, but kept
			// out of Err() — same contract as a throttled batch.
			c.mFailures.With(path).Inc()
			return se
		}
		return c.fail(path, se)
	}
	return nil
}

// sendBatch is the spool's Sender: one POST of a whole batch to
// /v1/batch, JSON or NPB1 per the negotiated wire mode. Any transport
// error or non-2xx status leaves the batch queued; the server's
// idempotency keys make the redelivery safe. On success, per-item
// decode failures from the server's BatchResult come back as the
// spool.Result so malformed payloads dead-letter instead of counting
// as delivered.
func (c *Client) sendBatch(ctx context.Context, items []spool.Item) (spool.Result, error) {
	tracing := trace.Enabled()
	now := time.Now()
	payload := make([]BatchItem, len(items))
	var prior []trace.Span
	if tracing {
		c.mu.Lock()
		prior = append([]trace.Span(nil), c.attempts...)
		c.mu.Unlock()
	}
	for i, it := range items {
		payload[i] = BatchItem{Endpoint: it.Endpoint, Key: it.Key, Body: it.Body}
		if tracing && it.Key != "" {
			w := &trace.Wire{TraceID: trace.IDFromKey(it.Key), Router: c.routerID}
			w.Spans = append(w.Spans, it.Spans...)
			if !it.EnqueuedAt.IsZero() {
				w.Spans = append(w.Spans, trace.Span{Name: "spool.queued", Start: it.EnqueuedAt, End: now})
			}
			w.Spans = append(w.Spans, prior...)
			// Open span: the server sees the in-flight attempt; its own
			// spans bound when the request actually landed.
			w.Spans = append(w.Spans, trace.Span{Name: "spool.send", Start: now,
				Attrs: []trace.Attr{{K: "attempt", V: fmt.Sprint(len(prior) + 1)}}})
			payload[i].Trace = w
		}
	}
	body, contentType, err := c.encodeBatch(payload)
	if err != nil {
		return spool.Result{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		return spool.Result{}, err
	}
	req.Header.Set("Content-Type", contentType)
	if c.gzipOn {
		req.Header.Set("Content-Encoding", "gzip")
	}
	if tracing {
		for i := range payload {
			if payload[i].Trace != nil {
				req.Header.Set("Traceparent", trace.FormatTraceparent(payload[i].Trace.TraceID))
				break
			}
		}
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		c.recordAttempt(now, trace.StatusError, err.Error())
		return spool.Result{}, c.failBatch(items, fmt.Errorf("collector: POST /v1/batch: %w", err))
	}
	if resp.StatusCode >= 300 {
		msg := drainBody(resp)
		resp.Body.Close()
		status := trace.StatusError
		if resp.StatusCode == http.StatusTooManyRequests {
			status = trace.StatusThrottled
		}
		c.recordAttempt(now, status, fmt.Sprintf("status %d", resp.StatusCode))
		berr := fmt.Errorf("collector: POST /v1/batch: status %d: %s", resp.StatusCode, msg)
		if resp.StatusCode == http.StatusTooManyRequests {
			// Backpressure, not failure: the server (or a rebalancing
			// front fencing a moving shard) asked us to come back
			// later, the batch stays queued, and the spool redelivers
			// after backoff. The throttle shows in the failure counter
			// and as a throttled span, but Err() keeps reporting only
			// deliveries that actually put data at risk.
			c.countBatchFailures(items)
			return spool.Result{}, berr
		}
		return spool.Result{}, c.failBatch(items, berr)
	}
	// Read the whole acknowledgment: the BatchResult names any items the
	// server refused as malformed.
	var br BatchResult
	raw, rerr := io.ReadAll(io.LimitReader(resp.Body, maxUploadBytes))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if rerr == nil {
		// A result that fails to parse is treated as all-applied: the
		// batch was acknowledged, and inventing failures would dead-letter
		// healthy rows.
		_ = json.Unmarshal(raw, &br)
	}
	var res spool.Result
	for _, f := range br.Failed {
		res.Malformed = append(res.Malformed, spool.ItemError{Key: f.Key, Reason: f.Reason})
	}
	if tracing {
		c.finishBatchTraces(payload, time.Now())
	}
	return res, nil
}

// encodeBatch renders one batch request body in the client's negotiated
// encoding, applying gzip when configured. The returned buffer is
// drainer-owned and valid until the next call.
func (c *Client) encodeBatch(payload []BatchItem) (body []byte, contentType string, err error) {
	useBinary := c.wireMode == WireBinary || (c.wireMode == WireAuto && c.binary.Load())
	if useBinary {
		wireItems := make([]wire.Item, len(payload))
		for i := range payload {
			wireItems[i] = payload[i].wireItem()
		}
		c.encBuf = wire.AppendBatch(c.encBuf[:0], wireItems)
		body, contentType = c.encBuf, wire.ContentTypeBinary
	} else {
		body, err = json.Marshal(payload)
		if err != nil {
			return nil, "", err
		}
		contentType = "application/json"
	}
	if c.gzipOn {
		c.zipBuf.Reset()
		zw := gzip.NewWriter(&c.zipBuf)
		if _, err := zw.Write(body); err != nil {
			return nil, "", err
		}
		if err := zw.Close(); err != nil {
			return nil, "", err
		}
		body = c.zipBuf.Bytes()
	}
	return body, contentType, nil
}

// recordAttempt remembers one failed delivery attempt; the history rides
// on the next retry's wire spans so the server-assembled trace shows
// every backoff round, and on the client's local trace at ack time.
func (c *Client) recordAttempt(start time.Time, status, detail string) {
	if !trace.Enabled() {
		return
	}
	sp := trace.Span{Name: "spool.attempt", Start: start, End: time.Now(), Status: status,
		Attrs: []trace.Attr{{K: "detail", V: detail}}}
	c.mu.Lock()
	if len(c.attempts) < maxAttemptSpans {
		c.attempts = append(c.attempts, sp)
	} else {
		c.attempts[len(c.attempts)-1] = sp // keep the most recent failure
	}
	c.mu.Unlock()
}

// finishBatchTraces completes the client-side trace for every item the
// server just acknowledged and clears the attempt history.
func (c *Client) finishBatchTraces(payload []BatchItem, end time.Time) {
	c.mu.Lock()
	c.attempts = nil
	c.mu.Unlock()
	for i := range payload {
		w := payload[i].Trace
		if w == nil {
			continue
		}
		t := &trace.Trace{ID: w.TraceID, Router: c.routerID, Endpoint: payload[i].Endpoint}
		t.Spans = append(t.Spans, w.Spans...)
		for j := range t.Spans {
			if t.Spans[j].Name == "spool.send" && t.Spans[j].End.IsZero() {
				t.Spans[j].End = end
			}
		}
		c.rec.Finish(t)
	}
}

func (c *Client) failBatch(items []spool.Item, err error) error {
	c.countBatchFailures(items)
	c.mu.Lock()
	c.lastErr = err
	c.mu.Unlock()
	return err
}

func (c *Client) countBatchFailures(items []spool.Item) {
	seen := make(map[string]bool, 2)
	for _, it := range items {
		if !seen[it.Endpoint] {
			seen[it.Endpoint] = true
			c.mFailures.With(it.Endpoint).Inc()
		}
	}
}

// enqueue spools one measurement payload for background delivery,
// stamping it with the open export-window span when one is active.
func (c *Client) enqueue(path string, v any) {
	c.mUploads.With(path).Inc()
	body, err := json.Marshal(v)
	if err != nil {
		_ = c.fail(path, err)
		return
	}
	var spans []trace.Span
	if trace.Enabled() {
		c.mu.Lock()
		if c.window != nil {
			sp := *c.window
			sp.End = time.Now()
			spans = []trace.Span{sp}
		}
		c.mu.Unlock()
	}
	c.sp.EnqueueSpans(path, body, spans)
}

// Heartbeat implements gateway.Sink. Errors are dropped by design —
// heartbeats are fire-and-forget — but counted.
func (c *Client) Heartbeat(_ string, at time.Time) {
	c.mUploads.With("heartbeat").Inc()
	if err := c.hb.Send(at); err != nil {
		_ = c.fail("heartbeat", err)
	}
}

// UptimeReport implements gateway.Sink.
func (c *Client) UptimeReport(r dataset.UptimeReport) { c.enqueue("/v1/uptime", r) }

// CapacityMeasure implements gateway.Sink.
func (c *Client) CapacityMeasure(m dataset.CapacityMeasure) { c.enqueue("/v1/capacity", m) }

// DeviceCensus implements gateway.Sink.
func (c *Client) DeviceCensus(count dataset.DeviceCount, sightings []dataset.DeviceSighting) {
	c.enqueue("/v1/devices", wire.Census{Count: count, Sightings: sightings})
}

// WiFiScan implements gateway.Sink.
func (c *Client) WiFiScan(scans []dataset.WiFiScan) { c.enqueue("/v1/wifi", scans) }

// TrafficFlows implements gateway.Sink.
func (c *Client) TrafficFlows(flows []dataset.FlowRecord) {
	if len(flows) > 0 {
		c.enqueue("/v1/traffic/flows", flows)
	}
}

// TrafficThroughput implements gateway.Sink.
func (c *Client) TrafficThroughput(samples []dataset.ThroughputSample) {
	if len(samples) > 0 {
		c.enqueue("/v1/traffic/throughput", samples)
	}
}
