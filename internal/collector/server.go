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
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/heartbeat"
	"natpeek/internal/rng"
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
			"Upload items ingested (batch items and direct posts), per logical endpoint.", "endpoint"),
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
	for _, path := range append(Endpoints(), BatchEndpoint) {
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
