package collector

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/heartbeat"
	"natpeek/internal/spool"
	"natpeek/internal/telemetry"
	"natpeek/internal/trace"
	"natpeek/internal/wire"
)

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
