package collector

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
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
// enqueues its rows as a typed wire.Payload, which the spool stamps with
// an idempotency key; the spool's drainer delivers batches to /v1/batch,
// encoded once as NPB1, with retries under exponential backoff. The Sink
// methods therefore never block on the network and never lose rows to a
// transient failure — matching the firmware, which buffered to flash and
// uploaded opportunistically.
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

	mu       sync.Mutex
	lastErr  error
	window   *trace.Span  // open export-window span, nil outside a window
	attempts []trace.Span // failed delivery attempts since the last ack
	encBuf   []byte       // drainer-owned NPB1 encode buffer, reused per batch
	batch    []wire.Item  // drainer-owned items of the batch in flight
}

// maxAttemptSpans bounds the retained failed-attempt history per batch;
// a long outage keeps the first few and most recent failures.
const maxAttemptSpans = 16

// Option tunes a Client.
type Option func(*clientOptions)

type clientOptions struct {
	transport http.RoundTripper
	spool     spool.Config
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
	}
	o.spool.KeyPrefix = routerID
	sp, err := spool.New(o.spool, c.sendBatch)
	if err != nil {
		hb.Close()
		return nil, err
	}
	c.sp = sp
	if err := c.register(country); err != nil {
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

// register is the one synchronous call, one upload however many
// attempts it takes: a client that cannot reach the server at all should
// fail construction, not queue. A 429, though, is the server's
// documented "retry later" signal — admission throttling, or a cluster
// front fencing the router's shard during a rebalance cutover — so it is
// retried with the advertised backoff for a bounded window rather than
// failing a healthy deployment. Each 429 counts as a failed attempt but
// stays out of Err(), the same contract as a throttled batch. Error
// bodies are drained before close so the connection is reused.
func (c *Client) register(country string) error {
	const path = "/v1/register"
	c.mUploads.With(path).Inc()
	body, err := json.Marshal(RegisterRequest{RouterID: c.routerID, Country: country})
	if err != nil {
		return c.fail(path, err)
	}
	deadline := time.Now().Add(registerRetryWindow)
	for {
		resp, err := c.httpc.Post(c.baseURL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return c.fail(path, fmt.Errorf("collector: POST %s: %w", path, err))
		}
		msg := drainBody(resp)
		resp.Body.Close()
		if resp.StatusCode < 300 {
			return nil
		}
		serr := fmt.Errorf("collector: POST %s: status %d: %s", path, resp.StatusCode, msg)
		if resp.StatusCode != http.StatusTooManyRequests {
			return c.fail(path, serr)
		}
		c.mFailures.With(path).Inc()
		if !time.Now().Before(deadline) {
			return serr
		}
		wait := time.Second
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 && ra <= 5 {
			wait = time.Duration(ra) * time.Second
		}
		time.Sleep(wait)
	}
}

// sendBatch is the spool's Sender: one POST of a whole batch to
// /v1/batch, encoded as NPB1. Any transport error or non-2xx status
// leaves the batch queued; the server's idempotency keys make the
// redelivery safe. On success, per-item decode failures from the
// server's BatchResult come back as the spool.Result so malformed
// payloads dead-letter instead of counting as delivered.
func (c *Client) sendBatch(ctx context.Context, items []spool.Item) (spool.Result, error) {
	now := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL+"/v1/batch", bytes.NewReader(c.encode(items, now)))
	if err != nil {
		return spool.Result{}, err
	}
	req.Header.Set("Content-Type", wire.ContentTypeBinary)
	for i := range c.batch {
		if w := c.batch[i].Trace; w != nil {
			req.Header.Set("Traceparent", trace.FormatTraceparent(w.TraceID))
			break
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
	c.finishBatchTraces(time.Now())
	return res, nil
}

// encode renders items as one NPB1 batch request body: each spooled
// payload goes to wire.AppendBatch as it was queued, typed, with the
// item's client-side trace when tracing is on. The items (c.batch) and
// the returned buffer are drainer-owned and valid until the next call.
func (c *Client) encode(items []spool.Item, now time.Time) []byte {
	var prior []trace.Span
	tracing := trace.Enabled()
	if tracing {
		c.mu.Lock()
		prior = append([]trace.Span(nil), c.attempts...)
		c.mu.Unlock()
	}
	clear(c.batch) // drop the last batch's rows before reusing the slice
	c.batch = c.batch[:0]
	for i := range items {
		it := &items[i]
		wi := wire.Item{Endpoint: it.Endpoint(), Key: it.Key, Payload: it.Payload}
		if tracing && it.Key != "" {
			// The spans from before the spool, the queue wait, the failed
			// attempts so far, and this attempt's open span: the server's
			// own spans bound when the request actually landed.
			w := &trace.Wire{TraceID: trace.IDFromKey(it.Key), Router: c.routerID,
				Spans: make([]trace.Span, 0, len(it.Spans)+len(prior)+2)}
			w.Spans = append(w.Spans, it.Spans...)
			w.Spans = append(w.Spans, trace.Span{Name: "spool.queued", Start: it.EnqueuedAt, End: now})
			w.Spans = append(w.Spans, prior...)
			w.Spans = append(w.Spans, trace.Span{Name: "spool.send", Start: now,
				Attrs: []trace.Attr{{K: "attempt", V: strconv.Itoa(len(prior) + 1)}}})
			wi.Trace = w
		}
		c.batch = append(c.batch, wi)
	}
	c.encBuf = wire.AppendBatch(c.encBuf[:0], c.batch)
	return c.encBuf
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

// finishBatchTraces completes the client-side trace for every item of
// the batch the server just acknowledged and clears the attempt history.
func (c *Client) finishBatchTraces(end time.Time) {
	c.mu.Lock()
	c.attempts = nil
	c.mu.Unlock()
	for i := range c.batch {
		w := c.batch[i].Trace
		if w == nil {
			continue
		}
		t := &trace.Trace{ID: w.TraceID, Router: c.routerID, Endpoint: c.batch[i].Endpoint}
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
	for i := range items {
		if ep := items[i].Endpoint(); !seen[ep] {
			seen[ep] = true
			c.mFailures.With(ep).Inc()
		}
	}
}

// enqueue spools one measurement payload for background delivery,
// stamping it with the open export-window span when one is active. The
// spool clones p's rows, so the Sink caller keeps its slices. A payload
// holding an instant NPB1 does not carry is dropped here, a failure of
// its endpoint: spooled, its batch would be refused on every resend,
// and every item batched beside it with it.
func (c *Client) enqueue(p wire.Payload) {
	endpoint := p.Kind.Endpoint()
	c.mUploads.With(endpoint).Inc()
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
	if err := wire.CheckTimes(&p, spans); err != nil {
		_ = c.fail(endpoint, err)
		return
	}
	c.sp.EnqueueSpans(p, spans)
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
func (c *Client) UptimeReport(r dataset.UptimeReport) {
	c.enqueue(wire.Payload{Kind: wire.KindUptime, Uptime: r})
}

// CapacityMeasure implements gateway.Sink.
func (c *Client) CapacityMeasure(m dataset.CapacityMeasure) {
	c.enqueue(wire.Payload{Kind: wire.KindCapacity, Capacity: m})
}

// DeviceCensus implements gateway.Sink.
func (c *Client) DeviceCensus(count dataset.DeviceCount, sightings []dataset.DeviceSighting) {
	c.enqueue(wire.Payload{Kind: wire.KindDevices, Count: count, Sightings: sightings})
}

// WiFiScan implements gateway.Sink.
func (c *Client) WiFiScan(scans []dataset.WiFiScan) {
	c.enqueue(wire.Payload{Kind: wire.KindWiFi, WiFi: scans})
}

// TrafficFlows implements gateway.Sink.
func (c *Client) TrafficFlows(flows []dataset.FlowRecord) {
	if len(flows) > 0 {
		c.enqueue(wire.Payload{Kind: wire.KindFlows, Flows: flows})
	}
}

// TrafficThroughput implements gateway.Sink.
func (c *Client) TrafficThroughput(samples []dataset.ThroughputSample) {
	if len(samples) > 0 {
		c.enqueue(wire.Payload{Kind: wire.KindThroughput, Throughput: samples})
	}
}
