package spool

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/telemetry"
	"natpeek/internal/trace"
	"natpeek/internal/wire"
)

// fastRetry keeps test backoffs tiny so retry loops converge quickly.
func fastRetry(cfg Config) Config {
	cfg.RetryMin = time.Millisecond
	cfg.RetryMax = 10 * time.Millisecond
	cfg.Timeout = time.Second
	return cfg
}

// recorder is a Sender that records the batches it acknowledged. fail
// controls whether the next call errors; both are mutex-guarded so the
// test goroutine can flip fail while the drainer delivers.
type recorder struct {
	mu      sync.Mutex
	fail    bool
	calls   int
	batches [][]Item
}

func (r *recorder) send(_ context.Context, items []Item) (Result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls++
	if r.fail {
		return Result{}, errors.New("injected send failure")
	}
	batch := make([]Item, len(items))
	copy(batch, items)
	r.batches = append(r.batches, batch)
	return Result{}, nil
}

func (r *recorder) setFail(v bool) {
	r.mu.Lock()
	r.fail = v
	r.mu.Unlock()
}

// delivered returns the names of every acknowledged item, in order.
func (r *recorder) delivered() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, b := range r.batches {
		for _, it := range b {
			out = append(out, it.Payload.Router())
		}
	}
	return out
}

func (r *recorder) keys() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, b := range r.batches {
		for _, it := range b {
			out = append(out, it.Key)
		}
	}
	return out
}

func mustFlush(t *testing.T, s *Spooler) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
}

var t0 = time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)

// named returns a one-row payload of kind whose router ID is name, so a
// test reads an item's identity back with Payload.Router.
func named(kind wire.Kind, name string) wire.Payload {
	p := wire.Payload{Kind: kind}
	switch kind {
	case wire.KindUptime:
		p.Uptime = dataset.UptimeReport{RouterID: name, ReportedAt: t0, Uptime: time.Hour}
	case wire.KindCapacity:
		p.Capacity = dataset.CapacityMeasure{RouterID: name, MeasuredAt: t0, UpBps: 1e6, DownBps: 8e6}
	case wire.KindWiFi:
		p.WiFi = []dataset.WiFiScan{{RouterID: name, At: t0, Band: "5GHz", Channel: 36}}
	case wire.KindThroughput:
		p.Throughput = []dataset.ThroughputSample{{RouterID: name, Minute: t0, Dir: "down", TotalBytes: 1 << 20}}
	default:
		panic(fmt.Sprintf("named: no test row for kind %d", kind))
	}
	return p
}

// body is the i'th uptime payload, named "item-i".
func body(i int) wire.Payload { return named(wire.KindUptime, name(i)) }

func name(i int) string { return fmt.Sprintf("item-%d", i) }

func TestBatchingAndOrder(t *testing.T) {
	rec := &recorder{}
	s, err := New(fastRetry(Config{KeyPrefix: "r1", MaxBatch: 4}), rec.send)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 10
	for i := 0; i < n; i++ {
		s.EnqueueSpans(body(i), nil)
	}
	mustFlush(t, s)

	got := rec.delivered()
	if len(got) != n {
		t.Fatalf("delivered %d items, want %d: %v", len(got), n, got)
	}
	for i, b := range got {
		if b != name(i) {
			t.Fatalf("delivery out of order at %d: %q", i, b)
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, batch := range rec.batches {
		if len(batch) > 4 {
			t.Fatalf("batch of %d exceeds MaxBatch 4", len(batch))
		}
	}
}

func TestKeysAreUniqueAndPrefixed(t *testing.T) {
	rec := &recorder{}
	s, err := New(fastRetry(Config{KeyPrefix: "router-9"}), rec.send)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.EnqueueSpans(body(0), nil)
	s.EnqueueSpans(body(1), nil)
	s.EnqueueSpans(named(wire.KindWiFi, name(2)), nil)
	mustFlush(t, s)

	seen := make(map[string]bool)
	for _, k := range rec.keys() {
		if !strings.HasPrefix(k, "router-9:") {
			t.Fatalf("key %q missing router prefix", k)
		}
		if seen[k] {
			t.Fatalf("duplicate idempotency key %q", k)
		}
		seen[k] = true
	}
	if len(seen) != 3 {
		t.Fatalf("keys = %d, want 3", len(seen))
	}
}

// TestRetryUntilDelivered proves a failing collector costs retries, not
// rows: every item is eventually acknowledged exactly once.
func TestRetryUntilDelivered(t *testing.T) {
	retriesBefore := retriesCounter().Value()
	rec := &recorder{fail: true}
	s, err := New(fastRetry(Config{KeyPrefix: "r1"}), rec.send)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 5; i++ {
		s.EnqueueSpans(body(i), nil)
	}
	// Let a few delivery attempts fail before the "outage" ends.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec.mu.Lock()
		calls := rec.calls
		rec.mu.Unlock()
		if calls >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drainer never attempted delivery")
		}
		time.Sleep(time.Millisecond)
	}
	rec.setFail(false)
	mustFlush(t, s)

	got := rec.delivered()
	if len(got) != 5 {
		t.Fatalf("delivered %d items, want exactly 5 (no loss, no duplication): %v", len(got), got)
	}
	if d := retriesCounter().Value() - retriesBefore; d < 3 {
		t.Fatalf("natpeek_spool_retries_total advanced by %d, want >= 3", d)
	}
}

func retriesCounter() *telemetry.Counter {
	return telemetry.Default.Counter("natpeek_spool_retries_total",
		"Failed delivery attempts that left the batch queued for retry.")
}

// TestOverflowDropsOldest fills a tiny queue past capacity while the
// sender is down: the newest items must survive, the overflow must be
// counted, and nothing may block.
func TestOverflowDropsOldest(t *testing.T) {
	const endpoint = "/v1/capacity"
	droppedBefore := telemetry.Default.CounterVec("natpeek_spool_dropped_total",
		"Payloads dropped on queue overflow (oldest first), per endpoint.", "endpoint").
		With(endpoint).Value()
	rec := &recorder{fail: true}
	s, err := New(fastRetry(Config{KeyPrefix: "r1", Capacity: 3}), rec.send)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 6; i++ {
		s.EnqueueSpans(named(wire.KindCapacity, name(i)), nil)
	}
	if d := s.Depth(); d != 3 {
		t.Fatalf("depth = %d, want capacity 3", d)
	}
	dropped := telemetry.Default.CounterVec("natpeek_spool_dropped_total",
		"Payloads dropped on queue overflow (oldest first), per endpoint.", "endpoint").
		With(endpoint).Value() - droppedBefore
	if dropped != 3 {
		t.Fatalf("dropped counter advanced by %d, want 3", dropped)
	}

	rec.setFail(false)
	mustFlush(t, s)
	got := rec.delivered()
	// An attempt snapshotted before the overflow may deliver early items,
	// but the tail of the queue — the newest three — must all arrive.
	want := map[string]bool{name(3): true, name(4): true, name(5): true}
	for _, b := range got {
		delete(want, b)
	}
	if len(want) != 0 {
		t.Fatalf("newest items lost after overflow: missing %v, delivered %v", want, got)
	}
}

func TestFlushTimesOutWhileSenderDown(t *testing.T) {
	rec := &recorder{fail: true}
	s, err := New(fastRetry(Config{KeyPrefix: "r1"}), rec.send)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.EnqueueSpans(body(0), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Flush(ctx); err == nil {
		t.Fatal("flush succeeded with the sender down")
	}
	if s.Depth() != 1 {
		t.Fatalf("depth = %d, want 1 (item retained)", s.Depth())
	}
}

func TestEnqueueAfterCloseDroppedAndCloseIdempotent(t *testing.T) {
	rec := &recorder{}
	s, err := New(fastRetry(Config{KeyPrefix: "r1"}), rec.send)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s.EnqueueSpans(body(0), nil)
	if s.Depth() != 0 {
		t.Fatal("enqueue accepted after close")
	}
	if err := s.Close(); err != nil {
		t.Fatal("second close errored:", err)
	}
}

// TestJournalRecovery closes a spooler mid-outage and reopens its
// journal directory: the undelivered items must come back with their
// original idempotency keys (so an acked-but-uncompacted delivery still
// dedupes server-side) and then drain normally.
func TestJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	down := &recorder{fail: true}
	s1, err := New(fastRetry(Config{KeyPrefix: "r1", Dir: dir}), down.send)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s1.EnqueueSpans(body(i), nil)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// The outage outlasts the restart until the depth is read: a drainer
	// that can deliver at once empties the queue before the test looks.
	up := &recorder{fail: true}
	s2, err := New(fastRetry(Config{KeyPrefix: "r1", Dir: dir}), up.send)
	if err != nil {
		t.Fatal(err)
	}
	if d := s2.Depth(); d != 4 {
		t.Fatalf("recovered depth = %d, want 4", d)
	}
	up.setFail(false)
	mustFlush(t, s2)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	got := up.delivered()
	if len(got) != 4 {
		t.Fatalf("delivered %d recovered items, want 4: %v", len(got), got)
	}
	for i, b := range got {
		if b != name(i) {
			t.Fatalf("recovered order broken at %d: %q", i, b)
		}
	}
	// Keys survive the restart verbatim: they embed s1's run nonce, and
	// rewriting them would defeat dedupe of deliveries acked in run 1.
	for _, k := range up.keys() {
		if !strings.Contains(k, s1.nonce) {
			t.Fatalf("recovered key %q lost its original nonce %q", k, s1.nonce)
		}
	}
	// After a clean drain the journal holds no pending items.
	left, err := replay(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("journal still holds %d items after drain", len(left))
	}
}

// TestJournalToleratesTornTail simulates a crash mid-append: the torn
// final frame is dropped, everything before it is recovered.
func TestJournalToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalFile)
	var buf []byte
	for i := 0; i < 3; i++ {
		buf = appendPut(buf, &Item{Key: fmt.Sprintf("k%d", i), Payload: body(i), Seq: uint64(i)})
	}
	buf = appendAck(buf, "k0")
	torn := appendPut(nil, &Item{Key: "k3", Payload: body(3), Seq: 3})
	buf = append(buf, torn[:len(torn)/2]...) // torn mid-write
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	items, err := replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("replayed %d items, want 2 (k0 acked, torn line dropped): %+v", len(items), items)
	}
	if items[0].Key != "k1" || items[1].Key != "k2" {
		t.Fatalf("wrong survivors: %+v", items)
	}
}

// TestConcurrentEnqueueDrain is the -race exercise: many producers
// enqueue while the drainer delivers through a sender that fails
// intermittently. Every item must be acknowledged exactly once.
// TestMalformedDeadLettered pins the applied-vs-malformed distinction:
// an item the server acknowledges but reports undecodable leaves the
// queue (it must not retry forever), is counted under the malformed
// metric rather than sent, and lands in Dir/deadletter.jsonl with its
// body and the server's reason.
func TestMalformedDeadLettered(t *testing.T) {
	dir := t.TempDir()
	// Sends are counted per item, not per call: the drainer may pick up
	// the first enqueue before the others arrive.
	var sends atomic.Int64
	send := func(_ context.Context, items []Item) (Result, error) {
		sends.Add(int64(len(items)))
		var res Result
		for _, it := range items {
			if strings.Contains(it.Payload.Router(), "bad") {
				res.Malformed = append(res.Malformed, ItemError{Key: it.Key, Reason: "decode error: not a row"})
			}
		}
		return res, nil
	}
	s, err := New(fastRetry(Config{KeyPrefix: "r1", Dir: dir}), send)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	sentBefore := telemetry.Default.CounterVec("natpeek_spool_sent_total", "", "endpoint").With("/v1/traffic/throughput").Value()
	malBefore := telemetry.Default.CounterVec("natpeek_spool_malformed_total", "", "endpoint").With("/v1/traffic/throughput").Value()

	s.EnqueueSpans(named(wire.KindThroughput, "good-1"), nil)
	s.EnqueueSpans(named(wire.KindThroughput, "bad-2"), nil)
	s.EnqueueSpans(named(wire.KindThroughput, "good-3"), nil)
	mustFlush(t, s)

	if got := sends.Load(); got != 3 {
		t.Fatalf("sender saw %d items for 3 enqueued; malformed items must not be retried", got)
	}
	if d := s.Depth(); d != 0 {
		t.Fatalf("depth %d after flush, want 0", d)
	}
	sent := telemetry.Default.CounterVec("natpeek_spool_sent_total", "", "endpoint").With("/v1/traffic/throughput").Value() - sentBefore
	mal := telemetry.Default.CounterVec("natpeek_spool_malformed_total", "", "endpoint").With("/v1/traffic/throughput").Value() - malBefore
	if sent != 2 || mal != 1 {
		t.Fatalf("sent=%d malformed=%d, want 2 and 1", sent, mal)
	}

	raw, err := os.ReadFile(filepath.Join(dir, deadLetterFile))
	if err != nil {
		t.Fatalf("dead-letter file: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 1 {
		t.Fatalf("dead-letter lines = %d, want 1:\n%s", len(lines), raw)
	}
	var entry struct {
		Reason string `json:"reason"`
		Item   struct {
			Endpoint string          `json:"endpoint"`
			Key      string          `json:"key"`
			Body     json.RawMessage `json:"body"`
		} `json:"item"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatal(err)
	}
	var rows []dataset.ThroughputSample
	if err := json.Unmarshal(entry.Item.Body, &rows); err != nil {
		t.Fatalf("dead-letter body %s: %v", entry.Item.Body, err)
	}
	if entry.Reason != "decode error: not a row" || entry.Item.Endpoint != "/v1/traffic/throughput" ||
		!strings.HasPrefix(entry.Item.Key, "r1:") || len(rows) != 1 || rows[0].RouterID != "bad-2" {
		t.Fatalf("dead-letter entry wrong: %s", lines[0])
	}
}

func TestConcurrentEnqueueDrain(t *testing.T) {
	var calls atomic.Int64
	var mu sync.Mutex
	delivered := make(map[string]int)
	send := func(_ context.Context, items []Item) (Result, error) {
		if calls.Add(1)%7 == 0 {
			return Result{}, errors.New("intermittent failure")
		}
		mu.Lock()
		for _, it := range items {
			delivered[it.Payload.Router()]++
		}
		mu.Unlock()
		return Result{}, nil
	}
	s, err := New(fastRetry(Config{KeyPrefix: "r1", Capacity: 10000, MaxBatch: 16}), send)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const producers, perProducer = 8, 25
	kinds := []wire.Kind{wire.KindUptime, wire.KindCapacity, wire.KindWiFi, wire.KindThroughput}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				s.EnqueueSpans(named(kinds[(p+i)%len(kinds)], fmt.Sprintf("p%d-i%d", p, i)), nil)
			}
		}(p)
	}
	wg.Wait()
	mustFlush(t, s)

	mu.Lock()
	defer mu.Unlock()
	if len(delivered) != producers*perProducer {
		t.Fatalf("delivered %d distinct items, want %d", len(delivered), producers*perProducer)
	}
	for b, n := range delivered {
		if n != 1 {
			t.Fatalf("item %q acknowledged %d times", b, n)
		}
	}
}

// stubTransport returns 204 for every request and counts them.
type stubTransport struct{ hits atomic.Int64 }

func (s *stubTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s.hits.Add(1)
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusNoContent,
		Body:       io.NopCloser(strings.NewReader("")),
		Header:     make(http.Header),
		Request:    req,
	}, nil
}

func TestFaultTransportInjectsAndPassesThrough(t *testing.T) {
	base := &stubTransport{}
	ft := NewFaultTransport(base, 1.0, 1)
	req, _ := http.NewRequest(http.MethodPost, "http://collector.test/v1/batch", strings.NewReader("x"))
	_, err := ft.RoundTrip(req)
	var inj *ErrInjected
	if !errors.As(err, &inj) {
		t.Fatalf("err = %v, want *ErrInjected", err)
	}
	if inj.URL != "http://collector.test/v1/batch" {
		t.Fatalf("injected URL = %q", inj.URL)
	}
	if base.hits.Load() != 0 {
		t.Fatal("failed request reached the base transport")
	}

	ft.SetFailRate(0)
	req2, _ := http.NewRequest(http.MethodGet, "http://collector.test/healthz", nil)
	resp, err := ft.RoundTrip(req2)
	if err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("pass-through failed: %v %v", resp, err)
	}
	if base.hits.Load() != 1 {
		t.Fatalf("base hits = %d, want 1", base.hits.Load())
	}

	ft.SetBlackout(true)
	if _, err := ft.RoundTrip(req2); err == nil {
		t.Fatal("request survived a blackout")
	}
	ft.SetBlackout(false)
	if _, err := ft.RoundTrip(req2); err != nil {
		t.Fatalf("request failed after blackout lifted: %v", err)
	}
	if got := ft.Injected(); got != 2 {
		t.Fatalf("Injected() = %d, want 2", got)
	}
}

// TestSpoolSurvivesBlackoutViaFaultTransport wires the two fault pieces
// together: a spooler whose sender goes through a FaultTransport in
// blackout keeps everything queued, then drains cleanly when the
// blackout lifts.
func TestSpoolSurvivesBlackoutViaFaultTransport(t *testing.T) {
	base := &stubTransport{}
	ft := NewFaultTransport(base, 0, 1)
	ft.SetBlackout(true)
	httpc := &http.Client{Transport: ft}
	var mu sync.Mutex
	var sent int
	send := func(ctx context.Context, items []Item) (Result, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			"http://collector.test/v1/batch", strings.NewReader("batch"))
		if err != nil {
			return Result{}, err
		}
		resp, err := httpc.Do(req)
		if err != nil {
			return Result{}, err
		}
		resp.Body.Close()
		mu.Lock()
		sent += len(items)
		mu.Unlock()
		return Result{}, nil
	}
	s, err := New(fastRetry(Config{KeyPrefix: "r1"}), send)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 6; i++ {
		s.EnqueueSpans(body(i), nil)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	err = s.Flush(ctx)
	cancel()
	if err == nil {
		t.Fatal("flush succeeded during blackout")
	}
	if ft.Injected() == 0 {
		t.Fatal("no faults injected during blackout")
	}
	ft.SetBlackout(false)
	mustFlush(t, s)
	mu.Lock()
	defer mu.Unlock()
	if sent != 6 {
		t.Fatalf("sent %d items after blackout, want 6", sent)
	}
}

func TestHealthGaugesAndSpans(t *testing.T) {
	rec := &recorder{}
	rec.setFail(true) // hold items in the queue so health is observable
	s, err := New(fastRetry(Config{KeyPrefix: "gw-h", Capacity: 16}), rec.send)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	spans := []trace.Span{{Name: "gateway.export", Start: time.Now().Add(-time.Second), End: time.Now()}}
	s.EnqueueSpans(body(1), spans)
	s.EnqueueSpans(body(2), nil)
	s.EnqueueSpans(named(wire.KindWiFi, name(3)), nil)

	h := s.Health()
	byEp := make(map[string]EndpointHealth)
	for _, e := range h {
		byEp[e.Endpoint] = e
	}
	if byEp["/v1/uptime"].Depth != 2 || byEp["/v1/wifi"].Depth != 1 {
		t.Fatalf("health depths wrong: %+v", h)
	}
	if byEp["/v1/uptime"].OldestAge <= 0 {
		t.Fatalf("oldest age not tracked: %+v", byEp["/v1/uptime"])
	}
	if g := telemetry.Default.GaugeVec("natpeek_spool_queue_depth", "", "endpoint"); g.With("/v1/uptime").Value() != 2 {
		t.Fatalf("depth gauge = %v, want 2", g.With("/v1/uptime").Value())
	}

	// Items carry their enqueue time and prior spans to the sender.
	items := s.take(nil)
	var found *Item
	for i := range items {
		if items[i].Payload.Router() == name(1) {
			found = &items[i]
		}
	}
	if found == nil || found.EnqueuedAt.IsZero() {
		t.Fatalf("EnqueuedAt not stamped: %+v", found)
	}
	if len(found.Spans) != 1 || found.Spans[0].Name != "gateway.export" {
		t.Fatalf("spans not carried: %+v", found.Spans)
	}

	rec.setFail(false)
	mustFlush(t, s)
	if g := telemetry.Default.GaugeVec("natpeek_spool_queue_depth", "", "endpoint"); g.With("/v1/uptime").Value() != 0 {
		t.Fatalf("depth gauge after flush = %v, want 0", g.With("/v1/uptime").Value())
	}
}

func TestJournalBytesGaugeAndSpanRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rec := &recorder{}
	rec.setFail(true)
	s, err := New(fastRetry(Config{KeyPrefix: "gw-j", Dir: dir}), rec.send)
	if err != nil {
		t.Fatal(err)
	}
	spans := []trace.Span{{Name: "gateway.export", Start: time.Unix(100, 0).UTC(), End: time.Unix(101, 0).UTC()}}
	s.EnqueueSpans(body(1), spans)
	if g := telemetry.Default.Gauge("natpeek_spool_journal_bytes", ""); g.Value() <= 0 {
		t.Fatalf("journal bytes gauge = %v, want > 0", g.Value())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Spans and enqueue times survive a restart via the journal.
	s2, err := New(fastRetry(Config{KeyPrefix: "gw-j", Dir: dir}), rec.send)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	items := s2.take(nil)
	if len(items) != 1 {
		t.Fatalf("recovered %d items, want 1", len(items))
	}
	if items[0].EnqueuedAt.IsZero() || len(items[0].Spans) != 1 || items[0].Spans[0].Name != "gateway.export" {
		t.Fatalf("trace context lost across restart: %+v", items[0])
	}
}

// TestRefusesLegacyJournal: a Dir that still holds the JSONL journal of
// an earlier version is refused, naming the file, and left as it was —
// no reader for that format is kept, and starting a second journal
// beside it would strand its rows.
func TestRefusesLegacyJournal(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "spool.jsonl")
	old := []byte(`{"op":"put","item":{"endpoint":"/v1/uptime","key":"k1","body":{"RouterID":"r1"},"seq":1}}` + "\n")
	if err := os.WriteFile(legacy, old, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(fastRetry(Config{KeyPrefix: "r1", Dir: dir}), (&recorder{}).send)
	if err == nil {
		s.Close()
		t.Fatal("New accepted a directory holding a JSONL journal")
	}
	if !strings.Contains(err.Error(), legacy) {
		t.Fatalf("error %q does not name %s", err, legacy)
	}
	if got, err := os.ReadFile(legacy); err != nil || string(got) != string(old) {
		t.Fatalf("legacy journal changed: %q, %v", got, err)
	}
	if _, err := os.Stat(filepath.Join(dir, journalFile)); !os.IsNotExist(err) {
		t.Fatalf("a new journal was started beside the legacy one: %v", err)
	}
}

// TestJournalCompactsFromLiveQueues: once compactEvery acks pile up —
// here every one an overflow drop while the collector is down — the
// journal is rewritten from the queues in memory, so the file shrinks to
// exactly the live items' puts, and a restart recovers just those.
func TestJournalCompactsFromLiveQueues(t *testing.T) {
	dir := t.TempDir()
	down := &recorder{fail: true}
	s, err := New(fastRetry(Config{KeyPrefix: "r1", Capacity: 4, Dir: dir}), down.send)
	if err != nil {
		t.Fatal(err)
	}
	s.EnqueueSpans(named(wire.KindWiFi, "wifi-0"), nil)
	for i := 0; i < compactEvery+4; i++ {
		s.EnqueueSpans(body(i), nil)
	}
	live := s.take(nil)
	var want []string
	var size int64
	for i := range live {
		want = append(want, live[i].Payload.Router())
		size += int64(len(appendPut(nil, &live[i])))
	}
	if fi, err := os.Stat(filepath.Join(dir, journalFile)); err != nil || fi.Size() != size {
		t.Fatalf("journal after compaction: %v, %v; want the %d live puts' %d bytes", fi.Size(), err, len(live), size)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(fastRetry(Config{KeyPrefix: "r1", Capacity: 4, Dir: dir}), down.send)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var got []string
	for _, it := range s2.take(nil) {
		got = append(got, it.Payload.Router())
	}
	if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(want) != fmt.Sprint([]string{"wifi-0",
		name(compactEvery), name(compactEvery + 1), name(compactEvery + 2), name(compactEvery + 3)}) {
		t.Fatalf("recovered %v, want the live %v", got, want)
	}
}
