// Package spool is the durability layer of the upload pipeline. The
// paper's firmware persisted measurement buffers to flash so uploads
// survived connectivity loss (§3.2.2); this package is the reproduction's
// equivalent: a bounded per-endpoint queue that the collector client
// enqueues into, drained by a background goroutine that batches queued
// payloads into single POSTs and retries under exponential backoff with
// jitter. Rows leave the spool only after the server acknowledges them,
// so transient 5xx responses, timeouts, and collector restarts cost
// retries, not data.
//
// Delivery is at-least-once: every item carries an idempotency key
// (router ID + per-run nonce + sequence number) and the collector dedupes
// replays, so the pipeline as a whole is effectively exactly-once. When a
// queue overflows, the oldest items are dropped and counted in
// natpeek_spool_dropped_total — overload degrades to bounded, observable
// loss instead of unbounded memory growth.
//
// Items hold typed wire.Payloads, never encoded bytes: the sender
// encodes a batch once, as NPB1, and with Config.Dir set the journal
// (journal.go) writes each item as a one-item NPB1 batch, so items
// survive a process restart without a second schema.
package spool

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	mrand "math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"natpeek/internal/telemetry"
	"natpeek/internal/trace"
	"natpeek/internal/wire"
)

// Item is one queued payload awaiting delivery.
type Item struct {
	// Key is the item's idempotency key; the server applies each key at
	// most once, which makes redelivery safe.
	Key string
	// Payload is the item's rows, typed; the spool owns its slices.
	Payload wire.Payload
	// Seq orders items within their endpoint queue (monotonic per run).
	Seq uint64
	// EnqueuedAt timestamps admission into the spool; the drainer turns
	// it into the trace's queue-wait span.
	EnqueuedAt time.Time
	// Spans carries trace history accumulated before the item reached the
	// spool (e.g. the gateway's export-window span). Shipped to the
	// collector with the item so the server can assemble the full trace.
	Spans []trace.Span
}

// Endpoint is the logical upload endpoint the item's payload kind
// serves (e.g. "/v1/uptime"); items queue per endpoint.
func (it *Item) Endpoint() string { return it.Payload.Kind.Endpoint() }

// Sender delivers one batch of items. A nil error acknowledges the whole
// batch; any error leaves every item queued for retry. The context
// carries the per-request timeout. The slice is the drainer's and is
// reused for the next batch: a Sender that keeps items copies them.
//
// The Result distinguishes "applied" from "dropped as malformed": items
// the server acknowledged but could not decode are listed in
// Result.Malformed. They will not be retried (the payload is
// machine-generated, so a decode failure is a bug, not a transient), but
// the spool dead-letters them to Dir/deadletter.jsonl and counts them
// separately from successful sends instead of silently folding them into
// the acknowledged total.
type Sender func(ctx context.Context, items []Item) (Result, error)

// Result is the per-item outcome of one delivered (2xx-acknowledged)
// batch. The zero value means every item was applied or deduplicated.
type Result struct {
	// Malformed lists the items the server rejected as undecodable,
	// keyed by idempotency key.
	Malformed []ItemError
}

// ItemError names one item the server refused, and why.
type ItemError struct {
	Key    string
	Reason string
}

// Config tunes a Spooler. The zero value gets sensible defaults.
type Config struct {
	// KeyPrefix namespaces idempotency keys (normally the router ID).
	KeyPrefix string
	// Capacity bounds each endpoint queue (default 4096 items). On
	// overflow the oldest item is dropped and counted.
	Capacity int
	// MaxBatch bounds how many items one Sender call may carry
	// (default 64).
	MaxBatch int
	// RetryMin/RetryMax bound the exponential backoff between failed
	// delivery attempts (defaults 100ms and 10s). Each wait is jittered
	// uniformly in [wait/2, wait].
	RetryMin time.Duration
	RetryMax time.Duration
	// Timeout bounds each Sender call (default 10s).
	Timeout time.Duration
	// Dir, when non-empty, journals the queue to Dir/spool.journal
	// (CRC'd frames holding one-item NPB1 batches; see journal.go) so
	// undelivered items survive a process restart. New refuses a Dir
	// that still holds a spool.jsonl, the older JSON journal.
	Dir string
}

func (c *Config) fill() {
	if c.Capacity <= 0 {
		c.Capacity = 4096
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.RetryMin <= 0 {
		c.RetryMin = 100 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 10 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
}

// queue is one endpoint's FIFO. Items are strictly seq-ordered; the
// drainer acknowledges deliveries by seq so enqueue/overflow during an
// in-flight batch cannot confuse removal.
type queue struct {
	items []Item
	seq   uint64
	key   string // "prefix:nonce:endpoint:", the items' key before their seq
}

// Spooler owns the per-endpoint queues and the background drainer.
type Spooler struct {
	cfg  Config
	send Sender

	mu      sync.Mutex
	queues  map[string]*queue
	order   []string // endpoint registration order, for fair draining
	depth   int
	nonce   string
	journal *journal
	closed  bool

	wake chan struct{}
	done chan struct{}
	dead chan struct{} // closed when the drainer exits

	mEnqueued  *telemetry.CounterVec
	mSent      *telemetry.CounterVec
	mDropped   *telemetry.CounterVec
	mMalformed *telemetry.CounterVec
	mRetries   *telemetry.Counter
	mBatches   *telemetry.Counter
	gDepth     *telemetry.Gauge
	gDepthVec  *telemetry.GaugeVec
	gOldestAge *telemetry.GaugeVec
	gJournal   *telemetry.Gauge
}

// New starts a spooler whose drainer delivers batches through send. If
// cfg.Dir is set, previously journaled items are recovered into the
// queues before the drainer starts.
func New(cfg Config, send Sender) (*Spooler, error) {
	cfg.fill()
	var nb [4]byte
	_, _ = rand.Read(nb[:])
	reg := telemetry.Default
	s := &Spooler{
		cfg:    cfg,
		send:   send,
		queues: make(map[string]*queue),
		nonce:  hex.EncodeToString(nb[:]),
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
		dead:   make(chan struct{}),
		mEnqueued: reg.CounterVec("natpeek_spool_enqueued_total",
			"Payloads accepted into upload spools, per endpoint.", "endpoint"),
		mSent: reg.CounterVec("natpeek_spool_sent_total",
			"Payloads acknowledged by the collector, per endpoint.", "endpoint"),
		mDropped: reg.CounterVec("natpeek_spool_dropped_total",
			"Payloads dropped on queue overflow (oldest first), per endpoint.", "endpoint"),
		mMalformed: reg.CounterVec("natpeek_spool_malformed_total",
			"Payloads the server acknowledged but rejected as undecodable (dead-lettered, not retried), per endpoint.", "endpoint"),
		mRetries: reg.Counter("natpeek_spool_retries_total",
			"Failed delivery attempts that left the batch queued for retry."),
		mBatches: reg.Counter("natpeek_spool_batches_total",
			"Successfully delivered batches."),
		gDepth: reg.Gauge("natpeek_spool_depth",
			"Payloads currently queued across all spools in this process."),
		gDepthVec: reg.GaugeVec("natpeek_spool_queue_depth",
			"Payloads currently queued, per endpoint.", "endpoint"),
		gOldestAge: reg.GaugeVec("natpeek_spool_oldest_age_seconds",
			"Age of the oldest queued payload, per endpoint (0 when the queue is empty).", "endpoint"),
		gJournal: reg.Gauge("natpeek_spool_journal_bytes",
			"Size of the on-disk spool journal, in bytes (0 without a journal)."),
	}
	if cfg.Dir != "" {
		j, items, err := openJournal(cfg.Dir)
		if err != nil {
			return nil, fmt.Errorf("spool: journal: %w", err)
		}
		s.journal = j
		for _, it := range items {
			s.recover(it)
		}
	}
	s.mu.Lock()
	s.updateHealthLocked(time.Now())
	s.mu.Unlock()
	go s.drain()
	go s.healthLoop()
	return s, nil
}

// healthLoop refreshes the health gauges once a second so oldest-entry
// ages stay current even while the queues are quiet.
func (s *Spooler) healthLoop() {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				return
			}
			s.updateHealthLocked(time.Now())
			s.mu.Unlock()
		case <-s.done:
			return
		}
	}
}

// updateHealthLocked refreshes the per-endpoint depth and oldest-age
// gauges plus the journal size. Callers hold s.mu.
func (s *Spooler) updateHealthLocked(now time.Time) {
	for _, ep := range s.order {
		q := s.queues[ep]
		s.gDepthVec.With(ep).Set(float64(len(q.items)))
		age := 0.0
		if len(q.items) > 0 {
			age = now.Sub(q.items[0].EnqueuedAt).Seconds()
		}
		s.gOldestAge.With(ep).Set(age)
	}
	if s.journal != nil {
		s.gJournal.Set(float64(s.journal.bytes))
	}
}

// EndpointHealth is a point-in-time sample of one endpoint queue, for
// ops surfaces that want live values rather than a metrics scrape.
type EndpointHealth struct {
	Endpoint  string
	Depth     int
	OldestAge time.Duration
}

// Health samples every endpoint queue.
func (s *Spooler) Health() []EndpointHealth {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]EndpointHealth, 0, len(s.order))
	for _, ep := range s.order {
		q := s.queues[ep]
		h := EndpointHealth{Endpoint: ep, Depth: len(q.items)}
		if len(q.items) > 0 {
			h.OldestAge = now.Sub(q.items[0].EnqueuedAt)
		}
		out = append(out, h)
	}
	return out
}

// recover re-queues one journaled item, keeping its original key (so a
// delivery that was acked but not yet compacted stays deduplicable) and
// advancing the endpoint's seq counter past it.
func (s *Spooler) recover(it Item) {
	q := s.queue(it.Endpoint())
	if it.Seq > q.seq {
		q.seq = it.Seq
	}
	it.Seq = q.seq // keep queue strictly ordered even across runs
	q.seq++
	q.items = append(q.items, it)
	s.depth++
	s.gDepth.Add(1)
}

func (s *Spooler) queue(endpoint string) *queue {
	q := s.queues[endpoint]
	if q == nil {
		q = &queue{key: s.cfg.KeyPrefix + ":" + s.nonce + ":" + endpoint + ":"}
		s.queues[endpoint] = q
		s.order = append(s.order, endpoint)
	}
	return q
}

// EnqueueSpans accepts one payload for eventual delivery, queued under
// the endpoint its kind serves. It never blocks: a full queue drops its
// oldest item (counted) to make room. The spool keeps a clone of p, so
// the caller may reuse p's slices once the call returns. Spans
// accumulated before the payload reached the spool (the gateway's
// export-window span) ride along to the collector, which folds them into
// the end-to-end trace; nil carries none.
func (s *Spooler) EnqueueSpans(p wire.Payload, spans []trace.Span) {
	now := time.Now()
	p = p.Clone()
	endpoint := p.Kind.Endpoint()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	q := s.queue(endpoint)
	var key [64]byte
	it := Item{
		Seq:        q.seq,
		Key:        string(strconv.AppendUint(append(key[:0], q.key...), q.seq, 10)),
		Payload:    p,
		EnqueuedAt: now,
		Spans:      spans,
	}
	q.seq++
	if len(q.items) >= s.cfg.Capacity {
		dropped := q.items[0]
		q.items[0] = Item{}
		q.items = q.items[1:]
		s.depth--
		s.gDepth.Add(-1)
		s.mDropped.With(endpoint).Inc()
		if s.journal != nil {
			s.journal.ack(dropped.Key)
		}
	}
	q.items = append(q.items, it)
	s.depth++
	s.gDepth.Add(1)
	s.mEnqueued.With(endpoint).Inc()
	if s.journal != nil {
		s.journal.put(&it)
		s.compactJournalLocked()
	}
	s.updateHealthLocked(now)
	s.mu.Unlock()
	s.kick()
}

func (s *Spooler) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Depth returns the number of queued, unacknowledged items.
func (s *Spooler) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.depth
}

// take appends to out up to MaxBatch items from the queue fronts without
// removing them; items are only removed once the batch is acknowledged.
func (s *Spooler) take(out []Item) []Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ep := range s.order {
		q := s.queues[ep]
		for _, it := range q.items {
			if len(out) >= s.cfg.MaxBatch {
				return out
			}
			out = append(out, it)
		}
	}
	return out
}

// ack removes delivered items. Removal is by sequence number, so items
// that overflowed out of the queue mid-flight are simply not there to
// remove and freshly enqueued items (higher seq) are untouched. Items
// the server reported malformed are removed too — redelivering a payload
// the server cannot decode would retry forever — but they are counted
// apart from successful sends and dead-lettered for post-mortem.
func (s *Spooler) ack(items []Item, res Result) {
	var malformed map[string]string
	if len(res.Malformed) > 0 {
		malformed = make(map[string]string, len(res.Malformed))
		for _, e := range res.Malformed {
			malformed[e.Key] = e.Reason
		}
	}
	maxSeq := make(map[string]uint64, len(items))
	for i := range items {
		it := &items[i]
		ep := it.Endpoint()
		if cur, ok := maxSeq[ep]; !ok || it.Seq > cur {
			maxSeq[ep] = it.Seq
		}
		if reason, bad := malformed[it.Key]; bad {
			s.mMalformed.With(ep).Inc()
			s.deadLetter(it, reason)
			continue
		}
		s.mSent.With(ep).Inc()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for ep, seq := range maxSeq {
		q := s.queues[ep]
		n := 0
		for n < len(q.items) && q.items[n].Seq <= seq {
			if s.journal != nil {
				s.journal.ack(q.items[n].Key)
			}
			n++
		}
		clear(q.items[:n]) // release the delivered rows
		if n == len(q.items) {
			q.items = q.items[:0] // drained: refill the array from here
		} else {
			q.items = q.items[n:]
		}
		s.depth -= n
		s.gDepth.Add(float64(-n))
	}
	s.compactJournalLocked()
	s.updateHealthLocked(time.Now())
}

// compactJournalLocked rewrites the journal from the live queues once
// compactEvery acks have piled up, bounding the file to roughly the live
// queue plus one compaction window. It runs only between whole
// operations, so no item is half-acked when the live set is read; an
// in-flight batch is still queued and is kept. Callers hold s.mu.
func (s *Spooler) compactJournalLocked() {
	j := s.journal
	if j == nil || j.acks < compactEvery || j.err != nil {
		return
	}
	var live []Item
	for _, ep := range s.order {
		live = append(live, s.queues[ep].items...)
	}
	if err := j.rewrite(live); err != nil {
		j.err = err // degrade to in-memory; Close surfaces the error
	}
}

// deadLetterFile collects malformed payloads inside Config.Dir.
const deadLetterFile = "deadletter.jsonl"

// deadLetter journals one malformed item for post-mortem. The row is
// always logged; with Config.Dir set it is also appended to
// Dir/deadletter.jsonl as one JSON line, {at, reason, item}, the item
// with its payload rendered by wire.Payload.JSONBody — the spool's only
// JSON, written for a reader, never read back. A payload JSON cannot
// carry (a NaN, a year past 9999) gets a null body. Only the drainer
// calls this, so the append needs no locking; a write error degrades to
// log-only.
func (s *Spooler) deadLetter(it *Item, reason string) {
	slog.Warn("spool: server rejected payload as malformed, dead-lettering",
		"endpoint", it.Endpoint(), "key", it.Key, "reason", reason)
	if s.cfg.Dir == "" {
		return
	}
	body, _ := it.Payload.JSONBody() // on error, nil: a null body
	type item struct {
		Endpoint   string          `json:"endpoint"`
		Key        string          `json:"key"`
		Body       json.RawMessage `json:"body"`
		Seq        uint64          `json:"seq"`
		EnqueuedAt time.Time       `json:"enqueued_at,omitzero"`
		Spans      []trace.Span    `json:"spans,omitempty"`
	}
	line, err := json.Marshal(struct {
		At     time.Time `json:"at"`
		Reason string    `json:"reason"`
		Item   item      `json:"item"`
	}{time.Now(), reason, item{it.Endpoint(), it.Key, body, it.Seq, it.EnqueuedAt, it.Spans}})
	if err != nil {
		return
	}
	f, err := os.OpenFile(filepath.Join(s.cfg.Dir, deadLetterFile),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		slog.Warn("spool: dead-letter append failed", "err", err)
		return
	}
	_, werr := f.Write(append(line, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		slog.Warn("spool: dead-letter append failed", "err", werr)
	}
}

// drain is the background delivery loop.
func (s *Spooler) drain() {
	defer close(s.dead)
	backoff := s.cfg.RetryMin
	var items []Item // the batch in flight; its array is reused
	for {
		clear(items) // release the last batch's rows
		items = s.take(items[:0])
		if len(items) == 0 {
			select {
			case <-s.wake:
				continue
			case <-s.done:
				// Final sweep: anything enqueued between take and Close.
				if items = s.take(items); len(items) == 0 {
					return
				}
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.Timeout)
		res, err := s.send(ctx, items)
		cancel()
		if err == nil {
			s.ack(items, res)
			s.mBatches.Inc()
			backoff = s.cfg.RetryMin
			continue
		}
		s.mRetries.Inc()
		select {
		case <-time.After(jitter(backoff)):
		case <-s.done:
			return
		}
		if backoff *= 2; backoff > s.cfg.RetryMax {
			backoff = s.cfg.RetryMax
		}
	}
}

// jitter spreads a backoff wait uniformly over [d/2, d] so a fleet of
// gateways does not retry in lockstep after a collector outage.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(mrand.Int63n(int64(half)))
}

// Flush blocks until every queued item has been delivered or ctx is
// done, returning ctx's error in the latter case.
func (s *Spooler) Flush(ctx context.Context) error {
	for {
		if s.Depth() == 0 {
			return nil
		}
		s.kick()
		select {
		case <-ctx.Done():
			return fmt.Errorf("spool: flush: %d items still queued: %w", s.Depth(), ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Close stops the drainer (after at most one in-flight attempt) and
// closes the journal. Undelivered items stay journaled for the next run;
// without a journal they are lost (use Flush first to avoid that).
func (s *Spooler) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.dead
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	<-s.dead
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal != nil {
		return s.journal.close()
	}
	return nil
}
