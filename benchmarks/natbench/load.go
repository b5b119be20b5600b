package main

// The load driver: closed- and open-loop delivery of pre-encoded ops
// over real loopback HTTP, one keep-alive connection per client.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"natpeek/internal/collector"
	"natpeek/internal/dataset"
)

const (
	maxAttempts  = 5
	retryBackoff = 20 * time.Millisecond
)

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}
}

// phase describes one timed delivery phase.
type phase struct {
	ops      []op
	rate     float64       // offered rows/s; 0 means closed loop
	dur      time.Duration // open loop: how long to offer; closed loop: 0 sends every op
	clients  int
	postSpan string // span name for a batch POST, e.g. "collector.post_batch"
}

// phaseResult is what one phase observed.
type phaseResult struct {
	elapsed time.Duration
	cpu     time.Duration // process CPU (user+system) over the phase

	attempted, failed int // ops, redeliveries included
	ackedRows         int
	acked             dataset.RowCounts // rows of acked first deliveries
	retries           int
	throttled         int

	batchMs  []float64 // per batch POST: from due time (open) or send (closed) to ack
	directMs []float64 // per direct JSON POST
	lateMs   []float64 // open loop: how far past its due time a sleeping client woke
	behindMs []float64 // open loop: send start minus due time, every op (the system's backlog shows here)
	starts   []float64 // ms since phase start, per entry of batchMs
	markers  []markerAck
}

// markerAck is when a figures-live freshness marker was acknowledged.
type markerAck struct {
	index int
	at    time.Time
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type sendOutcome struct {
	res       collector.BatchResult
	ok        bool
	retries   int
	throttled int
}

// attempt is one HTTP exchange.
type attempt struct {
	status     int
	body       []byte
	retryAfter string
	err        error
}

func sendAttempt(ctx context.Context, hc *http.Client, base string, o *op) attempt {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return attempt{err: err}
	}
	req.Header.Set("Content-Type", o.contentType)
	if o.key != "" {
		req.Header.Set("Idempotency-Key", o.key)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return attempt{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return attempt{status: resp.StatusCode, body: body, retryAfter: resp.Header.Get("Retry-After"), err: err}
}

// send delivers one op with the retry policy: transport errors, 5xx and
// 429 are retried (429 honouring Retry-After); anything else non-2xx is
// final.
func send(ctx context.Context, hc *http.Client, base string, o *op) sendOutcome {
	var out sendOutcome
	for n := 0; n < maxAttempts && ctx.Err() == nil; n++ {
		if n > 0 {
			out.retries++
		}
		a := sendAttempt(ctx, hc, base, o)
		switch {
		case a.err != nil || a.status >= 500:
			time.Sleep(retryBackoff)
		case a.status == http.StatusTooManyRequests:
			out.throttled++
			wait := retryBackoff
			if s, err := strconv.Atoi(a.retryAfter); err == nil && s > 0 {
				wait = time.Duration(s) * time.Second
			}
			time.Sleep(wait)
		case a.status/100 != 2:
			return out
		case o.path != "/v1/batch":
			out.ok = true
			return out
		default:
			out.ok = json.Unmarshal(a.body, &out.res) == nil
			return out
		}
	}
	return out
}

// runPhase drives ph against base and returns what it saw. Spans, when
// tr is non-nil, hang off one root per client.
func runPhase(ctx context.Context, base string, ph phase, tr *tracer) *phaseResult {
	var due []time.Duration
	n := len(ph.ops)
	res := &phaseResult{}
	if ph.rate > 0 {
		due = make([]time.Duration, len(ph.ops))
		rows := 0
		for i := range ph.ops {
			due[i] = time.Duration(float64(rows) / ph.rate * float64(time.Second))
			if due[i] >= ph.dur {
				n = i
				break
			}
			rows += ph.ops[i].rows
		}
	}
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	cpu0 := cpuTime()
	t0 := time.Now()
	for c := 0; c < ph.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := &client{ctx: ctx, hc: newHTTPClient(), base: base, postSpan: ph.postSpan,
				tr: tr, root: tr.start("loadgen.client", 0), t0: t0}
			defer local.hc.CloseIdleConnections()
			defer tr.end(local.root)
			defer func() {
				mu.Lock()
				res.merge(&local.phaseResult)
				mu.Unlock()
			}()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				o := &ph.ops[i]
				from := time.Now()
				if ph.rate > 0 {
					dueAt := t0.Add(due[i])
					// A client that is free before the due time sleeps, and the
					// clock starts when it wakes: how late that is, is the
					// generator's own error, reported apart. One that arrives
					// late was held up by the system, and its clock runs from
					// the due time, so the wait a stall imposes on later
					// requests counts.
					if wait := time.Until(dueAt); wait > 0 {
						tr.in("loadgen.wait", local.root, func(int) { time.Sleep(wait) })
						from = time.Now()
						local.lateMs = append(local.lateMs, ms(from.Sub(dueAt)))
					} else {
						from = dueAt
					}
					local.behindMs = append(local.behindMs, ms(time.Since(dueAt)))
				}
				local.deliver(o, from)
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(t0)
	res.cpu = cpuTime() - cpu0
	return res
}

// client is one load-generating goroutine: its connection, its root
// span, and what it has seen so far.
type client struct {
	ctx      context.Context
	hc       *http.Client
	base     string
	postSpan string
	tr       *tracer
	root     int
	t0       time.Time // phase start
	phaseResult
}

// deliver sends one op (and its redelivery, if flagged) and books the
// outcome. from is when the op's latency clock started.
func (r *client) deliver(o *op, from time.Time) {
	name := r.postSpan
	if o.path != "/v1/batch" {
		name = "collector.post_json"
	}
	id := r.tr.start(name, r.root)
	out := send(r.ctx, r.hc, r.base, o)
	r.tr.end(id)
	lat := ms(time.Since(from))
	r.attempted++
	r.retries += out.retries
	r.throttled += out.throttled
	// A retried first delivery may have been applied by the attempt
	// whose ack was lost, so applied+duplicates is what must add up.
	if !out.ok || (o.path == "/v1/batch" && (out.res.Applied+out.res.Duplicates != o.items || out.res.Rejected != 0 ||
		(out.retries == 0 && out.res.Duplicates != 0))) {
		r.failed++
		return
	}
	r.ackedRows += o.rows
	r.acked = sumCounts(r.acked, o.counts)
	if o.path == "/v1/batch" {
		r.batchMs = append(r.batchMs, lat)
		r.starts = append(r.starts, ms(from.Sub(r.t0)))
	} else {
		r.directMs = append(r.directMs, lat)
	}
	if o.marker > 0 {
		r.markers = append(r.markers, markerAck{o.marker, time.Now()})
	}
	if !o.redeliver {
		return
	}
	id = r.tr.start("collector.post_dup", r.root)
	dup := send(r.ctx, r.hc, r.base, o)
	r.tr.end(id)
	r.attempted++
	r.retries += dup.retries
	r.throttled += dup.throttled
	if !dup.ok || dup.res.Applied != 0 || dup.res.Duplicates != o.items {
		r.failed++ // a redelivery that was not refused whole duplicated rows
	}
}

// merge adds o to r: a client's share to its phase's result, or one
// phase to the sum of several (their lengths and CPU add up).
func (r *phaseResult) merge(o *phaseResult) {
	r.elapsed += o.elapsed
	r.cpu += o.cpu
	r.attempted += o.attempted
	r.failed += o.failed
	r.ackedRows += o.ackedRows
	r.acked = sumCounts(r.acked, o.acked)
	r.retries += o.retries
	r.throttled += o.throttled
	r.batchMs = append(r.batchMs, o.batchMs...)
	r.directMs = append(r.directMs, o.directMs...)
	r.lateMs = append(r.lateMs, o.lateMs...)
	r.behindMs = append(r.behindMs, o.behindMs...)
	r.starts = append(r.starts, o.starts...)
	r.markers = append(r.markers, o.markers...)
}

func (r *phaseResult) rowsPerSec() float64 {
	return float64(r.ackedRows) / r.elapsed.Seconds()
}

func (r *phaseResult) cpuPerMrow() float64 {
	return r.cpu.Seconds() / (float64(r.ackedRows) / 1e6)
}

// registerFleet registers the synthetic routers (spread over the study's
// countries so the per-group exhibits have both groups to compare) and
// returns how many it registered.
func registerFleet(ctx context.Context, base string, countries []string) (int, error) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	for i := 0; i < fleetRouters; i++ {
		if err := register(ctx, hc, base, routerID(i), countries[i%len(countries)]); err != nil {
			return i, err
		}
	}
	return fleetRouters, nil
}

// registerOp is the upload that adds one router to the roster.
func registerOp(id, country string) (op, error) {
	body, err := json.Marshal(struct {
		RouterID string `json:"router_id"`
		Country  string `json:"country"`
	}{id, country})
	return op{path: "/v1/register", contentType: "application/json", body: body,
		items: 1, counts: dataset.RowCounts{Routers: 1}}, err
}

func register(ctx context.Context, hc *http.Client, base, id, country string) error {
	o, err := registerOp(id, country)
	if err != nil {
		return err
	}
	if out := send(ctx, hc, base, &o); !out.ok {
		return fmt.Errorf("register %s: not acknowledged", id)
	}
	return nil
}
