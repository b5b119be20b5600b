package cluster

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"natpeek/internal/clock"
	"natpeek/internal/collector"
	"natpeek/internal/dataset"
	"natpeek/internal/heartbeat"
	"natpeek/internal/telemetry"
	"natpeek/internal/trace"
	"natpeek/internal/wire"
)

// DefaultReplication is the write replication factor when none is
// configured: every acknowledged write exists on its owner plus one
// successor's journal, so any single node death loses nothing.
const DefaultReplication = 2

// FrontConfig configures a front-tier router.
type FrontConfig struct {
	// ID identifies the front in gossip. Required.
	ID string
	// UDPAddr receives gateway heartbeats (the cluster's heartbeat log
	// lives at the front; nodes hold measurement rows). HTTPAddr serves
	// the client-facing /v1/* API; CtrlAddr the control plane.
	UDPAddr, HTTPAddr, CtrlAddr string
	// Peers seeds discovery (control-plane addresses).
	Peers []string
	// Replication is the write replication factor R: owner + R-1
	// successor journals per acknowledged write, clamped to the live
	// node count. Default DefaultReplication.
	Replication int
	// Gossip tunes the failure detector.
	Gossip GossipConfig
	// MaxInflight caps concurrent data-plane requests at the front
	// (429 + Retry-After beyond it); 0 means collector.DefaultMaxInflight.
	MaxInflight int
}

// Front is the cluster's client-facing tier. It speaks the exact same
// /v1/* + /v1/batch API as a single collector — clients cannot tell the
// difference — and routes every upload by router-ID consistent hash to
// its owning node, replicating each acknowledged write to the R-1
// successor journals before acking. Batches that span routers are split
// per placement group — each item decoded in place and streamed into its
// group's NPB1 — and forwarded with a front.route span appended so
// node-side /debug/traces shows the front→node hop in every waterfall.
type Front struct {
	cfg FrontConfig
	ms  *membership
	gsp *gossiper
	clk clock.Clock
	log *slog.Logger

	hb   *heartbeat.Log
	hbRx *heartbeat.Receiver

	httpSrv *http.Server
	ln      net.Listener
	ctrl    *http.Server
	ctrlLn  net.Listener
	httpc   *http.Client
	rec     *trace.Recorder

	admit chan struct{} // data-plane admission semaphore

	mReqs       *telemetry.CounterVec
	mThrottled  *telemetry.Counter
	mFenced     *telemetry.Counter
	mRouted     *telemetry.CounterVec
	mReplicated *telemetry.CounterVec
	mErrors     *telemetry.CounterVec

	stop    chan struct{}
	wg      sync.WaitGroup
	closeMu sync.Mutex
	closed  bool
}

// NewFront starts a front-tier router.
func NewFront(cfg FrontConfig) (*Front, error) { return newFront(cfg, nil, clock.Real{}) }

// newFront is NewFront with every peer call going through rt (nil: the
// default transport) and all cluster time read from clk.
func newFront(cfg FrontConfig, rt http.RoundTripper, clk clock.Clock) (*Front, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("cluster: front needs an ID")
	}
	if cfg.Replication <= 0 {
		cfg.Replication = DefaultReplication
	}
	cfg.Gossip = cfg.Gossip.withDefaults()
	hb := heartbeat.NewLog()
	hbRx, err := heartbeat.NewReceiver(cfg.UDPAddr, hb, nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: front %s: %w", cfg.ID, err)
	}
	ctrlLn, err := net.Listen("tcp", cfg.CtrlAddr)
	if err != nil {
		hbRx.Close()
		return nil, fmt.Errorf("cluster: front %s: control listen: %w", cfg.ID, err)
	}
	ln, err := net.Listen("tcp", cfg.HTTPAddr)
	if err != nil {
		hbRx.Close()
		ctrlLn.Close()
		return nil, fmt.Errorf("cluster: front %s: listen: %w", cfg.ID, err)
	}
	reg := telemetry.Default
	f := &Front{
		cfg:    cfg,
		log:    slog.Default().With("component", "cluster-front", "front", cfg.ID),
		hb:     hb,
		hbRx:   hbRx,
		ln:     ln,
		ctrlLn: ctrlLn,
		clk:    clk,
		httpc:  &http.Client{Transport: rt},
		rec:    trace.NewRecorder(trace.Config{}),
		mReqs: reg.CounterVec("natpeek_front_requests_total",
			"Front-tier requests received, per endpoint.", "endpoint"),
		mThrottled: reg.CounterVec("natpeek_front_throttled_total",
			"Front-tier requests answered 429, per front.", "front").With(cfg.ID),
		mFenced: reg.CounterVec("natpeek_front_fenced_total",
			"Requests answered 429 because a pending ring epoch is moving their shard, per front.", "front").With(cfg.ID),
		mRouted: reg.CounterVec("natpeek_front_routed_items_total",
			"Batch items routed to an owner node, per node.", "node"),
		mReplicated: reg.CounterVec("natpeek_front_replicated_frames_total",
			"Replicate frames fanned out to successor journals, per node.", "node"),
		mErrors: reg.CounterVec("natpeek_front_errors_total",
			"Front-tier requests failed before a clean ack, per reason.", "reason"),
		stop: make(chan struct{}),
	}
	maxInflight := cfg.MaxInflight
	if maxInflight <= 0 {
		maxInflight = collector.DefaultMaxInflight
	}
	f.admit = make(chan struct{}, maxInflight)
	f.ms = newMembership(Member{
		ID: cfg.ID, Role: RoleFront,
		CtrlAddr:    ctrlLn.Addr().String(),
		DataAddr:    ln.Addr().String(),
		Incarnation: uint64(clk.Now().UnixNano()),
	}, cfg.Gossip)
	f.ms.now = clk.Now
	f.gsp = newGossiper(f.ms, f.httpc, cfg.Peers, f.log)

	ctrlMux := http.NewServeMux()
	ctrlMux.HandleFunc("POST /cluster/gossip", f.gsp.serve)
	ctrlMux.HandleFunc("GET /cluster/members", f.ms.serveMembers)
	f.ctrl = &http.Server{Handler: ctrlMux, ReadHeaderTimeout: 10 * time.Second}
	go f.ctrl.Serve(ctrlLn)

	mux := http.NewServeMux()
	for _, ep := range append(collector.Endpoints(), collector.BatchEndpoint) {
		mux.HandleFunc("POST "+ep, f.instrument(ep, f.handleUpload(ep)))
	}
	mux.HandleFunc("GET /v1/stats", f.handleStats)
	mux.HandleFunc("GET /healthz", f.handleHealthz)
	mux.HandleFunc("POST /v1/cluster/drain", f.handleDrainAdmin)
	mux.HandleFunc("GET /v1/cluster/epoch", f.ms.serveEpoch)
	mux.HandleFunc("GET /cluster/members", f.ms.serveMembers)
	telemetry.RegisterDebug(mux, reg)
	trace.RegisterDebug(mux, f.rec)
	f.httpSrv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go f.httpSrv.Serve(ln)

	f.gsp.learn()
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.gsp.run(f.stop, clk, func() {})
	}()
	f.log.Debug("front up", "http", f.HTTPAddr(), "udp", f.UDPAddr(), "ctrl", f.CtrlAddr())
	return f, nil
}

// HTTPAddr is the client-facing address (point gateways and loadgen
// here instead of at a collector).
func (f *Front) HTTPAddr() string { return f.ln.Addr().String() }

// UDPAddr is the heartbeat address.
func (f *Front) UDPAddr() string { return f.hbRx.Addr().String() }

// CtrlAddr is the control-plane address.
func (f *Front) CtrlAddr() string { return f.ctrlLn.Addr().String() }

// Heartbeats is the cluster-wide heartbeat log (heartbeats terminate at
// the front; measurement rows shard across nodes).
func (f *Front) Heartbeats() *heartbeat.Log { return f.hb }

// View returns the front's judged membership.
func (f *Front) View() []MemberView { return f.ms.view() }

// TraceRecorder exposes the front's recorder (/debug/traces).
func (f *Front) TraceRecorder() *trace.Recorder { return f.rec }

// Close shuts the front down.
func (f *Front) Close() error {
	f.closeMu.Lock()
	if f.closed {
		f.closeMu.Unlock()
		return nil
	}
	f.closed = true
	close(f.stop)
	f.closeMu.Unlock()
	err := f.hbRx.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if serr := f.httpSrv.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	if serr := f.ctrl.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	f.wg.Wait()
	return err
}

// instrument wraps a data-plane handler with the collector's admission
// semantics: a full semaphore answers 429 + Retry-After without
// blocking, and every response advertises the binary batch encoding.
func (f *Front) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	reqs := f.mReqs.With(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		w.Header().Set("Accept-Post", wire.ContentTypeBinary+", application/json")
		select {
		case f.admit <- struct{}{}:
			defer func() { <-f.admit }()
		default:
			f.mThrottled.Inc()
			w.Header().Set("Retry-After", "1")
			http.Error(w, "front saturated, retry later", http.StatusTooManyRequests)
			return
		}
		h(w, r)
	}
}

// splitters pools the splitter that splits uploads at the front and
// indexes and replays journaled frames at a successor.
var splitters = sync.Pool{New: func() any { return new(wire.Splitter) }}

// handleUpload serves /v1/batch and every direct endpoint through one
// path: read the body with the collector's reader, take it as one NPB1
// batch, split it into placement groups, forward each group, answer from
// the summed result. A direct post is a one-item batch from here on — its
// owner sees a /v1/batch request — and is mapped back to 204, or 400 with
// the item's reason, by the same Reply a stand-alone collector answers with.
func (f *Front) handleUpload(endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := f.clk.Now()
		body, err := collector.ReadBody(w, r)
		if err != nil {
			f.mErrors.With("read").Inc()
			return
		}
		defer body.Release()
		sp := splitters.Get().(*wire.Splitter)
		defer splitters.Put(sp)
		batch, err := uploadBatch(endpoint, r.Header.Get("Content-Type"), r.Header.Get("Idempotency-Key"), body.Bytes())
		var placements [][]string
		var fail *forwardFailure
		if err == nil {
			placements, fail, err = f.route(sp, batch, start, f.clk.Now())
		}
		if err != nil {
			f.mErrors.With("decode").Inc()
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var total collector.BatchResult
		for i := 0; fail == nil && i < len(placements); i++ {
			var res collector.BatchResult
			res, fail = f.forward(r.Context(), placements[i], sp.Group(i), r.Header.Get("Traceparent"), start)
			total.Add(res)
		}
		if fail != nil {
			fail.write(w)
			return
		}
		total.Reply(w, endpoint)
	}
}

// uploadBatch returns an upload's items as one NPB1 batch: an NPB1
// /v1/batch body as it came, any other shape — a JSON envelope, a direct
// post — drained through the collector's item source and encoded once,
// so every upload takes the same split.
func uploadBatch(endpoint, contentType, key string, body []byte) ([]byte, error) {
	if endpoint == collector.BatchEndpoint &&
		(contentType == wire.ContentTypeBinary || strings.HasPrefix(contentType, wire.ContentTypeBinary+";")) {
		return body, nil
	}
	src, err := collector.NewItemSource(endpoint, contentType, key, body)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	var items []wire.Item
	var it wire.Item
	for err = src.Next(&it); err == nil; err = src.Next(&it) {
		items = append(items, it)
	}
	if err != io.EOF {
		return nil, err
	}
	return wire.AppendBatch(nil, items), nil
}

// route splits an NPB1 batch into sp's groups, one per replica set (the
// placements, in group order), looking each distinct router up once; with
// tracing on, every keyed item carries a front.route span across the
// hop. A batch that does not decode is the error, judged first. Then the
// whole upload is refused with 503 when the ring is empty, or with a
// fence when ANY item's shard is mid-cutover — partial application would
// ack rows the client has no way to re-send selectively, so the retry
// must land intact after the cutover.
func (f *Front) route(sp *wire.Splitter, batch []byte, start, now time.Time) ([][]string, *forwardFailure, error) {
	ring, pending := f.ms.ring(), f.ms.pendingRing()
	tracing := trace.Enabled()
	var placements [][]string
	var fenced string
	err := sp.Split(batch, routeFallback, func(router string) int {
		if ring.Len() == 0 || fenced != "" {
			return -1
		}
		// A shard is mid-cutover when a pending ring epoch assigns it a
		// different owner than the current ring. Writes for it are
		// answered 429 + Retry-After — applying them at the old owner
		// could race the transfer's extraction (landing after the final
		// sweep and getting stranded), and applying them at the new owner
		// would fork the row set before its history arrives. The client's
		// normal retry loop absorbs the pause; fencing never drops a
		// write. Fencing is deterministic across fronts because the
		// pending ring is built from the proposal's node list alone,
		// unfiltered by local liveness judgements.
		if pending != nil && pending.Owner(router) != ring.Owner(router) {
			fenced = router
			return -1
		}
		placement := ring.Lookup(router, f.cfg.Replication)
		if i := slices.IndexFunc(placements, func(p []string) bool { return slices.Equal(p, placement) }); i >= 0 {
			return i
		}
		var span *trace.Span
		if tracing {
			span = &trace.Span{Name: "front.route", Start: start, End: now, Status: trace.StatusOK, Attrs: []trace.Attr{
				{K: "front", V: f.cfg.ID}, {K: "node", V: placement[0]}, {K: "replicas", V: strconv.Itoa(len(placement) - 1)}}}
		}
		placements = append(placements, placement)
		return sp.NewGroup(span)
	})
	switch {
	case err != nil:
		return nil, nil, err
	case ring.Len() == 0:
		f.mErrors.With("no-nodes").Inc()
		return nil, &forwardFailure{status: http.StatusServiceUnavailable, retryAfter: "1", msg: "no live collector nodes"}, nil
	case fenced != "":
		f.mFenced.Inc()
		return nil, &forwardFailure{status: http.StatusTooManyRequests, retryAfter: "1",
			msg: "shard for router " + fenced + " is rebalancing, retry later"}, nil
	}
	return placements, nil, nil
}

// forwardFailure is a routed request's terminal error: what to tell the
// client so its retry converges.
type forwardFailure struct {
	status     int
	retryAfter string
	msg        string
}

func (fail *forwardFailure) write(w http.ResponseWriter) {
	if fail.retryAfter != "" {
		w.Header().Set("Retry-After", fail.retryAfter)
	}
	http.Error(w, fail.msg, fail.status)
}

// forward delivers one placement group: the NPB1-encoded sub-batch to
// the owner's data plane, then a replicate frame to every successor
// journal. The client is acked only when all R copies exist; any
// failure surfaces as a retryable status and the client's idempotency
// keys flatten whatever did land. Unkeyed items — registration in
// practice — replay as map upserts, so failover cannot duplicate rows
// through them.
func (f *Front) forward(ctx context.Context, placement []string, g *wire.Group, traceparent string, start time.Time) (collector.BatchResult, *forwardFailure) {
	owner, succs := placement[0], placement[1:]
	om, ok := f.ms.lookup(owner)
	if !ok {
		f.mErrors.With("owner-unknown").Inc()
		return collector.BatchResult{}, &forwardFailure{status: http.StatusServiceUnavailable, msg: "owner node unknown"}
	}
	enc := g.Bytes()
	res, err := postBatchBinary(ctx, f.httpc, om.DataAddr, enc, traceparent)
	var answered *postStatus
	switch {
	case err == nil:
	case !errors.As(err, &answered):
		f.mErrors.With("owner-unreachable").Inc()
		return res, &forwardFailure{status: http.StatusServiceUnavailable,
			msg: "owner " + owner + " unreachable: " + err.Error()}
	case answered.code == http.StatusTooManyRequests:
		f.mErrors.With("owner-throttled").Inc()
		return res, &forwardFailure{status: http.StatusTooManyRequests, retryAfter: cmp.Or(answered.retryAfter, "1"),
			msg: "owner " + owner + " saturated: " + answered.msg}
	default:
		f.mErrors.With("owner-error").Inc()
		return res, &forwardFailure{status: http.StatusBadGateway, msg: "owner " + owner + ": " + err.Error()}
	}
	f.mRouted.With(owner).Add(int64(g.Len()))

	for _, succ := range succs {
		sm, ok := f.ms.lookup(succ)
		if !ok {
			f.mErrors.With("replica-unknown").Inc()
			return res, &forwardFailure{status: http.StatusServiceUnavailable, msg: "successor node unknown"}
		}
		if err := postReplicate(f.httpc, sm.CtrlAddr, owner, succs, enc); err != nil {
			f.mErrors.With("replica-unreachable").Inc()
			return res, &forwardFailure{status: http.StatusServiceUnavailable,
				msg: "replica " + succ + ": " + err.Error()}
		}
		f.mReplicated.With(succ).Inc()
	}

	if trace.Enabled() && g.FirstKey() != "" {
		f.rec.Finish(&trace.Trace{
			ID: trace.IDFromKey(g.FirstKey()), Endpoint: collector.BatchEndpoint,
			Router: g.FirstRouter(),
			Spans: []trace.Span{{
				Name: "front.forward", Start: start, End: f.clk.Now(), Status: trace.StatusOK,
				Attrs: []trace.Attr{
					{K: "node", V: owner},
					{K: "items", V: strconv.Itoa(g.Len())},
					{K: "replicas", V: strconv.Itoa(len(succs))},
				},
			}},
		})
	}
	return res, nil
}

// postStatus is a data plane's answer to a batch POST that was not
// 200 + a BatchResult.
type postStatus struct {
	code       int
	retryAfter string
	msg        string
}

func (e *postStatus) Error() string { return fmt.Sprintf("batch post: status %d: %s", e.code, e.msg) }

// postBatchBinary POSTs one NPB1 batch to a data plane and decodes the
// BatchResult: the one /v1/batch request the cluster builds — a front's
// forward, a node's failover replay and the transfer engine are all
// normal binary uploads, so admission control, dedupe, tracing and
// telemetry apply to them unchanged. An error that is not a *postStatus
// means no answer arrived.
func postBatchBinary(ctx context.Context, httpc *http.Client, dataAddr string, batch []byte, traceparent string) (collector.BatchResult, error) {
	var res collector.BatchResult
	resp, body, err := call(ctx, httpc, http.MethodPost, "http://"+dataAddr+"/v1/batch", wire.ContentTypeBinary, traceparent, batch)
	if resp == nil {
		return res, err
	}
	if err == nil && resp.StatusCode == http.StatusOK {
		if err = json.Unmarshal(body, &res); err == nil {
			return res, nil
		}
		body = []byte("bad batch result: " + err.Error())
	}
	return res, &postStatus{code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After"),
		msg: string(bytes.TrimSpace(body))}
}

// postReplicate delivers one forwarded batch, with the placement that
// chose its holders, to a successor's journal.
func postReplicate(httpc *http.Client, ctrlAddr, owner string, succs []string, batch []byte) error {
	_, err := postCtrl(httpc, ctrlAddr, "/cluster/replicate", &Message{
		Kind:      MsgReplicate,
		Replicate: &Replicate{Owner: owner, Successors: succs, Batch: batch},
	}, 30*time.Second)
	return err
}

// handleDrainAdmin is the operator's scale-in entry point:
// POST /v1/cluster/drain?node=<id> relays a MsgDrain to the named
// node's control plane and passes its 202 back. The drain itself runs
// on the node; the operator polls GET /v1/cluster/epoch (here or on any
// front) and stops the process once the epoch without the node commits.
func (f *Front) handleDrainAdmin(w http.ResponseWriter, r *http.Request) {
	f.mReqs.With("/v1/cluster/drain").Inc()
	id := r.URL.Query().Get("node")
	if id == "" {
		http.Error(w, "missing ?node=<id>", http.StatusBadRequest)
		return
	}
	mem, ok := f.ms.lookup(id)
	if !ok || mem.Role != RoleNode {
		http.Error(w, "unknown collector node "+id, http.StatusNotFound)
		return
	}
	if _, err := postCtrl(f.httpc, mem.CtrlAddr, "/cluster/drain",
		&Message{Kind: MsgDrain, Drain: &Drain{Node: id}}, 10*time.Second); err != nil {
		http.Error(w, "drain "+id+": "+err.Error(), http.StatusBadGateway)
		return
	}
	f.log.Info("drain accepted", "node", id)
	w.WriteHeader(http.StatusAccepted)
}

// handleStats aggregates /v1/stats across every live node, plus the
// front's heartbeat log. Routers counts a router once per node that
// holds rows for it — exact while healthy, and at worst a small
// overcount after a failover re-registered routers on a successor;
// dataset row counts are exact either way (keys dedupe rows, and rows
// live on exactly one node).
func (f *Front) handleStats(w http.ResponseWriter, r *http.Request) {
	var total collector.Stats
	for _, mv := range f.ms.view() {
		if mv.Role != RoleNode || mv.State == StateDead {
			continue
		}
		st, err := f.fetchStats(r.Context(), mv.DataAddr)
		if err != nil {
			http.Error(w, "node "+mv.ID+": "+err.Error(), http.StatusBadGateway)
			return
		}
		total.Routers += st.Routers
		total.Heartbeats += st.Heartbeats
		total.Uptime += st.Uptime
		total.Capacity += st.Capacity
		total.Counts += st.Counts
		total.Sightings += st.Sightings
		total.WiFi += st.WiFi
		total.Flows += st.Flows
		total.Throughput += st.Throughput
	}
	for _, id := range f.hb.Routers() {
		total.Heartbeats += f.hb.Count(id)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(total)
}

func (f *Front) fetchStats(ctx context.Context, dataAddr string) (collector.Stats, error) {
	var st collector.Stats
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	resp, body, err := call(ctx, f.httpc, http.MethodGet, "http://"+dataAddr+"/v1/stats", "", "", nil)
	switch {
	case resp == nil:
		return st, err
	case resp.StatusCode != http.StatusOK:
		return st, fmt.Errorf("stats: %s", resp.Status)
	case err != nil:
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

// frontHealth is the front's /healthz shape.
type frontHealth struct {
	Status    string `json:"status"`
	HTTPAddr  string `json:"http_addr"`
	UDPAddr   string `json:"heartbeat_addr"`
	CtrlAddr  string `json:"ctrl_addr"`
	LiveNodes int    `json:"live_nodes"`
	DeadNodes int    `json:"dead_nodes"`
}

func (f *Front) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := frontHealth{Status: "ok", HTTPAddr: f.HTTPAddr(), UDPAddr: f.UDPAddr(), CtrlAddr: f.CtrlAddr()}
	for _, mv := range f.ms.view() {
		if mv.Role != RoleNode {
			continue
		}
		if mv.State == StateDead {
			h.DeadNodes++
		} else {
			h.LiveNodes++
		}
	}
	if h.LiveNodes == 0 {
		h.Status = "no-nodes"
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
}

// routeFallback names the router of an item whose rows name none, as
// the collector places it: a raw payload by the router its JSON body
// names, anything else — and a raw body that names none — by the
// idempotency key's router prefix (every spool and loadgen key starts
// with the router ID). An unroutable item maps to the ring position of
// "" — a constant, so retries land on the same node and still dedupe.
func routeFallback(kind wire.Kind, endpoint string, raw []byte, key string) string {
	if kind == wire.KindRaw {
		if r, _, err := collector.DecodeRaw(endpoint, raw); err == nil && r != "" {
			return r
		}
	}
	return dataset.KeyRouter(key)
}
