package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"natpeek/internal/collector"
	"natpeek/internal/dataset"
	"natpeek/internal/telemetry"
	"natpeek/internal/wire"
)

// ctrlContentType is the media type of NPC1 control-plane requests.
const ctrlContentType = "application/x-natpeek-ctrl"

// ctrlMaxBody bounds control-plane request bodies. Replicate frames
// carry at most one data-plane batch (8 MiB) plus framing; gossip and
// manifests are far smaller.
const ctrlMaxBody = 9 << 20

// NodeConfig configures one cluster collector node.
type NodeConfig struct {
	// ID is the node's stable identity on the hash ring. Required.
	ID string
	// UDPAddr/HTTPAddr are the wrapped collector's listen addresses
	// (the data plane); CtrlAddr is the control plane's. Use
	// "127.0.0.1:0" style addresses for ephemeral ports.
	UDPAddr, HTTPAddr, CtrlAddr string
	// Peers seeds discovery: control-plane addresses of any existing
	// members. Empty for the first node of a cluster.
	Peers []string
	// Gossip tunes the anti-entropy exchange and failure detector.
	Gossip GossipConfig
	// Store, when non-nil, is ingested into instead of a fresh one.
	Store dataset.IngestStore
	// MaxInflight caps concurrent data-plane uploads (collector
	// SetMaxInflight semantics); 0 keeps the collector default.
	MaxInflight int
	// Joining starts the node outside the routing ring: it gossips (so
	// peers learn its addresses) but owns nothing until JoinRing
	// commits the epoch that includes it. Scale-out always sets this —
	// a new node that silently appeared in the membership-derived ring
	// would take writes for shards whose history lives elsewhere.
	Joining bool
}

// Node is one cluster member: a full collector server (the data plane,
// untouched semantics — admission control, dedupe, tracing) plus the
// control plane that makes it a cluster: gossip membership, a
// replication journal for batches it is a successor for, key manifests
// for rejoining peers, and failover replay when an owner dies.
type Node struct {
	cfg NodeConfig
	srv *collector.Server
	ms  *membership
	log *slog.Logger

	ctrl   *http.Server
	ctrlLn net.Listener
	httpc  *http.Client

	mu sync.Mutex
	// journal holds replicate frames this node accepted as a successor:
	// raw NPB1 batch bytes plus the placement that chose this node. On
	// an owner's death the first live successor replays the bytes into
	// its own collector; idempotency keys make replays converge.
	journal     []*journalEntry
	journalSeen map[uint64]bool
	// ownerKeys indexes every idempotency key this node applied, per
	// router — the source for the manifests a rejoining node seeds its
	// dedupe index from.
	ownerKeys map[string]map[string]bool
	// Journaled frames' keys are indexed per entry (journalEntry.keys):
	// manifests serve a frame's keys only while its owner still holds
	// the rows (or after the replay landed them somewhere) — serving
	// them for a dead owner's unreplayed frame would seed the replay
	// destination's dedupe index with keys whose rows exist nowhere yet,
	// and the replay itself would then flatten to duplicates and lose
	// the rows.
	// routerGate tracks the first-write check per router (see gateRouter):
	// each router's first keyed write since process start blocks until
	// this node has pulled that router's applied keys from its live
	// peers, so a write applied elsewhere while ownership was in flux is
	// recognized as a duplicate rather than re-applied.
	routerGate map[string]chan struct{}

	gsp *gossiper

	// xferMu serializes extract-and-send transfer sessions (a drain and
	// an inbound transfer request must not interleave extracts).
	xferMu   sync.Mutex
	xferSess atomic.Uint64
	draining atomic.Bool

	mJournalFrames *telemetry.Counter
	gJournalBytes  *telemetry.Gauge
	mReplayed      *telemetry.Counter
	mReplayRows    *telemetry.Counter
	mXferRows      *telemetry.Counter
	mXferKeys      *telemetry.Counter
	gEpoch         *telemetry.Gauge

	stop    chan struct{}
	wg      sync.WaitGroup
	closeMu sync.Mutex
	closed  bool
}

type journalEntry struct {
	owner string
	succs []string
	items int
	batch []byte
	// ownerInc is the owner's incarnation when the frame was journaled
	// (0 if the owner was unknown then). A later incarnation means the
	// owner restarted — its in-memory store died with the old life, so
	// the frame's rows exist only in journals and must replay even
	// though the owner looks alive again.
	ownerInc uint64
	// succIncs mirrors succs with each successor's incarnation at
	// journal time (0 if unknown). The first-live-successor walk skips
	// a successor whose incarnation changed: its journal died with its
	// previous life, so it cannot replay the frame it "holds".
	succIncs []uint64
	// keys are the frame's keyed items per router, recorded at journal
	// time so manifests can serve (or withhold) them per frame.
	keys     map[string][]string
	replayed bool
}

// ownerHoldsRows reports whether the frame's rows are still believed to
// live at the journaled owner: the owner is not judged dead and has not
// been reborn under a new incarnation. Mirrors the replayScan verdict.
func (e *journalEntry) ownerHoldsRows(state map[string]State, incs map[string]uint64) bool {
	st, known := state[e.owner]
	if known && st == StateDead {
		return false
	}
	if e.ownerInc != 0 && known && incs[e.owner] != e.ownerInc {
		return false
	}
	return true
}

// NewNode starts a cluster node: collector listeners, control-plane
// listener, a learn-only join against the seed peers, the key-manifest
// pull that seeds its dedupe index (so retries of writes applied during
// a previous life or a dead window are recognized as duplicates), and
// the gossip loop. The node is invisible to peers until the manifests
// are seeded — it never takes a write it could mistake for new.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("cluster: node needs an ID")
	}
	cfg.Gossip = cfg.Gossip.withDefaults()
	srv, err := collector.NewServer(cfg.UDPAddr, cfg.HTTPAddr, cfg.Store)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %s: %w", cfg.ID, err)
	}
	if cfg.MaxInflight > 0 {
		srv.SetMaxInflight(cfg.MaxInflight)
	}
	ln, err := net.Listen("tcp", cfg.CtrlAddr)
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("cluster: node %s: control listen: %w", cfg.ID, err)
	}
	reg := telemetry.Default
	n := &Node{
		cfg:         cfg,
		srv:         srv,
		log:         slog.Default().With("component", "cluster-node", "node", cfg.ID),
		ctrlLn:      ln,
		httpc:       &http.Client{},
		journalSeen: make(map[uint64]bool),
		ownerKeys:   make(map[string]map[string]bool),
		routerGate:  make(map[string]chan struct{}),
		mJournalFrames: reg.CounterVec("natpeek_cluster_journal_frames_total",
			"Replicate frames journaled as a successor, per node.", "node").With(cfg.ID),
		gJournalBytes: reg.GaugeVec("natpeek_cluster_journal_bytes",
			"Raw NPB1 bytes held in the replication journal, per node.", "node").With(cfg.ID),
		mReplayed: reg.CounterVec("natpeek_cluster_replayed_frames_total",
			"Journaled frames replayed after an owner died, per node.", "node").With(cfg.ID),
		mReplayRows: reg.CounterVec("natpeek_cluster_replayed_items_total",
			"Batch items applied by failover replays, per node.", "node").With(cfg.ID),
		mXferRows: reg.CounterVec("natpeek_cluster_transfer_rows_total",
			"Rows streamed to new owners by planned rebalancing, per node.", "node").With(cfg.ID),
		mXferKeys: reg.CounterVec("natpeek_cluster_transfer_keys_total",
			"Idempotency keys pushed to new owners by planned rebalancing, per node.", "node").With(cfg.ID),
		gEpoch: reg.GaugeVec("natpeek_cluster_ring_epoch",
			"Highest ring-epoch version this node has seen, per node.", "node").With(cfg.ID),
		stop: make(chan struct{}),
	}
	// Incarnation is the start instant: any restart of the same ID
	// supersedes its previous life in every peer's member table.
	n.ms = newMembership(Member{
		ID: cfg.ID, Role: RoleNode,
		CtrlAddr:    ln.Addr().String(),
		DataAddr:    srv.HTTPAddr(),
		Incarnation: uint64(time.Now().UnixNano()),
		Joining:     cfg.Joining,
	}, cfg.Gossip)
	n.gsp = newGossiper(cfg.ID, n.ms, n.httpc, cfg.Peers, n.log)

	srv.SetIngestObserver(n.observeIngest)
	srv.SetIngestGate(n.gateRouter)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/gossip", n.handleGossip)
	mux.HandleFunc("POST /cluster/replicate", n.handleReplicate)
	mux.HandleFunc("POST /cluster/manifest", n.handleManifest)
	mux.HandleFunc("POST /cluster/transfer", n.handleTransfer)
	mux.HandleFunc("POST /cluster/transferkeys", n.handleTransferKeys)
	mux.HandleFunc("POST /cluster/drain", n.handleDrain)
	mux.HandleFunc("GET /cluster/members", n.ms.serveMembers)
	mux.HandleFunc("GET /cluster/epoch", n.ms.serveEpoch)
	n.ctrl = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go n.ctrl.Serve(ln)

	n.join()
	// The node's heartbeat: bump our beat, exchange tables with a random
	// live peer, and scan the journal for frames orphaned by a dead owner.
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.gsp.run(n.stop, cfg.Gossip.Interval, n.replayScan)
	}()
	n.log.Debug("node up", "data", n.DataAddr(), "ctrl", n.CtrlAddr())
	return n, nil
}

// ID returns the node's ring identity.
func (n *Node) ID() string { return n.cfg.ID }

// DataAddr is the wrapped collector's HTTP address.
func (n *Node) DataAddr() string { return n.srv.HTTPAddr() }

// CtrlAddr is the control-plane HTTP address.
func (n *Node) CtrlAddr() string { return n.ctrlLn.Addr().String() }

// UDPAddr is the wrapped collector's heartbeat address.
func (n *Node) UDPAddr() string { return n.srv.UDPAddr() }

// Collector exposes the wrapped server (tests, stats).
func (n *Node) Collector() *collector.Server { return n.srv }

// Store returns a merged snapshot of this node's shard of the data.
func (n *Node) Store() *dataset.Store { return n.srv.Store() }

// View returns the node's judged membership.
func (n *Node) View() []MemberView { return n.ms.view() }

// JournalStats reports the replication journal's size: frames held,
// raw NPB1 bytes, and how many frames have been replayed by failover.
func (n *Node) JournalStats() (frames, bytes, replayed int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, e := range n.journal {
		frames++
		bytes += len(e.batch)
		if e.replayed {
			replayed++
		}
	}
	return
}

// Close shuts the node down gracefully (drains in-flight uploads).
func (n *Node) Close() error { return n.shutdown(true) }

// Kill force-closes everything immediately — the chaos harness's
// process crash. In-flight uploads drop mid-request, the journal and
// store die with the process (the test discards the Node), and peers
// find out the hard way, via the failure detector.
func (n *Node) Kill() error { return n.shutdown(false) }

func (n *Node) shutdown(graceful bool) error {
	n.closeMu.Lock()
	if n.closed {
		n.closeMu.Unlock()
		return nil
	}
	n.closed = true
	close(n.stop)
	n.closeMu.Unlock()

	var err error
	if graceful {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		err = n.ctrl.Shutdown(ctx)
		cancel()
		if cerr := n.srv.Close(); err == nil {
			err = cerr
		}
	} else {
		err = n.ctrl.Close()
		if cerr := n.srv.Abort(); err == nil {
			err = cerr
		}
	}
	n.wg.Wait()
	return err
}

// observeIngest runs on the collector's ingest path for every keyed
// decision and records applied keys per router. Only the map insert is
// under the node lock; manifests read the same index.
func (n *Node) observeIngest(_, key, router string, applied bool) {
	if key == "" || !applied {
		return
	}
	n.mu.Lock()
	ks := n.ownerKeys[router]
	if ks == nil {
		ks = make(map[string]bool)
		n.ownerKeys[router] = ks
	}
	ks[key] = true
	n.mu.Unlock()
}

// gateRouter runs before every keyed apply (the collector's ingest
// gate) and blocks a router's first keyed write since process start
// until this node has pulled the router's applied keys from its live
// peers. This closes the duplicate window the join-time bulk pull
// cannot: a batch partially applied at an interim owner while this
// node's ownership was in flux, then retried here after routing
// flipped. The interim apply necessarily precedes the routing flip,
// which precedes the first write arriving here — so a pull at first
// write always observes it. Later writes for the router pass straight
// through; the whole check costs one targeted manifest RPC per router
// per process lifetime.
func (n *Node) gateRouter(router string) {
	n.mu.Lock()
	done, ok := n.routerGate[router]
	if ok {
		n.mu.Unlock()
		<-done
		return
	}
	done = make(chan struct{})
	n.routerGate[router] = done
	n.mu.Unlock()
	n.seedRouterKeys(router)
	close(done)
}

// seedRouterKeys pulls one router's applied-or-journaled keys from
// every live peer node and seeds the local dedupe index. Best effort
// per peer: a peer that cannot answer is skipped (its copy of an acked
// write is also in a journal, and an unacked write will be retried by
// the client either way).
func (n *Node) seedRouterKeys(router string) {
	var donors []Member
	for _, mv := range n.ms.view() {
		if mv.Role == RoleNode && mv.State != StateDead && mv.ID != n.cfg.ID {
			donors = append(donors, mv.Member)
		}
	}
	store := n.srv.Sharded()
	self, _ := n.ms.lookup(n.cfg.ID) // carries our incarnation, see handleManifest
	for _, donor := range donors {
		m, err := postCtrl(n.httpc, donor.CtrlAddr, "/cluster/manifest", &Message{
			Kind:        MsgManifestRequest,
			ManifestReq: &ManifestRequest{Joiner: n.cfg.ID, Members: []Member{self}, Routers: []string{router}},
		}, 5*time.Second)
		if err != nil || m.Kind != MsgManifestResponse {
			n.log.Warn("first-write key pull failed", "router", router, "peer", donor.ID, "err", err)
			continue
		}
		for _, en := range m.ManifestResp.Entries {
			for _, k := range en.Keys {
				store.Apply(en.Router, k, func(*dataset.Store) {})
			}
		}
	}
}

// join runs the three-step entry protocol: learn the membership from
// seed peers (without revealing ourselves), pull applied-key manifests
// for every router we would own, and seed the dedupe index. Peers that
// are down are skipped — a manifest is a dedupe optimization against
// ack-lost retries, and the writes themselves are safe either way.
func (n *Node) join() {
	n.gsp.learn()

	// Prospective membership: everyone alive now, plus us.
	var prospective []Member
	var donors []Member
	for _, mv := range n.ms.view() {
		if mv.State == StateDead || mv.ID == n.cfg.ID {
			continue
		}
		if mv.Role == RoleNode {
			prospective = append(prospective, mv.Member)
			donors = append(donors, mv.Member)
		}
	}
	self, _ := n.ms.lookup(n.cfg.ID)
	prospective = append(prospective, self)

	seeded := 0
	for _, donor := range donors {
		m, err := postCtrl(n.httpc, donor.CtrlAddr, "/cluster/manifest", &Message{
			Kind:        MsgManifestRequest,
			ManifestReq: &ManifestRequest{Joiner: n.cfg.ID, Members: prospective},
		}, 30*time.Second)
		if err != nil || m.Kind != MsgManifestResponse {
			n.log.Warn("join: manifest pull failed", "peer", donor.ID, "err", err)
			continue
		}
		store := n.srv.Sharded()
		for _, en := range m.ManifestResp.Entries {
			for _, k := range en.Keys {
				// A no-op apply marks the key applied without adding rows.
				store.Apply(en.Router, k, func(*dataset.Store) {})
				seeded++
			}
		}
	}
	if seeded > 0 {
		n.log.Info("join: seeded dedupe index", "keys", seeded)
	}
}

// replayScan finds journaled frames whose owner lost its store — it is
// judged dead, or it came back under a new incarnation (a restart wipes
// the in-memory store, so "alive again" does not mean the rows are) —
// and, when this node is the frame's first live successor, replays the
// raw NPB1 bytes into its own collector as a /v1/batch POST. The scan
// runs every tick, so a replay that fails (or an owner that dies later)
// is retried until it lands; idempotency keys make every retry converge
// to exactly-once rows. Frames journaled before the owner was known
// (ownerInc 0) only replay on death, never on an incarnation change —
// a spurious rebirth replay of rows the owner still holds would
// double-count them cluster-wide.
func (n *Node) replayScan() {
	state := make(map[string]State)
	incs := make(map[string]uint64)
	for _, mv := range n.ms.view() {
		state[mv.ID] = mv.State
		incs[mv.ID] = mv.Incarnation
	}
	n.mu.Lock()
	var due []*journalEntry
	for _, e := range n.journal {
		if e.replayed {
			continue
		}
		st, known := state[e.owner]
		ownerLost := known && st == StateDead
		if !ownerLost && e.ownerInc != 0 && known && incs[e.owner] != e.ownerInc {
			ownerLost = true
		}
		if !ownerLost {
			continue
		}
		// First successor still standing inherits the frame. A
		// successor that is dead — or reborn under a new incarnation,
		// meaning its journal died with its previous life — cannot
		// replay and is skipped. Everyone holding the frame runs the
		// same rule, so exactly one live node replays it (disagreeing
		// views would only add replays, which dedupe flattens).
		for i, s := range e.succs {
			if state[s] == StateDead {
				continue
			}
			if i < len(e.succIncs) && e.succIncs[i] != 0 && incs[s] != e.succIncs[i] {
				continue
			}
			if s == n.cfg.ID {
				due = append(due, e)
			}
			break
		}
	}
	n.mu.Unlock()

	for _, e := range due {
		res, err := n.replay(e)
		if err != nil {
			n.log.Warn("failover replay failed, will retry", "owner", e.owner, "err", err)
			continue
		}
		n.mu.Lock()
		e.replayed = true
		n.mu.Unlock()
		n.mReplayed.Inc()
		n.mReplayRows.Add(int64(res.Applied))
		n.log.Info("replayed orphaned frame", "owner", e.owner, "items", e.items,
			"applied", res.Applied, "duplicates", res.Duplicates)
	}
}

// replay routes a journaled frame's items into the data plane of each
// item's CURRENT ring owner — the handoff IS a normal binary batch
// upload, so admission control, dedupe, tracing, and telemetry all
// apply unchanged. Routing at replay time (rather than blindly into
// this node) matters once the ring can change shape: after a drain
// moved a dead owner's routers, their history — and crucially their
// dedupe keys — lives at the new owner, and a replay applied anywhere
// else would re-create rows the cluster already acknowledged. Items
// whose owner is unknown, or an empty ring, fall back to this node's
// own data plane, which reproduces the pre-rebalance behavior exactly.
func (n *Node) replay(e *journalEntry) (collector.BatchResult, error) {
	var total collector.BatchResult
	items, err := decodeItems(collector.BatchEndpoint, wire.ContentTypeBinary, "", e.batch)
	if err != nil {
		return total, err
	}
	ring := n.ms.ring()
	byAddr := make(map[string][]wire.Item)
	for _, it := range items {
		addr := n.DataAddr()
		if owner := ring.Owner(routerOfItem(&it)); owner != "" && owner != n.cfg.ID {
			if mem, ok := n.ms.lookup(owner); ok && mem.DataAddr != "" {
				addr = mem.DataAddr
			}
		}
		byAddr[addr] = append(byAddr[addr], it)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for addr, its := range byAddr {
		res, err := postBatchBinary(ctx, n.httpc, addr, wire.AppendBatch(nil, its), "")
		if err != nil {
			return total, err
		}
		total.Add(res)
	}
	return total, nil
}

func (n *Node) handleGossip(w http.ResponseWriter, r *http.Request) {
	n.gsp.serve(w, r)
	n.gEpoch.Set(float64(n.ms.epochVersion()))
}

func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	m, ok := readCtrl(w, r, MsgReplicate)
	if !ok {
		return
	}
	rep := m.Replicate
	// Validate before journaling: bytes that cannot replay are refused
	// now, while the front can still fail the client's request.
	items, frameKeys, err := scanBatch(rep.Batch)
	if err != nil {
		http.Error(w, "replicate: bad batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	var ownerInc uint64
	if owner, ok := n.ms.lookup(rep.Owner); ok {
		ownerInc = owner.Incarnation
	}
	succIncs := make([]uint64, len(rep.Successors))
	for i, s := range rep.Successors {
		if mem, ok := n.ms.lookup(s); ok {
			succIncs[i] = mem.Incarnation
		}
	}
	h := hash64(rep.Batch)
	n.mu.Lock()
	if !n.journalSeen[h] {
		n.journalSeen[h] = true
		n.journal = append(n.journal, &journalEntry{
			owner: rep.Owner, succs: rep.Successors, items: items, batch: rep.Batch,
			ownerInc: ownerInc, succIncs: succIncs, keys: frameKeys,
		})
		n.mJournalFrames.Inc()
		n.gJournalBytes.Add(float64(len(rep.Batch)))
	}
	n.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func (n *Node) handleManifest(w http.ResponseWriter, r *http.Request) {
	m, ok := readCtrl(w, r, MsgManifestRequest)
	if !ok {
		return
	}
	req := m.ManifestReq
	resp := &ManifestResponse{From: n.cfg.ID}
	state := make(map[string]State)
	incs := make(map[string]uint64)
	for _, mv := range n.ms.view() {
		state[mv.ID] = mv.State
		incs[mv.ID] = mv.Incarnation
	}
	// The requester speaks for its own incarnation: a reborn joiner pulls
	// manifests before it gossips, so this node may still believe the
	// previous life is alive — and would then serve the keys of frames
	// whose rows died with it (see the carve-out below).
	for _, mem := range req.Members {
		if mem.ID == req.Joiner && mem.Incarnation > incs[mem.ID] {
			incs[mem.ID] = mem.Incarnation
			state[mem.ID] = StateAlive
		}
	}
	n.mu.Lock()
	// A manifest entry is the union of keys this node applied and keys
	// inside frames it journaled: a journaled key was acked by an owner
	// whose store may since have died, and serving both lets a reborn
	// owner dedupe a client retry even when it races the replay. One
	// carve-out: a frame whose owner is LOST and whose replay has not
	// happened yet is withheld — its rows exist nowhere right now, and
	// seeding its keys into the node the replay will route to would make
	// that replay flatten to duplicates and lose the rows for good.
	journaled := make(map[string]map[string]bool)
	for _, e := range n.journal {
		if !e.replayed && !e.ownerHoldsRows(state, incs) {
			continue
		}
		for router, keys := range e.keys {
			idx := journaled[router]
			if idx == nil {
				idx = make(map[string]bool)
				journaled[router] = idx
			}
			for _, k := range keys {
				idx[k] = true
			}
		}
	}
	keyUnion := func(router string) []string {
		applied, jkeys := n.ownerKeys[router], journaled[router]
		if len(applied) == 0 && len(jkeys) == 0 {
			return nil
		}
		out := make([]string, 0, len(applied)+len(jkeys))
		for k := range applied {
			out = append(out, k)
		}
		for k := range jkeys {
			if !applied[k] {
				out = append(out, k)
			}
		}
		return out
	}
	if len(req.Routers) > 0 {
		// Targeted query: exactly these routers, ownership ignored.
		for _, router := range req.Routers {
			if keys := keyUnion(router); len(keys) > 0 {
				resp.Entries = append(resp.Entries, ManifestEntry{Router: router, Keys: keys})
			}
		}
	} else {
		// Join-time bulk pull: every router the joiner would own under
		// the prospective membership.
		var ids []string
		for _, mem := range req.Members {
			if mem.Role == RoleNode {
				ids = append(ids, mem.ID)
			}
		}
		ring := NewRing(ids, DefaultVnodes)
		routers := make(map[string]bool, len(n.ownerKeys)+len(journaled))
		for router := range n.ownerKeys {
			routers[router] = true
		}
		for router := range journaled {
			routers[router] = true
		}
		for router := range routers {
			if ring.Owner(router) != req.Joiner {
				continue
			}
			if keys := keyUnion(router); len(keys) > 0 {
				resp.Entries = append(resp.Entries, ManifestEntry{Router: router, Keys: keys})
			}
		}
	}
	n.mu.Unlock()
	writeCtrl(w, &Message{Kind: MsgManifestResponse, ManifestResp: resp})
}

// scanBatch walks an NPB1 buffer and returns its item count plus the
// router→keys index of its keyed items, erroring on anything the
// collector would refuse to decode.
func scanBatch(batch []byte) (int, map[string][]string, error) {
	var dec wire.Decoder
	if err := dec.Reset(batch); err != nil {
		return 0, nil, err
	}
	items := 0
	var keys map[string][]string
	var it wire.Item
	for {
		err := dec.Next(&it)
		if err == io.EOF {
			return items, keys, nil
		}
		if err != nil {
			return 0, nil, err
		}
		items++
		if it.Key != "" {
			if keys == nil {
				keys = make(map[string][]string)
			}
			router := routerOfItem(&it)
			keys[router] = append(keys[router], it.Key)
		}
	}
}

// memberViewJSON is the ops-facing /cluster/members entry.
type memberViewJSON struct {
	ID          string `json:"id"`
	Role        string `json:"role"`
	State       string `json:"state"`
	CtrlAddr    string `json:"ctrl_addr"`
	DataAddr    string `json:"data_addr"`
	Incarnation uint64 `json:"incarnation"`
	Beat        uint64 `json:"beat"`
}

// serveMembers answers GET /cluster/members on either member kind.
func (ms *membership) serveMembers(w http.ResponseWriter, _ *http.Request) {
	view := ms.view()
	out := make([]memberViewJSON, 0, len(view))
	for _, mv := range view {
		out = append(out, memberViewJSON{
			ID: mv.ID, Role: mv.Role.String(), State: mv.State.String(),
			CtrlAddr: mv.CtrlAddr, DataAddr: mv.DataAddr,
			Incarnation: mv.Incarnation, Beat: mv.Beat,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}
