package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"natpeek/internal/collector"
	"natpeek/internal/dataset"
	"natpeek/internal/wire"
)

// Planned ownership transfer. Failover (node.go) hands off the
// journaled tail when a node dies; this file hands off a node's FULL
// owned row set when the ring changes shape on purpose — scale-out
// (JoinRing) and scale-in (Drain). The protocol:
//
//  1. The coordinator proposes a RingEpoch with the new composition and
//     broadcasts it. Every front that learns the pending epoch starts
//     fencing writes whose ownership is about to move (429 +
//     Retry-After, never dropped).
//  2. waitEpochVisible blocks until every live member — fronts
//     included — reports the proposal's version. From here, no write
//     for a moving shard can land anywhere.
//  3. Sources run extract-and-send sessions: atomically extract the
//     moving routers' rows from the store (dedupe keys are retained at
//     the source), re-encode them as NPB1 batches keyed
//     "<router>:xfer:<src>:<session>:<kind>:<i>", and POST them through
//     the new owner's own data plane — admission control, dedupe, and
//     telemetry apply unchanged, and a re-sent chunk flattens to
//     duplicates. The moved routers' idempotency keys are pushed
//     alongside (MsgTransferKeys) so late client retries dedupe at the
//     new owner even after the source is gone.
//  4. Sessions repeat until one moves zero rows, then the coordinator
//     commits the epoch and broadcasts again; fronts route by the new
//     ring and stop fencing.
const (
	// transferBatchItems caps items per transfer batch POST.
	transferBatchItems = 256
	// transferRunRows caps rows per slice-carrying transfer item.
	transferRunRows = 128
	// transferKeysPerMsg caps keys per MsgTransferKeys push.
	transferKeysPerMsg = 2048
)

// Transfer-key kind discriminators (the "<kind>" field of an xfer
// idempotency key). Distinct per row set so per-(router,kind) indices
// never collide.
const (
	xfkRegister = iota
	xfkUptime
	xfkCapacity
	xfkCount
	xfkSightings
	xfkWiFi
	xfkFlows
	xfkThroughput
)

// JoinRing adds this node to the routing ring: propose an epoch over
// the current composition plus self, fence, pull ownership from every
// peer in transfer rounds until an entire round moves nothing, then
// commit. The node must have been started with NodeConfig.Joining so
// the legacy membership ring never routed to it early.
func (n *Node) JoinRing(ctx context.Context) error {
	// One synchronous exchange with every known peer before planning:
	// peers relay their full member tables, so a composition computed
	// moments after process start cannot silently omit a live node this
	// process has not gossiped about yet.
	n.gsp.broadcast()
	base := n.ms.planningNodes()
	for _, id := range base {
		if id == n.cfg.ID {
			// Already a ring member (e.g. a retried join after the
			// commit landed): nothing to transfer.
			n.ms.setJoining(false)
			return nil
		}
	}
	next := n.ms.proposeEpoch(append(base, n.cfg.ID))
	n.log.Info("join: proposed ring epoch", "version", next.Version, "nodes", next.Nodes)
	n.gsp.broadcast()
	if err := n.waitEpochVisible(ctx, next.Version); err != nil {
		return err
	}
	for round := 1; ; round++ {
		var moved uint64
		for _, src := range next.Nodes {
			if src == n.cfg.ID {
				continue
			}
			rows, err := n.requestTransfer(ctx, src, next)
			if err != nil {
				return fmt.Errorf("cluster: join: transfer from %s: %w", src, err)
			}
			moved += rows
		}
		n.log.Info("join: transfer round", "round", round, "rows", moved)
		if moved == 0 {
			break
		}
	}
	committed, ok := n.ms.commitEpoch(next.Version)
	if !ok {
		return fmt.Errorf("cluster: join: epoch %d superseded before commit", next.Version)
	}
	n.ms.setJoining(false)
	n.gsp.broadcast()
	n.gEpoch.Set(float64(committed.Version))
	n.log.Info("join: ring epoch committed", "version", committed.Version, "nodes", committed.Nodes)
	return nil
}

// Drain removes this node from the routing ring: propose the current
// composition minus self, fence, stream everything this node holds to
// the surviving owners, re-home the replication-journal frames it holds
// as a successor, then commit. After Drain returns nil the node owns
// nothing and the process can be stopped.
func (n *Node) Drain(ctx context.Context) error {
	if !n.draining.CompareAndSwap(false, true) {
		return fmt.Errorf("cluster: drain already in progress")
	}
	done := false
	defer func() {
		if !done {
			n.draining.Store(false) // a failed drain may be retried
		}
	}()
	// As in JoinRing: refresh the member table from every known peer
	// before planning, so a drain issued right after start (or relayed
	// by a front that knows more of the cluster than this node yet
	// does) cannot propose a composition missing a live node — that
	// would evict the unplanned node's ownership without a transfer.
	n.gsp.broadcast()
	base := n.ms.planningNodes()
	var remaining []string
	inRing := false
	for _, id := range base {
		if id == n.cfg.ID {
			inRing = true
			continue
		}
		remaining = append(remaining, id)
	}
	if !inRing {
		done = true
		return nil
	}
	if len(remaining) == 0 {
		return fmt.Errorf("cluster: cannot drain the last ring node")
	}
	next := n.ms.proposeEpoch(remaining)
	n.log.Info("drain: proposed ring epoch", "version", next.Version, "nodes", next.Nodes)
	n.gsp.broadcast()
	if err := n.waitEpochVisible(ctx, next.Version); err != nil {
		return err
	}
	moved, err := n.rebalanceLoop(ctx, next)
	if err != nil {
		return err
	}
	if err := n.rehomeJournal(ctx, next); err != nil {
		return err
	}
	committed, ok := n.ms.commitEpoch(next.Version)
	if !ok {
		return fmt.Errorf("cluster: drain: epoch %d superseded before commit", next.Version)
	}
	n.gsp.broadcast()
	n.gEpoch.Set(float64(committed.Version))
	// Post-commit sweep: anything that landed here during the cutover
	// (a failover replay racing the fence, a straggling direct POST)
	// moves out before the operator stops the process.
	if swept, err := n.rebalanceLoop(ctx, committed); err != nil {
		n.log.Warn("drain: post-commit sweep incomplete", "err", err)
	} else {
		moved += swept
	}
	done = true
	n.log.Info("drained", "epoch", committed.Version, "rows", moved)
	return nil
}

// waitEpochVisible blocks until every live member's gossiped
// EpochVersion has reached version — the cluster-wide fence barrier.
// Broadcasting between polls pushes the epoch instead of waiting for
// random-pair gossip to percolate it.
func (n *Node) waitEpochVisible(ctx context.Context, version uint64) error {
	return n.retry(ctx, fmt.Sprintf("epoch %d fence", version), func() error {
		for _, mv := range n.ms.view() {
			if mv.State != StateDead && mv.EpochVersion < version {
				n.gsp.broadcast()
				return fmt.Errorf("not yet visible at %s", mv.ID)
			}
		}
		return nil
	})
}

// requestTransfer asks one source node to run its transfer sessions for
// the proposed epoch and reports how many rows it moved. Retries until
// ctx expires — a source mid-session answers when its lock frees.
func (n *Node) requestTransfer(ctx context.Context, src string, e *RingEpoch) (rows uint64, err error) {
	err = n.retry(ctx, "transfer request to "+src, func() error {
		mem, ok := n.ms.lookup(src)
		if !ok || mem.CtrlAddr == "" {
			return fmt.Errorf("source unknown")
		}
		m, err := postCtrl(n.httpc, mem.CtrlAddr, "/cluster/transfer", &Message{
			Kind:        MsgTransferRequest,
			TransferReq: &TransferRequest{From: n.cfg.ID, Epoch: e},
		}, 2*time.Minute)
		if err == nil && (m == nil || m.Kind != MsgTransferResponse) {
			err = fmt.Errorf("unexpected transfer reply")
		}
		if err == nil {
			rows = m.TransferResp.Rows
		}
		return err
	})
	return rows, err
}

// rebalanceLoop runs extract-and-send sessions against the epoch's ring
// until one moves zero rows. Rows that arrive after the zero session
// stay put for the caller's next pass (the commit-then-sweep in Drain,
// or the next transfer round in JoinRing).
func (n *Node) rebalanceLoop(ctx context.Context, e *RingEpoch) (uint64, error) {
	var total uint64
	for {
		moved, err := n.rebalanceOnce(ctx, e)
		if err != nil {
			return total, err
		}
		total += moved
		if moved == 0 {
			return total, nil
		}
		select {
		case <-ctx.Done():
			return total, ctx.Err()
		default:
		}
	}
}

// rebalanceOnce is one transfer session: atomically extract every row
// the epoch's ring assigns to someone else, stream the rows to their
// new owners through those owners' data planes, and push the moved
// routers' idempotency keys. Returns the extracted row count (the
// loop's termination signal).
//
// Failure handling is asymmetric on purpose. A chunk that cannot be
// delivered is restored into the local store — along with every chunk
// after it — so rows are never stranded in memory; chunks already
// acknowledged stay moved (they live at the destination, and their xfer
// keys make any later re-send flatten to duplicates). A key push that
// fails aborts the session WITHOUT restoring rows: the rows are safely
// at their new owner, and retrying the session re-pushes the keys
// (extraction returns a router's keys for as long as the source
// remembers them, rows or no rows).
func (n *Node) rebalanceOnce(ctx context.Context, e *RingEpoch) (uint64, error) {
	n.xferMu.Lock()
	defer n.xferMu.Unlock()

	ring := NewRing(e.Nodes, DefaultVnodes)
	if ring.Len() == 0 {
		return 0, nil
	}
	// Resolve every possible destination before extracting anything: a
	// destination we cannot address would strand rows outside the store.
	dests := make(map[string]Member)
	for _, id := range e.Nodes {
		if id == n.cfg.ID {
			continue
		}
		mem, ok := n.ms.lookup(id)
		if !ok || mem.DataAddr == "" || mem.CtrlAddr == "" {
			return 0, fmt.Errorf("cluster: transfer destination %s unknown", id)
		}
		dests[id] = mem
	}
	match := func(router string) bool {
		o := ring.Owner(router)
		return o != "" && o != n.cfg.ID
	}
	sess := n.xferSess.Add(1)
	moved, keys := n.srv.Sharded().ExtractRouters(match)
	rows := dataset.CountRows(moved).Total()
	if rows > 0 || len(moved.RouterCountry) > 0 {
		chunks := transferChunks(n.cfg.ID, sess, moved, ring, dests)
		if failed, err := n.sendChunks(ctx, chunks); err != nil {
			n.restoreItems(failed)
			return 0, err
		}
		n.mXferRows.Add(int64(rows))
	}
	if err := n.pushKeys(ctx, ring, dests, keys); err != nil {
		return 0, err
	}
	return uint64(rows), nil
}

// xferChunk is one transfer batch POST: a destination data address and
// the items going there.
type xferChunk struct {
	addr  string
	items []wire.Item
}

// transferChunks re-encodes an extracted snapshot as per-destination
// NPB1 batches. Every item carries a deterministic xfer idempotency key
// (so redelivery dedupes) and rows stay in extraction order within each
// destination. Roster entries travel first as /v1/register items so the
// destination knows a router before its rows. Device sightings ride as
// a census without a count row: counts and sightings moved
// independently cannot be re-paired.
func transferChunks(src string, sess uint64, moved *dataset.Store, ring *Ring, dests map[string]Member) []xferChunk {
	byOwner := make(map[string][]wire.Item)
	idx := make(map[string]int)
	add := func(router string, kind int, endpoint string, p wire.Payload) {
		owner := ring.Owner(router)
		ik := fmt.Sprintf("%s\x00%d", router, kind)
		key := fmt.Sprintf("%s:xfer:%s:%d:%d:%d", router, src, sess, kind, idx[ik])
		idx[ik]++
		byOwner[owner] = append(byOwner[owner], wire.Item{Endpoint: endpoint, Key: key, Payload: p})
	}

	routers := make([]string, 0, len(moved.RouterCountry))
	for id := range moved.RouterCountry {
		routers = append(routers, id)
	}
	sort.Strings(routers)
	for _, id := range routers {
		body, _ := json.Marshal(collector.RegisterRequest{RouterID: id, Country: moved.RouterCountry[id]})
		add(id, xfkRegister, "/v1/register", wire.Payload{Kind: wire.KindRaw, Raw: body})
	}
	for _, row := range moved.Uptime {
		add(row.RouterID, xfkUptime, "/v1/uptime", wire.Payload{Kind: wire.KindUptime, Uptime: row})
	}
	for _, row := range moved.Capacity {
		add(row.RouterID, xfkCapacity, "/v1/capacity", wire.Payload{Kind: wire.KindCapacity, Capacity: row})
	}
	for _, row := range moved.Counts {
		add(row.RouterID, xfkCount, "/v1/devices", wire.Payload{Kind: wire.KindDevices, Count: row})
	}
	runs(moved.Sightings, func(r dataset.DeviceSighting) string { return r.RouterID }, func(router string, run []dataset.DeviceSighting) {
		add(router, xfkSightings, "/v1/devices", wire.Payload{Kind: wire.KindDevices, Sightings: run})
	})
	runs(moved.WiFi, func(r dataset.WiFiScan) string { return r.RouterID }, func(router string, run []dataset.WiFiScan) {
		add(router, xfkWiFi, "/v1/wifi", wire.Payload{Kind: wire.KindWiFi, WiFi: run})
	})
	runs(moved.Flows, func(r dataset.FlowRecord) string { return r.RouterID }, func(router string, run []dataset.FlowRecord) {
		add(router, xfkFlows, "/v1/traffic/flows", wire.Payload{Kind: wire.KindFlows, Flows: run})
	})
	runs(moved.Throughput, func(r dataset.ThroughputSample) string { return r.RouterID }, func(router string, run []dataset.ThroughputSample) {
		add(router, xfkThroughput, "/v1/traffic/throughput", wire.Payload{Kind: wire.KindThroughput, Throughput: run})
	})

	owners := make([]string, 0, len(byOwner))
	for o := range byOwner {
		owners = append(owners, o)
	}
	sort.Strings(owners)
	var chunks []xferChunk
	for _, o := range owners {
		items := byOwner[o]
		addr := dests[o].DataAddr
		for len(items) > 0 {
			nn := len(items)
			if nn > transferBatchItems {
				nn = transferBatchItems
			}
			chunks = append(chunks, xferChunk{addr: addr, items: items[:nn]})
			items = items[nn:]
		}
	}
	return chunks
}

// runs invokes emit for maximal consecutive same-router row runs,
// capped at transferRunRows rows each.
func runs[T any](rows []T, router func(T) string, emit func(router string, run []T)) {
	start := 0
	for i := 1; i <= len(rows); i++ {
		if i == len(rows) || router(rows[i]) != router(rows[start]) || i-start >= transferRunRows {
			emit(router(rows[start]), rows[start:i])
			start = i
		}
	}
}

// retry is the node's one wait loop: it calls try until it succeeds or
// ctx expires, backing off on the node's clock from 100 ms, doubling to
// 2 s. Every transfer delivery is idempotent (xfer keys, journalSeen
// hashes, no-op key applies), and its receiver may 429 under load or be
// mid-restart; the fence barrier and transfer requests poll through it
// too.
func (n *Node) retry(ctx context.Context, what string, try func() error) error {
	backoff := 100 * time.Millisecond
	for {
		err := try()
		if err == nil {
			return nil
		}
		n.log.Warn(what+" failed, retrying", "err", err)
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: %s: %w (last: %v)", what, ctx.Err(), err)
		case <-n.clk.After(backoff):
		}
		backoff = min(2*backoff, 2*time.Second)
	}
}

// sendChunks delivers transfer chunks in order, retrying each until ctx
// expires. On giving up it returns every item not yet acknowledged so
// the caller can restore them; delivered chunks are final.
func (n *Node) sendChunks(ctx context.Context, chunks []xferChunk) ([]wire.Item, error) {
	for i, ch := range chunks {
		batch := wire.AppendBatch(nil, ch.items)
		err := n.retry(ctx, "transfer chunk to "+ch.addr, func() error {
			ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
			defer cancel()
			_, err := postBatchBinary(ctx, n.httpc, ch.addr, batch, "")
			return err
		})
		if err != nil {
			var rest []wire.Item
			for _, c := range chunks[i:] {
				rest = append(rest, c.items...)
			}
			return rest, err
		}
	}
	return nil, nil
}

// restoreItems re-appends undelivered transfer items into this node's
// own store (Append, not Apply — their keys were never forgotten).
// Arrival order within the store is perturbed relative to the original
// ingest, which snapshot digests tolerate: they sort rows.
func (n *Node) restoreItems(items []wire.Item) {
	if len(items) == 0 {
		return
	}
	store := n.srv.Sharded()
	for i := range items {
		p := &items[i].Payload
		router, apply := p.Router(), p.AppendTo
		if p.Kind == wire.KindRaw { // a roster entry: transfers carry rows typed
			var err error
			if router, apply, err = collector.DecodeRaw(items[i].Endpoint, p.Raw); err != nil {
				continue
			}
		}
		store.Append(router, apply)
	}
	n.log.Warn("restored undelivered transfer items", "items", len(items))
}

// pushKeys streams the moved routers' idempotency keys to their new
// owners, chunked, retrying until ctx expires. The keys also remain at
// the source (first-write pulls still find them there); the push makes
// the new owner self-sufficient before the source drains away.
func (n *Node) pushKeys(ctx context.Context, ring *Ring, dests map[string]Member, keys []dataset.RouterKey) error {
	if len(keys) == 0 {
		return nil
	}
	type pending struct {
		entries []ManifestEntry
		count   int
	}
	byOwner := make(map[string]*pending)
	byRouter := make(map[string]*ManifestEntry)
	for _, rk := range keys {
		owner := ring.Owner(rk.Router)
		if owner == "" || owner == n.cfg.ID {
			continue
		}
		en := byRouter[owner+"\x00"+rk.Router]
		if en == nil {
			p := byOwner[owner]
			if p == nil {
				p = &pending{}
				byOwner[owner] = p
			}
			p.entries = append(p.entries, ManifestEntry{Router: rk.Router})
			en = &p.entries[len(p.entries)-1]
			byRouter[owner+"\x00"+rk.Router] = en
		}
		en.Keys = append(en.Keys, rk.Key)
	}
	owners := make([]string, 0, len(byOwner))
	for o := range byOwner {
		owners = append(owners, o)
	}
	sort.Strings(owners)
	sent := 0
	for _, owner := range owners {
		mem := dests[owner]
		var batch []ManifestEntry
		batchKeys := 0
		flush := func() error {
			if len(batch) == 0 {
				return nil
			}
			if err := n.postTransferKeys(ctx, mem, batch); err != nil {
				return err
			}
			sent += batchKeys
			batch, batchKeys = nil, 0
			return nil
		}
		for _, en := range byOwner[owner].entries {
			for len(en.Keys) > 0 {
				nn := len(en.Keys)
				if room := transferKeysPerMsg - batchKeys; nn > room {
					nn = room
				}
				batch = append(batch, ManifestEntry{Router: en.Router, Keys: en.Keys[:nn]})
				batchKeys += nn
				en.Keys = en.Keys[nn:]
				if batchKeys >= transferKeysPerMsg {
					if err := flush(); err != nil {
						return err
					}
				}
			}
		}
		if err := flush(); err != nil {
			return err
		}
	}
	n.mXferKeys.Add(int64(sent))
	return nil
}

// postTransferKeys delivers one MsgTransferKeys push with retries.
func (n *Node) postTransferKeys(ctx context.Context, mem Member, entries []ManifestEntry) error {
	return n.retry(ctx, "key push to "+mem.ID, func() error {
		_, err := postCtrl(n.httpc, mem.CtrlAddr, "/cluster/transferkeys", &Message{
			Kind:         MsgTransferKeys,
			TransferKeys: &TransferKeys{From: n.cfg.ID, Entries: entries},
		}, 30*time.Second)
		return err
	})
}

// rehomeJournal re-replicates the unreplayed frames this node holds as
// a successor to a surviving epoch node, so draining does not silently
// shrink the frames' replication factor. The receiver's journalSeen
// hash flattens duplicates, and its own replay scan takes over the
// successor duty. A frame with no eligible replacement (replication ≥
// surviving nodes) is logged and left — its owner still holds the rows.
func (n *Node) rehomeJournal(ctx context.Context, e *RingEpoch) error {
	n.mu.Lock()
	entries := make([]*journalEntry, 0, len(n.journal))
	for _, en := range n.journal {
		if !en.replayed {
			entries = append(entries, en)
		}
	}
	n.mu.Unlock()
	rehomed := 0
	for _, en := range entries {
		holds := map[string]bool{en.owner: true, n.cfg.ID: true}
		for _, s := range en.succs {
			holds[s] = true
		}
		target := ""
		for _, id := range e.Nodes {
			if !holds[id] {
				target = id
				break
			}
		}
		if target == "" {
			n.log.Warn("drain: no replacement successor for journal frame",
				"owner", en.owner, "items", en.items)
			continue
		}
		mem, ok := n.ms.lookup(target)
		if !ok || mem.CtrlAddr == "" {
			return fmt.Errorf("cluster: drain: replacement successor %s unknown", target)
		}
		succs := make([]string, 0, len(en.succs))
		for _, s := range en.succs {
			if s == n.cfg.ID {
				succs = append(succs, target)
			} else {
				succs = append(succs, s)
			}
		}
		if err := n.retry(ctx, "drain: re-home journal to "+target, func() error {
			return postReplicate(n.httpc, mem.CtrlAddr, en.owner, succs, en.batch)
		}); err != nil {
			return err
		}
		rehomed++
	}
	if rehomed > 0 {
		n.log.Info("drain: re-homed journal frames", "frames", rehomed)
	}
	return nil
}

// handleTransfer serves MsgTransferRequest: adopt the proposed epoch
// (fencing this node's own routing view), run transfer sessions until
// one moves nothing, and answer with the total rows moved.
func (n *Node) handleTransfer(w http.ResponseWriter, r *http.Request) {
	m, ok := readCtrl(w, r, MsgTransferRequest)
	if !ok {
		return
	}
	req := m.TransferReq
	if req.Epoch == nil || len(req.Epoch.Nodes) == 0 {
		http.Error(w, "cluster: transfer request without epoch", http.StatusBadRequest)
		return
	}
	n.ms.mergeEpochs(nil, req.Epoch)
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	rows, err := n.rebalanceLoop(ctx, req.Epoch)
	if err != nil {
		http.Error(w, "cluster: transfer: "+err.Error(), http.StatusInternalServerError)
		return
	}
	writeCtrl(w, &Message{Kind: MsgTransferResponse,
		TransferResp: &TransferResponse{From: n.cfg.ID, Rows: rows}})
}

// handleTransferKeys seeds pushed idempotency keys into the local
// dedupe index, as a first-write pull does, and records them as applied
// here — their rows moved here — so this node's manifests serve them.
func (n *Node) handleTransferKeys(w http.ResponseWriter, r *http.Request) {
	m, ok := readCtrl(w, r, MsgTransferKeys)
	if !ok {
		return
	}
	n.seedKeys(m.TransferKeys.Entries)
	for _, en := range m.TransferKeys.Entries {
		n.recordKeys(en.Router, en.Keys...)
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleDrain serves MsgDrain (relayed by a front's admin endpoint):
// kick off the drain in the background and acknowledge with 202.
func (n *Node) handleDrain(w http.ResponseWriter, r *http.Request) {
	m, ok := readCtrl(w, r, MsgDrain)
	if !ok {
		return
	}
	if m.Drain.Node != n.cfg.ID {
		http.Error(w, fmt.Sprintf("cluster: drain addressed to %s, this is %s", m.Drain.Node, n.cfg.ID),
			http.StatusBadRequest)
		return
	}
	if n.draining.Load() {
		w.WriteHeader(http.StatusAccepted)
		return
	}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		defer cancel()
		if err := n.Drain(ctx); err != nil {
			n.log.Error("drain failed", "err", err)
		}
	}()
	w.WriteHeader(http.StatusAccepted)
}

// epochJSON is an epoch as GET /cluster/epoch reports it.
type epochJSON = RingEpoch

// serveEpoch reports the epoch state as JSON (ops/tests), on a node's
// control plane and a front's data plane alike.
func (ms *membership) serveEpoch(w http.ResponseWriter, _ *http.Request) {
	cur, next := ms.epochs()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Current *RingEpoch `json:"current"`
		Pending *RingEpoch `json:"pending"`
	}{cur, next})
}
