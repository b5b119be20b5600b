package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"natpeek/internal/telemetry"
)

// gossiper is the control-plane client half shared by nodes and fronts:
// it bumps the local beat each round, exchanges full member tables with
// one random live peer, and merges what comes back. Peer selection
// falls back to the configured seeds while the table is empty.
type gossiper struct {
	id    string
	ms    *membership
	httpc *http.Client
	seeds []string
	log   *slog.Logger

	mu   sync.Mutex
	rand *rand.Rand

	mRounds *telemetry.Counter
	mErrs   *telemetry.Counter
}

func newGossiper(id string, ms *membership, httpc *http.Client, seeds []string, log *slog.Logger) *gossiper {
	return &gossiper{
		id: id, ms: ms, httpc: httpc, seeds: seeds, log: log,
		rand: rand.New(rand.NewSource(time.Now().UnixNano())),
		mRounds: telemetry.Default.CounterVec("natpeek_cluster_gossip_rounds_total",
			"Gossip exchanges initiated, per member.", "member").With(id),
		mErrs: telemetry.Default.CounterVec("natpeek_cluster_gossip_errors_total",
			"Gossip exchanges that failed, per member.", "member").With(id),
	}
}

// learn runs learn-only exchanges against the seeds: an empty member
// list reveals nothing about this process, so a joiner can fetch the
// cluster's state before it is routable.
func (g *gossiper) learn() {
	for _, peer := range g.seeds {
		resp, err := g.exchange(peer, &Gossip{From: g.id})
		if err != nil {
			g.log.Debug("join: seed unreachable", "peer", peer, "err", err)
			continue
		}
		g.absorb(resp)
	}
}

// once runs one gossip round: bump, pick, exchange, merge.
func (g *gossiper) once() {
	g.ms.bump()
	target := g.pickPeer()
	if target == "" {
		return
	}
	g.mRounds.Inc()
	resp, err := g.exchange(target, g.outbound())
	if err != nil {
		g.mErrs.Inc()
		return
	}
	g.absorb(resp)
}

// broadcast exchanges with every known non-dead peer (and the seeds, in
// case the table is still empty). Rebalance coordinators call it to
// push an epoch proposal or commit everywhere at once instead of
// waiting for random-pair rounds to percolate it.
func (g *gossiper) broadcast() {
	g.ms.bump()
	addrs := make(map[string]bool)
	for _, mv := range g.ms.view() {
		if mv.ID != g.id && mv.State != StateDead && mv.CtrlAddr != "" {
			addrs[mv.CtrlAddr] = true
		}
	}
	for _, s := range g.seeds {
		addrs[s] = true
	}
	for addr := range addrs {
		resp, err := g.exchange(addr, g.outbound())
		if err != nil {
			g.mErrs.Inc()
			continue
		}
		g.absorb(resp)
	}
}

// outbound builds this process's half of an exchange: full member table
// plus epoch state.
func (g *gossiper) outbound() *Gossip {
	cur, next := g.ms.epochs()
	return &Gossip{From: g.id, Members: g.ms.snapshot(), Cur: cur, Next: next}
}

// absorb merges a peer's half of an exchange.
func (g *gossiper) absorb(resp *Gossip) {
	if resp == nil {
		return
	}
	g.ms.merge(resp.Members)
	g.ms.mergeEpochs(resp.Cur, resp.Next)
}

// pickPeer chooses a random non-dead member's control address.
func (g *gossiper) pickPeer() string {
	var addrs []string
	for _, mv := range g.ms.view() {
		if mv.ID != g.id && mv.State != StateDead {
			addrs = append(addrs, mv.CtrlAddr)
		}
	}
	if len(addrs) == 0 {
		addrs = g.seeds
	}
	if len(addrs) == 0 {
		return ""
	}
	g.mu.Lock()
	i := g.rand.Intn(len(addrs))
	g.mu.Unlock()
	return addrs[i]
}

// run is a member's heartbeat until stop closes: every interval one
// gossip round, then the member's own periodic duty.
func (g *gossiper) run(stop <-chan struct{}, every time.Duration, then func()) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		g.once()
		then()
	}
}

// serve is the answering half of an exchange, for either member kind:
// absorb the peer's table and epochs, reply with ours.
func (g *gossiper) serve(w http.ResponseWriter, r *http.Request) {
	m, ok := readCtrl(w, r, MsgGossip)
	if !ok {
		return
	}
	g.absorb(m.Gossip)
	writeCtrl(w, &Message{Kind: MsgGossip, Gossip: g.outbound()})
}

// readCtrl decodes one NPC1 request of the expected kind.
func readCtrl(w http.ResponseWriter, r *http.Request, want MsgKind) (*Message, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, ctrlMaxBody))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	m, err := DecodeMessage(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	if m.Kind != want {
		http.Error(w, fmt.Sprintf("cluster: want message kind %d, got %d", want, m.Kind), http.StatusBadRequest)
		return nil, false
	}
	return m, true
}

func writeCtrl(w http.ResponseWriter, m *Message) {
	w.Header().Set("Content-Type", ctrlContentType)
	w.Write(AppendMessage(nil, m))
}

// exchange POSTs one gossip message and returns the peer's table.
func (g *gossiper) exchange(ctrlAddr string, gm *Gossip) (*Gossip, error) {
	m, err := postCtrl(g.httpc, ctrlAddr, "/cluster/gossip",
		&Message{Kind: MsgGossip, Gossip: gm}, 2*time.Second)
	if err != nil {
		return nil, err
	}
	if m.Kind != MsgGossip {
		return nil, fmt.Errorf("cluster: gossip reply kind %d", m.Kind)
	}
	return m.Gossip, nil
}

// postCtrl sends one NPC1 message to a peer's control plane and decodes
// the NPC1 reply.
func postCtrl(httpc *http.Client, ctrlAddr, path string, m *Message, timeout time.Duration) (*Message, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+ctrlAddr+path, bytes.NewReader(AppendMessage(nil, m)))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ctrlContentType)
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, ctrlMaxBody))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("cluster: %s%s: %s: %s", ctrlAddr, path, resp.Status, bytes.TrimSpace(body))
	}
	if len(body) == 0 {
		// Acknowledged without a reply body (replicate).
		return nil, nil
	}
	return DecodeMessage(body)
}
