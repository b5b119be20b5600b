package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"natpeek/internal/clock"
	"natpeek/internal/collector"
	"natpeek/internal/wire"
)

// simNet is an in-process network for the cluster: a member's peer call
// is dispatched by host:port straight to the handler serving that
// address — a node's control or collector mux, a front's control or
// data mux — with no socket in between. A cut link fails its calls at
// once, as a refused connection does.
type simNet struct {
	mu       sync.Mutex
	handlers map[string]http.Handler // by host:port
	members  map[string]string       // host:port → member ID
	cut      map[[2]string]bool      // {from, to} member IDs
}

func newSimNet() *simNet {
	return &simNet{handlers: map[string]http.Handler{}, members: map[string]string{}, cut: map[[2]string]bool{}}
}

// attach serves addr, one of member id's listen addresses, with h.
func (sn *simNet) attach(id, addr string, h http.Handler) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	sn.handlers[addr], sn.members[addr] = h, id
}

// sever cuts (or with cut false restores) both directions between a and b.
func (sn *simNet) sever(a, b string, cut bool) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	sn.cut[[2]string{a, b}], sn.cut[[2]string{b, a}] = cut, cut
}

// link is the RoundTripper of member from's one *http.Client.
func (sn *simNet) link(from string) http.RoundTripper { return simLink{sn, from} }

type simLink struct {
	sn   *simNet
	from string
}

func (l simLink) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil { // a RoundTripper closes the body, answered or not
		defer req.Body.Close()
	}
	l.sn.mu.Lock()
	h, ok := l.sn.handlers[req.URL.Host]
	cut := l.sn.cut[[2]string{l.from, l.sn.members[req.URL.Host]}]
	l.sn.mu.Unlock()
	if !ok || cut {
		return nil, fmt.Errorf("simnet: %s cannot reach %s", l.from, req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req.Clone(req.Context())) // the mux writes its match into the request
	return rec.Result(), nil
}

// simGossip is the production failure detector's timing; on a simulated
// clock it costs no real time.
var simGossip = GossipConfig{Interval: time.Second, SuspectAfter: 3 * time.Second, DeadAfter: 10 * time.Second}

// simCluster is a front and n nodes whose peer calls all cross one
// simNet and whose time all comes from one clock.Sim.
type simCluster struct {
	t      *testing.T
	clk    *clock.Sim
	net    *simNet
	nodes  []*Node
	front  *Front
	client *http.Client // a gateway's: reaches the front through the simNet
}

// startSimCluster brings the cluster up and steps the clock until every
// member judges every node alive.
func startSimCluster(t *testing.T, n int) *simCluster {
	t.Helper()
	sc := &simCluster{t: t, clk: clock.NewSim(time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)), net: newSimNet()}
	sc.client = &http.Client{Transport: sc.net.link("client")}
	var peers []string
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("node-%d", i)
		nd, err := newNode(NodeConfig{ID: id,
			UDPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", CtrlAddr: "127.0.0.1:0",
			Peers: append([]string(nil), peers...), Gossip: simGossip}, sc.net.link(id), sc.clk)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		sc.net.attach(id, nd.CtrlAddr(), nd.ctrl.Handler)
		sc.net.attach(id, nd.DataAddr(), nd.srv.Mux())
		sc.nodes = append(sc.nodes, nd)
		peers = append(peers, nd.CtrlAddr())
	}
	front, err := newFront(FrontConfig{ID: "front-0",
		UDPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", CtrlAddr: "127.0.0.1:0",
		Peers: peers, Replication: 2, Gossip: simGossip}, sc.net.link("front-0"), sc.clk)
	if err != nil {
		t.Fatalf("front: %v", err)
	}
	sc.net.attach(front.cfg.ID, front.CtrlAddr(), front.ctrl.Handler)
	sc.net.attach(front.cfg.ID, front.HTTPAddr(), front.httpSrv.Handler)
	sc.front = front
	t.Cleanup(func() {
		front.Close()
		for _, nd := range sc.nodes {
			nd.Close()
		}
	})
	sc.settle()
	for round := 0; !sc.allAlive(sc.members()...); round++ {
		if round == 20 {
			t.Fatal("membership did not converge in 20 gossip rounds")
		}
		sc.step()
	}
	return sc
}

// settle waits until every member's gossip loop has finished its round
// and re-armed its timer on the simulated clock.
func (sc *simCluster) settle() {
	sc.t.Helper()
	want := len(sc.nodes) + 1
	deadline := time.Now().Add(10 * time.Second)
	for sc.clk.Pending() != want {
		if time.Now().After(deadline) {
			sc.t.Fatalf("%d gossip timers armed, want %d", sc.clk.Pending(), want)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// step moves simulated time one gossip interval on: every member runs
// one round (and a node its replay scan), and step returns when all are
// done.
func (sc *simCluster) step() {
	sc.clk.Advance(simGossip.Interval)
	sc.settle()
}

// members is every member's judged view, by member ID.
func (sc *simCluster) members() []func() []MemberView {
	views := []func() []MemberView{sc.front.View}
	for _, nd := range sc.nodes {
		views = append(views, nd.View)
	}
	return views
}

// allAlive reports whether each of views judges every node alive.
func (sc *simCluster) allAlive(views ...func() []MemberView) bool {
	for _, view := range views {
		alive := 0
		for _, mv := range view() {
			if mv.Role == RoleNode && mv.State == StateAlive {
				alive++
			}
		}
		if alive != len(sc.nodes) {
			return false
		}
	}
	return true
}

// post sends one NPB1 batch to the front through the simNet.
func (sc *simCluster) post(items []wire.Item) collector.BatchResult {
	sc.t.Helper()
	resp, err := sc.client.Post("http://"+sc.front.HTTPAddr()+"/v1/batch", wire.ContentTypeBinary,
		bytes.NewReader(wire.AppendBatch(nil, items)))
	if err != nil {
		sc.t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	var res collector.BatchResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil || resp.StatusCode != http.StatusOK {
		sc.t.Fatalf("post: status %d: %v", resp.StatusCode, err)
	}
	return res
}

// unionRows is storeRows over every given node, sorted.
func unionRows(nodes ...*Node) []string {
	var rows []string
	for _, nd := range nodes {
		rows = append(rows, storeRows(nd.Store())...)
	}
	sort.Strings(rows)
	return rows
}

// npb1Items is equivalenceItems as the NPB1 batch uploadAs sends.
func npb1Items() []wire.Item {
	var items []wire.Item
	for _, it := range equivalenceItems() {
		items = append(items, wire.Item{Endpoint: it.Endpoint, Key: it.Key, Payload: wire.PayloadFromJSON(it.Endpoint, it.Body)})
	}
	return items
}

// TestSimNetTwin: the seeded equivalence list sent through a front and
// three nodes over the in-process network, on a simulated clock, lands
// the same rows — and earns the same batch result — as the same upload
// over loopback sockets on the wall clock.
func TestSimNetTwin(t *testing.T) {
	tc := startTestCluster(t, 3, 2)
	wantRes := postBatch(t, frontURL(tc), npb1Items())
	want := unionRows(tc.nodes...)

	sc := startSimCluster(t, 3)
	res := sc.post(npb1Items())
	if got := unionRows(sc.nodes...); !reflect.DeepEqual(got, want) {
		t.Errorf("in-process rows differ from loopback:\n%s\nloopback\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	sort.Slice(res.Failed, func(i, j int) bool { return res.Failed[i].Key < res.Failed[j].Key })
	sort.Slice(wantRes.Failed, func(i, j int) bool { return wantRes.Failed[i].Key < wantRes.Failed[j].Key })
	if !reflect.DeepEqual(res, wantRes) {
		t.Errorf("in-process result %+v, loopback %+v", res, wantRes)
	}
}

// TestSimNetFailover: an owner cut off from everyone is judged dead
// once the simulated clock passes DeadAfter — no real wait — and its
// rows reappear exactly once on the survivors, replayed from the
// successor journals; a re-post of the whole batch is answered entirely
// as duplicates.
func TestSimNetFailover(t *testing.T) {
	sc := startSimCluster(t, 3)
	const routers = 24
	var items []wire.Item
	for i := 0; i < routers; i++ {
		items = append(items, uptimeItem(fmt.Sprintf("rt-simfail-%03d", i), i))
	}
	if res := sc.post(items); res.Applied != routers {
		t.Fatalf("first post %+v, want %d applied", res, routers)
	}
	victim, survivors := sc.nodes[0], sc.nodes[1:]
	if len(victim.Store().Uptime) == 0 {
		t.Fatal("victim owned no rows; test cannot exercise failover")
	}
	for _, id := range []string{"node-1", "node-2", "front-0"} {
		sc.net.sever(victim.ID(), id, true)
	}
	dead := func() bool {
		for _, view := range []func() []MemberView{sc.front.View, survivors[0].View, survivors[1].View} {
			for _, mv := range view() {
				if mv.ID == victim.ID() && mv.State != StateDead {
					return false
				}
			}
		}
		return true
	}
	for round := 0; !dead(); round++ {
		if round == 15 {
			t.Fatal("victim not judged dead 15 intervals after the cut")
		}
		sc.step()
	}
	// One more round for the replay scan that follows the verdict, and
	// a few to show nothing replays twice.
	for i := 0; i < 4; i++ {
		sc.step()
	}
	for _, nd := range survivors {
		nd.mu.Lock()
		for _, e := range nd.journal {
			if e.owner == victim.ID() && !e.replayed {
				t.Errorf("%s holds an unreplayed frame of the dead owner (%d items)", nd.ID(), e.items)
			}
		}
		nd.mu.Unlock()
	}
	rows := unionRows(survivors...)
	if len(rows) != routers {
		t.Fatalf("survivors hold %d rows, want each of %d exactly once:\n%s", len(rows), routers, strings.Join(rows, "\n"))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i] == rows[i-1] {
			t.Fatalf("row held twice: %s", rows[i])
		}
	}
	if res := sc.post(items); res.Applied != 0 || res.Duplicates != routers {
		t.Fatalf("re-post after failover %+v, want %d duplicates", res, routers)
	}
}

// TestSimNetBridgedPartition: two nodes that cannot reach each other,
// while the front and the third node reach both, keep learning each
// other's beats through the bridge. For three DeadAfter windows of
// simulated time, no member judges any node dead, no router changes
// owner in any member's ring, and no journaled frame replays; uploads
// keep landing exactly once.
func TestSimNetBridgedPartition(t *testing.T) {
	sc := startSimCluster(t, 3)
	const routers = 24
	batch := func(round int) []wire.Item {
		var items []wire.Item
		for i := 0; i < routers; i++ {
			items = append(items, uptimeItem(fmt.Sprintf("rt-bridge-%03d", i), round*routers+i))
		}
		return items
	}
	rings := []func() *Ring{sc.front.ms.ring}
	for _, nd := range sc.nodes {
		rings = append(rings, nd.ms.ring)
	}
	owners := func() []string {
		var out []string
		for _, ring := range rings {
			for _, it := range batch(0) {
				out = append(out, ring().Owner(it.Payload.Router()))
			}
		}
		return out
	}
	if res := sc.post(batch(0)); res.Applied != routers {
		t.Fatalf("post before the cut %+v", res)
	}
	before := owners()
	sc.net.sever("node-0", "node-1", true)
	rounds := int(3 * simGossip.DeadAfter / simGossip.Interval)
	for round := 1; round <= rounds; round++ {
		sc.step()
		for _, view := range sc.members() {
			for _, mv := range view() {
				if mv.Role == RoleNode && mv.State == StateDead {
					t.Fatalf("round %d: %s judged dead across the bridge", round, mv.ID)
				}
			}
		}
		if got := owners(); !reflect.DeepEqual(got, before) {
			t.Fatalf("round %d: ring ownership moved under a bridged partition", round)
		}
		if round%10 == 0 {
			if res := sc.post(batch(round)); res.Applied != routers {
				t.Fatalf("round %d: post %+v, want %d applied", round, res, routers)
			}
		}
	}
	if !sc.allAlive(sc.members()...) {
		t.Error("a node is not alive in every view after the partition")
	}
	for _, nd := range sc.nodes {
		if frames, _, replayed := nd.JournalStats(); replayed != 0 {
			t.Errorf("%s replayed %d of %d journaled frames under a bridged partition", nd.ID(), replayed, frames)
		}
	}
	if got, want := len(unionRows(sc.nodes...)), routers*(1+rounds/10); got != want {
		t.Errorf("cluster holds %d rows, want %d", got, want)
	}
}
