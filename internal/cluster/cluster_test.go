package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"testing"
	"time"

	"natpeek/internal/collector"
	"natpeek/internal/dataset"
	"natpeek/internal/wire"
)

// fastGossip makes the failure detector converge in test time: a dead
// node is detected within ~half a second instead of ten.
var fastGossip = GossipConfig{
	Interval:     20 * time.Millisecond,
	SuspectAfter: 150 * time.Millisecond,
	DeadAfter:    400 * time.Millisecond,
}

type testCluster struct {
	t     *testing.T
	nodes []*Node
	front *Front
}

// startTestCluster brings up n nodes plus one front on loopback and
// waits for the membership to converge everywhere.
func startTestCluster(t *testing.T, n, replication int) *testCluster {
	t.Helper()
	tc := &testCluster{t: t}
	var peers []string
	for i := 0; i < n; i++ {
		nd, err := NewNode(NodeConfig{
			ID:      fmt.Sprintf("node-%d", i),
			UDPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", CtrlAddr: "127.0.0.1:0",
			Peers: append([]string(nil), peers...), Gossip: fastGossip,
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		tc.nodes = append(tc.nodes, nd)
		peers = append(peers, nd.CtrlAddr())
	}
	front, err := NewFront(FrontConfig{
		ID:      "front-0",
		UDPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", CtrlAddr: "127.0.0.1:0",
		Peers: peers, Replication: replication, Gossip: fastGossip,
	})
	if err != nil {
		t.Fatalf("front: %v", err)
	}
	tc.front = front
	t.Cleanup(func() {
		front.Close()
		for _, nd := range tc.nodes {
			nd.Close()
		}
	})
	tc.waitAliveNodes(n)
	// The front seeds with every node's address, so it converges first;
	// the nodes learn each other transitively. Rebalance coordinators
	// plan ring changes from a NODE's view, so wait until every node
	// has the full picture too.
	waitFor(t, 10*time.Second, "every node sees the full membership", func() bool {
		for _, nd := range tc.nodes {
			alive := 0
			for _, mv := range nd.View() {
				if mv.Role == RoleNode && mv.State == StateAlive {
					alive++
				}
			}
			if alive != n {
				return false
			}
		}
		return true
	})
	return tc
}

// waitAliveNodes blocks until the front judges exactly want collector
// nodes alive (not suspect, not dead).
func (tc *testCluster) waitAliveNodes(want int) {
	tc.t.Helper()
	waitFor(tc.t, 10*time.Second, fmt.Sprintf("front sees %d alive nodes", want), func() bool {
		alive := 0
		for _, mv := range tc.front.View() {
			if mv.Role == RoleNode && mv.State == StateAlive {
				alive++
			}
		}
		return alive == want
	})
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// uptimeItem builds one typed keyed batch item for a router.
func uptimeItem(router string, seq int) wire.Item {
	return wire.Item{
		Endpoint: "/v1/uptime",
		Key:      fmt.Sprintf("%s:test:%d", router, seq),
		Payload: wire.Payload{Kind: wire.KindUptime, Uptime: dataset.UptimeReport{
			RouterID:   router,
			ReportedAt: time.Date(2013, 4, 1, 12, 0, 0, 0, time.UTC).Add(time.Duration(seq) * time.Minute),
			Uptime:     time.Duration(seq+1) * time.Hour,
		}},
	}
}

// postBatch delivers one NPB1 batch, failing the test on any error.
func postBatch(t *testing.T, baseURL string, items []wire.Item) collector.BatchResult {
	t.Helper()
	res, status, err := tryPostBatch(baseURL, items)
	if err != nil {
		t.Fatalf("post batch: %v", err)
	}
	if status != http.StatusOK {
		t.Fatalf("post batch: status %d", status)
	}
	return res
}

func tryPostBatch(baseURL string, items []wire.Item) (collector.BatchResult, int, error) {
	var res collector.BatchResult
	resp, err := http.Post(baseURL+"/v1/batch", wire.ContentTypeBinary,
		bytes.NewReader(wire.AppendBatch(nil, items)))
	if err != nil {
		return res, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return res, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return res, resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return res, resp.StatusCode, json.Unmarshal(body, &res)
}

func frontURL(tc *testCluster) string { return "http://" + tc.front.HTTPAddr() }

func totalRows(tc *testCluster) int {
	total := 0
	for _, nd := range tc.nodes {
		st := nd.Store()
		total += len(st.Uptime) + len(st.Capacity) + len(st.Counts) +
			len(st.Sightings) + len(st.WiFi) + len(st.Flows) + len(st.Throughput)
	}
	return total
}

func TestClusterRoutesAcrossNodes(t *testing.T) {
	tc := startTestCluster(t, 2, 2)
	var items []wire.Item
	const routers = 32
	for i := 0; i < routers; i++ {
		items = append(items, uptimeItem(fmt.Sprintf("rt-route-%03d", i), i))
	}
	res := postBatch(t, frontURL(tc), items)
	if res.Applied != routers || res.Duplicates != 0 || len(res.Failed) != 0 {
		t.Fatalf("batch result %+v, want %d applied", res, routers)
	}
	if got := totalRows(tc); got != routers {
		t.Fatalf("cluster holds %d rows, want %d", got, routers)
	}
	// With enough routers the split must actually engage both nodes.
	for _, nd := range tc.nodes {
		if rows := len(nd.Store().Uptime); rows == 0 {
			t.Errorf("node %s holds no rows; routing did not spread", nd.ID())
		}
	}
	// Replication 2 on a 2-node ring: every batch the front forwarded
	// has a frame in the other node's journal.
	frames := 0
	for _, nd := range tc.nodes {
		f, _, _ := nd.JournalStats()
		frames += f
	}
	if frames == 0 {
		t.Fatal("no replicate frames journaled at replication factor 2")
	}
}

func TestClusterRetryDeduplicates(t *testing.T) {
	tc := startTestCluster(t, 2, 2)
	items := []wire.Item{uptimeItem("rt-dup-1", 1), uptimeItem("rt-dup-2", 2)}
	first := postBatch(t, frontURL(tc), items)
	if first.Applied != 2 {
		t.Fatalf("first post applied %d, want 2", first.Applied)
	}
	second := postBatch(t, frontURL(tc), items)
	if second.Applied != 0 || second.Duplicates != 2 {
		t.Fatalf("replay result %+v, want 2 duplicates", second)
	}
	if got := totalRows(tc); got != 2 {
		t.Fatalf("cluster holds %d rows after replay, want 2", got)
	}
}

func TestClusterJSONBatchEquivalent(t *testing.T) {
	tc := startTestCluster(t, 2, 2)
	jitems := []collector.BatchItem{
		{Endpoint: "/v1/uptime", Key: "rt-json-1:n:1",
			Body: json.RawMessage(`{"router_id":"rt-json-1","reported_at":"2013-04-01T12:00:00Z","uptime_ns":3600000000000}`)},
		{Endpoint: "/v1/register", Key: "",
			Body: json.RawMessage(`{"router_id":"rt-json-1","country":"US"}`)},
	}
	body, err := json.Marshal(jitems)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(frontURL(tc)+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res collector.BatchResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || res.Applied != 2 || len(res.Failed) != 0 {
		t.Fatalf("JSON batch via front: status %d result %+v", resp.StatusCode, res)
	}
	country := ""
	for _, nd := range tc.nodes {
		if cc, ok := nd.Store().RouterCountry["rt-json-1"]; ok {
			country = cc
		}
	}
	if country != "US" {
		t.Fatalf("register did not land: country %q", country)
	}
}

func TestClusterDirectEndpointProxy(t *testing.T) {
	tc := startTestCluster(t, 2, 2)
	body := `{"router_id":"rt-direct-1","reported_at":"2013-04-01T12:00:00Z","uptime_ns":60000000000}`
	req, _ := http.NewRequest(http.MethodPost, frontURL(tc)+"/v1/uptime", bytes.NewReader([]byte(body)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", "rt-direct-1:d:1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("direct POST via front: status %d, want 204", resp.StatusCode)
	}
	if got := totalRows(tc); got != 1 {
		t.Fatalf("cluster holds %d rows, want 1", got)
	}
	// The direct write was replicated: its frame sits in one journal.
	frames := 0
	for _, nd := range tc.nodes {
		f, _, _ := nd.JournalStats()
		frames += f
	}
	if frames != 1 {
		t.Fatalf("journaled frames = %d, want 1", frames)
	}
}

// TestClusterFailoverReplaysJournal is the handoff contract in
// miniature: kill a node and every row it owned must reappear on its
// successor — exactly once — via the journaled NPB1 frames.
func TestClusterFailoverReplaysJournal(t *testing.T) {
	tc := startTestCluster(t, 2, 2)
	var items []wire.Item
	const routers = 24
	for i := 0; i < routers; i++ {
		items = append(items, uptimeItem(fmt.Sprintf("rt-fail-%03d", i), i))
	}
	postBatch(t, frontURL(tc), items)

	victim := tc.nodes[0]
	survivor := tc.nodes[1]
	lostRows := len(victim.Store().Uptime)
	if lostRows == 0 {
		t.Fatal("victim owned no rows; test cannot exercise failover")
	}
	if err := victim.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}

	waitFor(t, 10*time.Second, "journal replay to restore all rows", func() bool {
		return len(survivor.Store().Uptime) == routers
	})
	// Exactly once: a second scan tick must not re-apply anything.
	time.Sleep(5 * fastGossip.Interval)
	if got := len(survivor.Store().Uptime); got != routers {
		t.Fatalf("survivor holds %d rows after replay, want %d", got, routers)
	}
	// Retries of already-acked keys still dedupe after the handoff.
	res, status, err := tryPostBatch(frontURL(tc), items)
	if err != nil || status != http.StatusOK {
		t.Fatalf("post-failover replay: status %d err %v", status, err)
	}
	if res.Applied != 0 || res.Duplicates != routers {
		t.Fatalf("post-failover replay result %+v, want %d duplicates", res, routers)
	}
}

// TestClusterRejoinManifestSeedsDedupe pins the rejoin protocol: a
// node that comes back empty pulls key manifests before taking writes,
// so a retry of a write acked during its absence dedupes instead of
// double-applying.
// TestManifestWithholdsRebornJoinersOrphans pins the race behind the
// chaos soak's lost rows: a reborn node pulls its join manifests before
// it gossips, so a peer that has not yet judged the previous life dead
// still believes the owner holds the rows of the frames it journaled
// for it — and served their keys. Seeded with those keys, the reborn
// owner flattened the failover replay of the same frames to duplicates
// and the rows were gone for good. The requester's own Member entry
// carries its incarnation; a newer one than the peer knows must
// withhold the unreplayed frames' keys, in both manifest modes.
func TestManifestWithholdsRebornJoinersOrphans(t *testing.T) {
	tc := startTestCluster(t, 2, 2)
	owner, holder := tc.nodes[0], tc.nodes[1]
	it := uptimeItem("rt-orphan", 1)
	frame := &Message{Kind: MsgReplicate, Replicate: &Replicate{
		Owner: owner.ID(), Successors: []string{holder.ID()}, Batch: wire.AppendBatch(nil, []wire.Item{it})}}
	if _, err := postCtrl(holder.httpc, holder.CtrlAddr(), "/cluster/replicate", frame, 5*time.Second); err != nil {
		t.Fatalf("replicate: %v", err)
	}
	self, ok := holder.ms.lookup(owner.ID())
	if !ok {
		t.Fatal("holder does not know the owner")
	}
	served := func(inc uint64, targeted bool) int {
		t.Helper()
		self.Incarnation = inc
		req := &ManifestRequest{Joiner: owner.ID(), Members: []Member{self}}
		if targeted {
			req.Routers = []string{"rt-orphan"}
		}
		m, err := postCtrl(holder.httpc, holder.CtrlAddr(), "/cluster/manifest",
			&Message{Kind: MsgManifestRequest, ManifestReq: req}, 5*time.Second)
		if err != nil {
			t.Fatalf("manifest: %v", err)
		}
		keys := 0
		for _, en := range m.ManifestResp.Entries {
			keys += len(en.Keys)
		}
		return keys
	}
	known := self.Incarnation
	for _, targeted := range []bool{false, true} {
		if got := served(known, targeted); got != 1 {
			t.Errorf("targeted=%v: %d keys served to the owner's known life, want the journaled 1", targeted, got)
		}
		if got := served(known+1, targeted); got != 0 {
			t.Errorf("targeted=%v: %d keys of an unreplayed frame served to a reborn owner, want 0", targeted, got)
		}
	}
}

func TestClusterRejoinManifestSeedsDedupe(t *testing.T) {
	nodeA, err := NewNode(NodeConfig{ID: "node-a",
		UDPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", CtrlAddr: "127.0.0.1:0",
		Gossip: fastGossip})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()

	// Apply keys for many routers on A (alone, it owns everything).
	var items []wire.Item
	const routers = 64
	for i := 0; i < routers; i++ {
		items = append(items, uptimeItem(fmt.Sprintf("rt-join-%03d", i), i))
	}
	res, status, err := tryPostBatch("http://"+nodeA.DataAddr(), items)
	if err != nil || status != http.StatusOK || res.Applied != routers {
		t.Fatalf("seed writes: status %d result %+v err %v", status, res, err)
	}

	// B joins; the two-node ring hands it roughly half the routers.
	nodeB, err := NewNode(NodeConfig{ID: "node-b",
		UDPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", CtrlAddr: "127.0.0.1:0",
		Peers: []string{nodeA.CtrlAddr()}, Gossip: fastGossip})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()

	ring := NewRing([]string{"node-a", "node-b"}, DefaultVnodes)
	var bItems []wire.Item
	for i := 0; i < routers; i++ {
		router := fmt.Sprintf("rt-join-%03d", i)
		if ring.Owner(router) == "node-b" {
			bItems = append(bItems, uptimeItem(router, i))
		}
	}
	if len(bItems) == 0 {
		t.Fatal("node-b owns no seeded routers; widen the router set")
	}
	// Replaying those keys directly against B must dedupe via the
	// manifest-seeded index, not re-apply.
	res, status, err = tryPostBatch("http://"+nodeB.DataAddr(), bItems)
	if err != nil || status != http.StatusOK {
		t.Fatalf("replay at joiner: status %d err %v", status, err)
	}
	if res.Applied != 0 || res.Duplicates != len(bItems) {
		t.Fatalf("replay at joiner result %+v, want %d duplicates", res, len(bItems))
	}
	if rows := len(nodeB.Store().Uptime); rows != 0 {
		t.Fatalf("joiner applied %d rows from replayed keys, want 0", rows)
	}
}

// TestForgedBatchCountAllocatesLittle: an NPB1 envelope may claim one
// item per byte that follows it, and a wire.Item is some hundred times
// larger than a byte, so sizing the output from the claim lets an 8 MiB
// body reserve gigabytes before its first item fails to decode. What a
// body makes the front allocate must stay within a small multiple of its
// length; honest batches, under and over the pre-size, decode as before.
func TestForgedBatchCountAllocatesLittle(t *testing.T) {
	const n = 8 << 20
	body := binary.AppendUvarint([]byte("NPB1"), n)
	body = append(body, bytes.Repeat([]byte{0xff}, n)...) // no varint ends: item 0 fails
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	items, err := decodeBatchItems(wire.ContentTypeBinary, body)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("forged batch decoded to %d items", len(items))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*n {
		t.Fatalf("forged count on a %d-byte body allocated %d bytes", len(body), got)
	}

	for _, count := range []int{0, 1, 64, 3 * transferBatchItems} {
		want := make([]wire.Item, count)
		for i := range want {
			want[i] = uptimeItem(fmt.Sprintf("rt-%03d", i%7), i)
		}
		got, err := decodeBatchItems(wire.ContentTypeBinary, wire.AppendBatch(nil, want))
		if err != nil {
			t.Fatalf("%d honest items: %v", count, err)
		}
		if len(got) != count || (count > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%d honest items decoded to %d different ones", count, len(got))
		}
	}
}
