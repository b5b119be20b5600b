package cluster

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"strings"
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

// equivalenceItems is the collector's seeded equivalence list, for the
// front: registration, typed kinds, a sightings-only census, a
// redelivered key, a year-1850 timestamp, a malformed body and an
// unknown endpoint, spread over two routers so the upload splits across
// placement groups. Each router also sends one row of every kind at each
// of pathInstants, and one row stamped +05:30.
func equivalenceItems() []collector.BatchItem {
	raw := func(endpoint, key, body string) collector.BatchItem {
		return collector.BatchItem{Endpoint: endpoint, Key: key, Body: json.RawMessage(body)}
	}
	body := func(v any) json.RawMessage { b, _ := json.Marshal(v); return b }
	var items []collector.BatchItem
	for _, r := range []string{"rt-eq-a", "rt-eq-b"} {
		up := raw("/v1/uptime", r+":eq:up", `{"RouterID":"`+r+`","ReportedAt":"2013-04-01T12:00:00Z","Uptime":3600000000000}`)
		items = append(items,
			raw("/v1/register", "", `{"router_id":"`+r+`","country":"US"}`),
			up,
			raw("/v1/capacity", r+":eq:cap", `{"RouterID":"`+r+`","MeasuredAt":"2013-04-01T12:00:00Z","UpBps":1e6,"DownBps":16e6}`),
			raw("/v1/devices", r+":eq:dev", `{"count":{"RouterID":"`+r+`","At":"2013-04-01T12:00:00Z","Wired":1,"W24":2,"W5":0},`+
				`"sightings":[{"RouterID":"`+r+`","At":"2013-04-01T12:00:00Z","Device":"00:1c:b3:a1:b2:c3","Kind":1}]}`),
			raw("/v1/devices", r+":eq:sight", `{"sightings":[{"RouterID":"`+r+`","At":"2013-04-01T12:01:00Z","Device":"00:1c:b3:a1:b2:c3","Kind":0}]}`),
			raw("/v1/wifi", r+":eq:wifi", `[{"RouterID":"`+r+`","At":"2013-04-01T12:00:00Z","Band":"2.4GHz","Channel":11,"VisibleAPs":7,"Clients":2}]`),
			up, // redelivered
			raw("/v1/uptime", r+":eq:old", `{"RouterID":"`+r+`","ReportedAt":"1850-01-01T00:00:00Z","Uptime":1}`),
			raw("/v1/uptime", r+":eq:bad", `{"RouterID":42}`),
			raw("/v1/nope", r+":eq:unknown", `{}`),
			raw("/v1/capacity", r+":eq:zone", `{"RouterID":"`+r+`","MeasuredAt":"2013-04-01T17:30:00.5+05:30","UpBps":2e6,"DownBps":8e6}`))
		for i, at := range pathInstants {
			st := instantRows(r, at)
			key := func(kind string) string { return fmt.Sprintf("%s:eq:t%d:%s", r, i, kind) }
			items = append(items,
				collector.BatchItem{Endpoint: "/v1/uptime", Key: key("up"), Body: body(st.Uptime[0])},
				collector.BatchItem{Endpoint: "/v1/capacity", Key: key("cap"), Body: body(st.Capacity[0])},
				collector.BatchItem{Endpoint: "/v1/devices", Key: key("dev"), Body: body(wire.Census{Count: st.Counts[0], Sightings: st.Sightings})},
				collector.BatchItem{Endpoint: "/v1/wifi", Key: key("wifi"), Body: body(st.WiFi)},
				collector.BatchItem{Endpoint: "/v1/traffic/flows", Key: key("flow"), Body: body(st.Flows)},
				collector.BatchItem{Endpoint: "/v1/traffic/throughput", Key: key("tput"), Body: body(st.Throughput)})
		}
	}
	return items
}

// pathInstants are instants every path a row can take must store
// exactly: none fits NPB1's delta chain, and the first and last lie at
// the edges of what RFC 3339 carries.
var pathInstants = []time.Time{
	time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC),
	time.Date(1500, 1, 1, 0, 0, 0, 0, time.UTC),
	time.Date(1677, 1, 1, 0, 0, 0, 0, time.UTC),
	time.Date(2263, 1, 1, 0, 0, 0, 0, time.UTC),
	time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
}

// instantRows is one row of every kind for router r, each stamped at.
func instantRows(r string, at time.Time) *dataset.Store {
	st := dataset.NewStore()
	st.Uptime = append(st.Uptime, dataset.UptimeReport{RouterID: r, ReportedAt: at, Uptime: time.Hour})
	st.Capacity = append(st.Capacity, dataset.CapacityMeasure{RouterID: r, MeasuredAt: at, UpBps: 1e6, DownBps: 16e6})
	st.Counts = append(st.Counts, dataset.DeviceCount{RouterID: r, At: at, Wired: 1, W24: 2})
	st.Sightings = append(st.Sightings, dataset.DeviceSighting{RouterID: r, At: at, Kind: dataset.Wireless24})
	st.WiFi = append(st.WiFi, dataset.WiFiScan{RouterID: r, At: at, Band: "2.4GHz", Channel: 11, VisibleAPs: 7, Clients: 2})
	st.Flows = append(st.Flows, dataset.FlowRecord{RouterID: r, Domain: "example.com", Proto: "tcp",
		First: at, Last: at, UpBytes: 10, DownBytes: 20, UpPkts: 1, DownPkts: 2, Conns: 1})
	st.Throughput = append(st.Throughput, dataset.ThroughputSample{RouterID: r, Minute: at, Dir: "down", PeakBps: 8e6, TotalBytes: 1 << 20})
	return st
}

// uploadAs sends items to baseURL, a front or a collector, in one
// shape — "npb1" and
// "json" as one /v1/batch request, "direct" as one keyed POST per item
// (an unknown endpoint has no direct form: the mux refuses it) — and
// returns the result as a batch would report it. A direct post answers
// 204 for applied and deduplicated alike, so that column counts both as
// applied.
func uploadAs(t *testing.T, baseURL, shape string, items []collector.BatchItem) collector.BatchResult {
	t.Helper()
	var res collector.BatchResult
	post := func(path, contentType, key string, body []byte) (int, []byte) {
		req, err := http.NewRequest(http.MethodPost, baseURL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, msg
	}
	if shape == "direct" {
		for _, it := range items {
			status, msg := http.StatusBadRequest, []byte("unknown endpoint")
			if it.Endpoint != "/v1/nope" {
				status, msg = post(it.Endpoint, "application/json", it.Key, it.Body)
			}
			switch status {
			case http.StatusNoContent:
				res.Applied++
			case http.StatusBadRequest:
				res.Rejected++
				res.Failed = append(res.Failed, collector.BatchFailure{Endpoint: it.Endpoint, Key: it.Key, Reason: string(bytes.TrimSpace(msg))})
			default:
				t.Fatalf("direct %s to %s: status %d (%s)", it.Endpoint, baseURL, status, msg)
			}
		}
		return res
	}
	body, contentType := []byte(nil), "application/json"
	if shape == "npb1" {
		wireItems := make([]wire.Item, len(items))
		for i, it := range items {
			wireItems[i] = wire.Item{Endpoint: it.Endpoint, Key: it.Key, Payload: wire.PayloadFromJSON(it.Endpoint, it.Body)}
		}
		body, contentType = wire.AppendBatch(nil, wireItems), wire.ContentTypeBinary
	} else {
		var err error
		if body, err = json.Marshal(items); err != nil {
			t.Fatal(err)
		}
	}
	status, msg := post("/v1/batch", contentType, "", body)
	if err := json.Unmarshal(msg, &res); err != nil || status != http.StatusOK {
		t.Fatalf("%s batch to %s: status %d: %s", shape, baseURL, status, msg)
	}
	return res
}

// TestClusterJSONBatchEquivalent sends one seeded payload list through
// a front as an NPB1 batch, as a JSON batch and as direct posts, each
// into a fresh cluster: the same rows on the same ring owners, the same
// per-item outcome and reject reason whichever shape the upload took.
// The rows must also survive every other path unchanged — direct posts
// to a stand-alone collector, the failover replay of a killed owner's
// journaled frames, and a transfer of the survivor's store — stamped in
// years 1 to 9999 or +05:30 as they are.
func TestClusterJSONBatchEquivalent(t *testing.T) {
	var want struct {
		rows string
		res  collector.BatchResult
	}
	for _, shape := range []string{"npb1", "json", "direct"} {
		tc := startTestCluster(t, 2, 2)
		res := uploadAs(t, frontURL(tc), shape, equivalenceItems())
		sort.Slice(res.Failed, func(i, j int) bool { return res.Failed[i].Key < res.Failed[j].Key })
		var perNode []string
		for _, nd := range tc.nodes {
			st := nd.Store()
			b, err := json.Marshal([]any{st.RouterCountry, st.Uptime, st.Capacity, st.Counts, st.Sightings, st.WiFi, st.Flows, st.Throughput})
			if err != nil {
				t.Fatal(err)
			}
			perNode = append(perNode, nd.ID()+" "+string(b))
		}
		rows := strings.Join(perNode, "\n")
		if shape == "npb1" {
			want.rows, want.res = rows, res
			// Per router: 38 applied (registration, five typed items, the
			// old timestamp, the zoned row, six per instant), 1 duplicate,
			// 2 rejected; 43 rows (7 per instant).
			if res.Applied != 76 || res.Duplicates != 2 || res.Rejected != 4 || len(res.Failed) != 4 ||
				res.Failed[1].Reason != "unknown endpoint" || !strings.HasPrefix(res.Failed[0].Reason, "decode error: ") {
				t.Fatalf("npb1 via front: %+v", res)
			}
			if got := totalRows(tc); got != 2*43 {
				t.Fatalf("cluster holds %d rows, want 86", got)
			}
			checkOtherPaths(t, tc)
			continue
		}
		if rows != want.rows {
			t.Errorf("%s via front: rows differ from npb1:\n%s\nnpb1\n%s", shape, rows, want.rows)
		}
		if shape == "direct" { // 204 does not tell applied from deduplicated
			res.Applied, res.Duplicates = res.Applied-want.res.Duplicates, want.res.Duplicates
		}
		if !reflect.DeepEqual(res, want.res) {
			t.Errorf("%s via front: result %+v, npb1 %+v", shape, res, want.res)
		}
	}
}

// checkOtherPaths takes the rows tc's nodes hold together through the
// paths that do not start at a front: direct posts to a stand-alone
// collector, the failover replay of the owner of rt-eq-a's journaled
// frames after it is killed, and a transfer of the survivor's store,
// delivered to one node and restored into another. Each must hold
// exactly those rows.
func checkOtherPaths(t *testing.T, tc *testCluster) {
	t.Helper()
	want := append(storeRows(tc.nodes[0].Store()), storeRows(tc.nodes[1].Store())...)
	sort.Strings(want)
	same := func(path string, st *dataset.Store) {
		t.Helper()
		if got := storeRows(st); !reflect.DeepEqual(got, want) {
			t.Errorf("%s rows differ from the front's:\n%s\nwant\n%s", path, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}

	srv, err := collector.NewServer("127.0.0.1:0", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	uploadAs(t, "http://"+srv.HTTPAddr(), "direct", equivalenceItems())
	same("stand-alone direct", srv.Store())

	victim, survivor := tc.nodes[0], tc.nodes[1]
	if NewRing([]string{"node-0", "node-1"}, DefaultVnodes).Owner("rt-eq-a") != victim.ID() {
		victim, survivor = survivor, victim
	}
	if err := victim.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	waitFor(t, 10*time.Second, "journal replay to restore every row", func() bool {
		return len(storeRows(survivor.Store())) == len(want)
	})
	same("failover replay", survivor.Store())

	chunks := transferChunks("src", 1, survivor.Store(), NewRing([]string{"dst"}, DefaultVnodes), map[string]Member{"dst": {}})
	dst, src := soloNode(t, "eq-dst"), soloNode(t, "eq-src")
	var sent []wire.Item
	for _, ch := range chunks {
		postBatch(t, "http://"+dst.DataAddr(), ch.items)
		sent = append(sent, ch.items...)
	}
	src.restoreItems(sent)
	same("transfer", dst.Store())
	same("restored transfer", src.Store())
}

// TestAcceptPostAdvertisement: a stand-alone collector, a cluster node
// and a front answer every upload endpoint, whether they accept the body
// or refuse it, with the same Accept-Post value. Gateways already
// deployed with a negotiating client switch their batches to NPB1 on it.
func TestAcceptPostAdvertisement(t *testing.T) {
	const want = "application/x-natpeek-batch, application/json"
	tc := startTestCluster(t, 1, 1)
	srv, err := collector.NewServer("127.0.0.1:0", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, target := range []struct{ name, addr string }{
		{"collector", srv.HTTPAddr()}, {"node", tc.nodes[0].DataAddr()}, {"front", tc.front.HTTPAddr()},
	} {
		for _, ep := range append(collector.Endpoints(), collector.BatchEndpoint) {
			body, contentType := []byte("{}"), "application/json"
			if ep == collector.BatchEndpoint {
				body, contentType = wire.AppendBatch(nil, []wire.Item{uptimeItem("rt-accept", 0)}), wire.ContentTypeBinary
			}
			resp, err := http.Post("http://"+target.addr+ep, contentType, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if got := resp.Header.Get("Accept-Post"); got != want {
				t.Errorf("%s POST %s (status %d): Accept-Post = %q, want %q", target.name, ep, resp.StatusCode, got, want)
			}
		}
	}
}

// TestClusterDirectEndpointProxy posts to the front's direct endpoints:
// a plain keyed upload, a gzip'd keyed one and an unkeyed gzip'd
// registration each land once, on the ring owner of their router, and
// leave one replicate frame in the other node's journal. The gzip'd
// inputs are the regression for a front that forwarded compressed bytes
// labelled JSON (owner: 400) and routed an unkeyed one to the owner of "".
func TestClusterDirectEndpointProxy(t *testing.T) {
	tc := startTestCluster(t, 2, 2)
	ring := NewRing([]string{"node-0", "node-1"}, DefaultVnodes)
	gz := func(body string) []byte {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write([]byte(body))
		zw.Close()
		return buf.Bytes()
	}
	for i, in := range []struct {
		name, path, key, router string
		body                    []byte
		gzip                    bool
	}{
		{"plain keyed uptime", "/v1/uptime", "rt-direct-1:d:1", "rt-direct-1",
			[]byte(`{"RouterID":"rt-direct-1","ReportedAt":"2013-04-01T12:00:00Z","Uptime":60000000000}`), false},
		{"gzip keyed uptime", "/v1/uptime", "rt-direct-2:d:1", "rt-direct-2",
			gz(`{"RouterID":"rt-direct-2","ReportedAt":"2013-04-01T12:00:00Z","Uptime":60000000000}`), true},
		{"gzip unkeyed register", "/v1/register", "", "rt-direct-3",
			gz(`{"router_id":"rt-direct-3","country":"FR"}`), true},
	} {
		req, _ := http.NewRequest(http.MethodPost, frontURL(tc)+in.path, bytes.NewReader(in.body))
		req.Header.Set("Content-Type", "application/json")
		if in.key != "" {
			req.Header.Set("Idempotency-Key", in.key)
		}
		if in.gzip {
			req.Header.Set("Content-Encoding", "gzip")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("%s via front: status %d (%s), want 204", in.name, resp.StatusCode, bytes.TrimSpace(msg))
		}
		frames := 0
		for _, nd := range tc.nodes {
			st := nd.Store()
			holds := 0
			for _, row := range st.Uptime {
				if row.RouterID == in.router {
					holds++
				}
			}
			if _, ok := st.RouterCountry[in.router]; ok {
				holds++
			}
			if want := map[bool]int{true: 1}[nd.ID() == ring.Owner(in.router)]; holds != want {
				t.Errorf("%s: node %s (ring owner %s) holds %d copies, want %d", in.name, nd.ID(), ring.Owner(in.router), holds, want)
			}
			f, _, _ := nd.JournalStats()
			frames += f
		}
		// Each direct write was replicated: one more frame in a journal.
		if frames != i+1 {
			t.Fatalf("%s: journaled frames = %d, want %d", in.name, frames, i+1)
		}
	}
}

// TestFrontBodyLimits: the front refuses bodies exactly as a collector
// does, because it reads them with the collector's reader — 413 naming
// the limit for an oversized one, 400 for one that cannot be read (here
// a body that is not the gzip it claims to be), on /v1/batch and on a
// direct endpoint alike. The front used to answer 413 for every read
// error.
func TestFrontBodyLimits(t *testing.T) {
	tc := startTestCluster(t, 1, 1)
	for _, path := range []string{"/v1/batch", "/v1/uptime"} {
		for _, in := range []struct {
			body     []byte
			encoding string
			status   int
			says     string
		}{
			{bytes.Repeat([]byte(" "), 8<<20+1), "", http.StatusRequestEntityTooLarge, "8388608-byte limit"},
			{[]byte("not the gzip stream it claims to be"), "gzip", http.StatusBadRequest, "gzip: invalid header"},
		} {
			req, _ := http.NewRequest(http.MethodPost, frontURL(tc)+path, bytes.NewReader(in.body))
			req.Header.Set("Content-Type", "application/json")
			if in.encoding != "" {
				req.Header.Set("Content-Encoding", in.encoding)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != in.status || !strings.Contains(string(msg), in.says) {
				t.Errorf("%s, %d-byte body, encoding %q: status %d (%s), want %d naming %q",
					path, len(in.body), in.encoding, resp.StatusCode, bytes.TrimSpace(msg), in.status, in.says)
			}
		}
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

// TestManifestWithholdsRebornJoinersOrphans pins the race behind the
// chaos soak's lost rows: a reborn node can pull keys before a peer has
// judged its previous life dead, and that peer still believes the owner
// holds the rows of the frames it journaled for it — and served their
// keys. Seeded with those keys, the reborn owner flattened the failover
// replay of the same frames to duplicates and the rows were gone for
// good. The requester's own Member entry carries its incarnation; a
// newer one than the peer knows must withhold the unreplayed frames'
// keys. A request naming no routers is answered empty.
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
	served := func(inc uint64, routers ...string) int {
		t.Helper()
		self.Incarnation = inc
		m, err := postCtrl(holder.httpc, holder.CtrlAddr(), "/cluster/manifest", &Message{Kind: MsgManifestRequest,
			ManifestReq: &ManifestRequest{Joiner: owner.ID(), Members: []Member{self}, Routers: routers}}, 5*time.Second)
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
	if got := served(known, "rt-orphan"); got != 1 {
		t.Errorf("%d keys served to the owner's known life, want the journaled 1", got)
	}
	if got := served(known+1, "rt-orphan"); got != 0 {
		t.Errorf("%d keys of an unreplayed frame served to a reborn owner, want 0", got)
	}
	if got := served(known); got != 0 {
		t.Errorf("%d keys served to a request naming no routers, want 0", got)
	}
}

// soloNode starts a node outside any test cluster, learning the
// membership from peers.
func soloNode(t *testing.T, id string, peers ...string) *Node {
	t.Helper()
	nd, err := NewNode(NodeConfig{ID: id,
		UDPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", CtrlAddr: "127.0.0.1:0",
		Peers: peers, Gossip: fastGossip})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nd.Close() })
	return nd
}

// TestClusterRejoinManifestSeedsDedupe pins how a node that comes up
// empty learns its peers' keys: not at start — its dedupe index stays
// empty until a write arrives — but at each router's first keyed write,
// which the gate holds while it pulls the router's keys from every live
// peer. So a retry of a write acked elsewhere dedupes instead of
// double-applying.
func TestClusterRejoinManifestSeedsDedupe(t *testing.T) {
	nodeA := soloNode(t, "node-a")

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
	nodeB := soloNode(t, "node-b", nodeA.CtrlAddr())
	if got := nodeB.Collector().Sharded().DedupeLen(); got != 0 {
		t.Fatalf("joiner's dedupe index holds %d keys before its first write, want 0", got)
	}
	seeded := nodeB.mSeeded.Value()

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
	// index the gate seeded, not re-apply.
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
	if got := nodeB.mSeeded.Value() - seeded; got != uint64(len(bItems)) {
		t.Fatalf("joiner seeded %d keys from its peer, want the %d replayed", got, len(bItems))
	}
}

// TestFirstWriteGateSeesEveryKeyedPath: the first-write gate is the only
// way a node learns its peers' keys, so it must hold every path a keyed
// write reaches a node by — a client batch a front forwards, a failover
// replay, a transfer chunk — while an unkeyed write, which never
// consults the dedupe index, pulls nothing.
func TestFirstWriteGateSeesEveryKeyedPath(t *testing.T) {
	tc := startTestCluster(t, 2, 2)
	gated := func(nd *Node, router string) bool {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		_, ok := nd.routerGate[router]
		return ok
	}
	var routers []string
	var items []wire.Item
	for i := 0; i < 24; i++ {
		routers = append(routers, fmt.Sprintf("rt-gate-%02d", i))
		items = append(items, uptimeItem(routers[i], i))
	}
	unkeyed := uptimeItem("rt-gate-unkeyed", 0)
	unkeyed.Key = ""
	// owned lists the routers ring assigns to id, failing the test on none.
	owned := func(ring *Ring, id string) []string {
		var out []string
		for _, r := range routers {
			if ring.Owner(r) == id {
				out = append(out, r)
			}
		}
		if len(out) == 0 {
			t.Fatalf("the ring assigns %s none of the routers; widen the set", id)
		}
		return out
	}

	// Client batches a front forwards.
	postBatch(t, frontURL(tc), append(items, unkeyed))
	ring := NewRing([]string{"node-0", "node-1"}, DefaultVnodes)
	for _, nd := range tc.nodes {
		for _, r := range owned(ring, nd.ID()) {
			if !gated(nd, r) {
				t.Fatalf("forwarded batch: owner %s applied %s without the gate", nd.ID(), r)
			}
		}
		if gated(nd, unkeyed.Payload.Router()) {
			t.Fatalf("%s gated an unkeyed write", nd.ID())
		}
	}

	// Transfer chunks: node-2 joins and takes its share from both.
	joiner := addJoiningNode(t, tc, "node-2")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := joiner.JoinRing(ctx); err != nil {
		t.Fatalf("JoinRing: %v", err)
	}
	ring = NewRing([]string{"node-0", "node-1", "node-2"}, DefaultVnodes)
	for _, r := range owned(ring, "node-2") {
		if !gated(joiner, r) {
			t.Fatalf("transfer chunk: joiner applied %s without the gate", r)
		}
	}

	// Failover replays: node-0 dies, node-1 replays its frames into the
	// routers' owners among the survivors.
	victim := owned(ring, "node-0")
	tc.nodes[0].Kill()
	survivors := NewRing([]string{"node-1", "node-2"}, DefaultVnodes)
	byID := map[string]*Node{"node-1": tc.nodes[1], "node-2": joiner}
	waitFor(t, 10*time.Second, "failover replays through the new owners' gates", func() bool {
		for _, r := range victim {
			if !gated(byID[survivors.Owner(r)], r) {
				return false
			}
		}
		return true
	})
}

// storeRows renders every row of a store, roster entries included, as
// one JSON line each, sorted: the order-free form two stores compare in.
func storeRows(st *dataset.Store) []string {
	var rows []string
	for _, set := range []any{st.Uptime, st.Capacity, st.Counts, st.Sightings, st.WiFi, st.Flows, st.Throughput} {
		v := reflect.ValueOf(set)
		for i := 0; i < v.Len(); i++ {
			b, _ := json.Marshal(v.Index(i).Interface())
			rows = append(rows, string(b))
		}
	}
	for id, country := range st.RouterCountry {
		rows = append(rows, "register "+id+" "+country)
	}
	sort.Strings(rows)
	return rows
}

// TestTransferKeepsStoredTimes: a planned transfer re-encodes stored
// rows, so it must carry every time a store can hold. Every row kind for
// one router per instant — one in 2013, the rest pathInstants, which
// have no place on NPB1's delta chain (the year 1500 has no UnixNano:
// typed NPB1 once turned it into 2084) — must come out of the transfer
// chunks as stored: decoded and applied through a destination's data
// plane, and restored into the source as when the chunks cannot be
// delivered.
func TestTransferKeepsStoredTimes(t *testing.T) {
	moved := dataset.NewStore()
	for i, at := range append([]time.Time{time.Date(2013, 4, 1, 12, 0, 0, 0, time.UTC)}, pathInstants...) {
		r := fmt.Sprintf("rt-ts-%d", i)
		st := instantRows(r, at)
		moved.RouterCountry[r] = "US"
		moved.Uptime = append(moved.Uptime, st.Uptime...)
		moved.Capacity = append(moved.Capacity, st.Capacity...)
		moved.Counts = append(moved.Counts, st.Counts...)
		moved.Sightings = append(moved.Sightings, st.Sightings...)
		moved.WiFi = append(moved.WiFi, st.WiFi...)
		moved.Flows = append(moved.Flows, st.Flows...)
		moved.Throughput = append(moved.Throughput, st.Throughput...)
	}
	chunks := transferChunks("src", 1, moved, NewRing([]string{"dst"}, DefaultVnodes), map[string]Member{"dst": {}})
	dst, src := soloNode(t, "ts-dst"), soloNode(t, "ts-src")
	var sent []wire.Item
	for _, ch := range chunks {
		items, err := decodeItems(collector.BatchEndpoint, wire.ContentTypeBinary, "", wire.AppendBatch(nil, ch.items))
		if err != nil {
			t.Fatal(err)
		}
		postBatch(t, "http://"+dst.DataAddr(), items)
		sent = append(sent, ch.items...)
	}
	src.restoreItems(sent)
	want := storeRows(moved)
	for path, nd := range map[string]*Node{"delivered": dst, "restored": src} {
		if got := storeRows(nd.Store()); !reflect.DeepEqual(got, want) {
			t.Errorf("%s rows differ from the moved store:\n%s\nwant\n%s", path, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestForgedBatchCountAllocatesLittle: an NPB1 envelope may claim one
// item per byte that follows it, so sizing anything from the claim lets
// an 8 MiB body reserve gigabytes before its first item fails to decode.
// What such a body makes the front's split, a successor's index or the
// decode helper allocate must stay within a small multiple of its
// length; honest batches, under and over the pre-size, decode as before.
func TestForgedBatchCountAllocatesLittle(t *testing.T) {
	const n = 8 << 20
	body := binary.AppendUvarint([]byte("NPB1"), n)
	body = append(body, bytes.Repeat([]byte{0xff}, n)...) // no varint ends: item 0 fails
	f := &Front{cfg: FrontConfig{Replication: 2}, ms: newMembership(Member{ID: "front"}, GossipConfig{})}
	var sp wire.Splitter
	for name, run := range map[string]func() error{
		"front split": func() error {
			batch, err := uploadBatch("/v1/batch", wire.ContentTypeBinary, "", body)
			if err == nil {
				_, _, err = f.route(&sp, batch, time.Now(), time.Now())
			}
			return err
		},
		"successor index": func() error { _, _, err := indexFrame(body); return err },
		"decode helper":   func() error { _, err := decodeItems("/v1/batch", wire.ContentTypeBinary, "", body); return err },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := run()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: forged batch decoded", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 2*n {
			t.Fatalf("%s: forged count on a %d-byte body allocated %d bytes", name, len(body), got)
		}
	}

	for _, count := range []int{0, 1, 64, 3 * transferBatchItems} {
		want := make([]wire.Item, count)
		for i := range want {
			want[i] = uptimeItem(fmt.Sprintf("rt-%03d", i%7), i)
		}
		got, err := decodeItems("/v1/batch", wire.ContentTypeBinary, "", wire.AppendBatch(nil, want))
		if err != nil {
			t.Fatalf("%d honest items: %v", count, err)
		}
		if len(got) != count || (count > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%d honest items decoded to %d different ones", count, len(got))
		}
	}
}
