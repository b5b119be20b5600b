package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/segment"
	"natpeek/internal/wire"
)

var discard = slog.New(slog.NewTextHandler(io.Discard, nil))

// TestCollectorFlagsApplyInBothModes is the regression for -fail-rate
// and -fail-seed parsing in cluster mode and doing nothing: they were
// applied in the stand-alone branch of main only. With -fail-rate 1
// every data-plane upload is answered 503 (rejected, or applied with the
// ack dropped), and even that answer advertises NPB1 — on a stand-alone
// collector and on a cluster node's.
func TestCollectorFlagsApplyInBothModes(t *testing.T) {
	for _, cluster := range []bool{false, true} {
		o := options{udp: "127.0.0.1:0", http: "127.0.0.1:0", ctrl: "127.0.0.1:0", nodeID: "flags-node",
			segments: t.TempDir(), cluster: cluster, failRate: 1, failSeed: 7}
		store, err := openStore(o)
		if err != nil {
			t.Fatal(err)
		}
		srv, node, err := start(o, store, discard)
		if err != nil {
			t.Fatalf("cluster=%v: %v", cluster, err)
		}
		if (node != nil) != cluster {
			t.Fatalf("cluster=%v: node = %v", cluster, node)
		}
		closeServer := srv.Close
		if node != nil {
			closeServer = node.Close
		}
		resp, err := http.Post("http://"+srv.HTTPAddr()+"/v1/batch", wire.ContentTypeBinary,
			bytes.NewReader(wire.AppendBatch(nil, nil)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("cluster=%v: -fail-rate 1 answered an upload %d, want 503", cluster, resp.StatusCode)
		}
		if ap, want := resp.Header.Get("Accept-Post"), "application/x-natpeek-batch, application/json"; ap != want {
			t.Errorf("cluster=%v: Accept-Post = %q, want %q", cluster, ap, want)
		}
		closeServer()
		store.Close()
	}
}

// TestClusterNodeRefusesNonEmptyStore: a cluster node restarted on the
// segments of an earlier life would hold its rows twice once its peers
// replay that life's journal, so start refuses it; a stand-alone server
// reloads the same directory.
func TestClusterNodeRefusesNonEmptyStore(t *testing.T) {
	o := parseOptions([]string{"-out", t.TempDir(), "-udp", "127.0.0.1:0", "-http", "127.0.0.1:0", "-ctrl", "127.0.0.1:0", "-cluster"})
	store, err := openStore(o)
	if err != nil {
		t.Fatal(err)
	}
	store.Append("r1", func(st *dataset.Store) {
		st.Uptime = append(st.Uptime, dataset.UptimeReport{RouterID: "r1", ReportedAt: time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)})
	})
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store, err = openStore(o)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, _, err := start(o, store, discard); err == nil || !strings.Contains(err.Error(), "-segments") {
		t.Fatalf("cluster node on a non-empty store: err = %v, want a refusal naming -segments", err)
	}
	o.cluster = false
	srv, _, err := start(o, store, discard)
	if err != nil {
		t.Fatalf("stand-alone server on the same store: %v", err)
	}
	srv.Close()
}

// TestRowsPersistWithoutSave: a stand-alone server given a data
// directory and no -segments ingests into <out>/segments, so an
// uploaded batch is on disk once the collector and its store close —
// no CSV save — and a reopen of that directory finds every row.
func TestRowsPersistWithoutSave(t *testing.T) {
	dir := t.TempDir()
	o := parseOptions([]string{"-out", dir, "-udp", "127.0.0.1:0", "-http", "127.0.0.1:0"})
	store, err := openStore(o)
	if err != nil {
		t.Fatal(err)
	}
	srv, _, err := start(o, store, discard)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 5
	var items []wire.Item
	for i := 0; i < rows; i++ {
		items = append(items, wire.Item{Endpoint: "/v1/uptime", Key: fmt.Sprintf("r1:up:%d", i),
			Payload: wire.Payload{Kind: wire.KindUptime, Uptime: dataset.UptimeReport{RouterID: "r1",
				ReportedAt: time.Date(2013, 4, 1, i, 0, 0, 0, time.UTC), Uptime: time.Duration(i) * time.Hour}}})
	}
	resp, err := http.Post("http://"+srv.HTTPAddr()+"/v1/batch", wire.ContentTypeBinary,
		bytes.NewReader(wire.AppendBatch(nil, items)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("upload answered %d", resp.StatusCode)
	}
	srv.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat(filepath.Join(dir, dataset.FileUptime)); !os.IsNotExist(err) {
		t.Fatalf("a CSV save ran: %v", err)
	}
	re, err := segment.Open(segment.Options{Dir: filepath.Join(dir, "segments"), NoCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := len(re.Merge().Uptime); got != rows {
		t.Fatalf("reopened %s holds %d uptime rows, want %d", filepath.Join(dir, "segments"), got, rows)
	}
}
