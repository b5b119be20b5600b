package main

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"testing"

	"natpeek/internal/wire"
)

// TestCollectorFlagsApplyInBothModes is the regression for -fail-rate,
// -fail-seed and -no-binary parsing in cluster mode and doing nothing:
// they were applied in the stand-alone branch of main only. With
// -fail-rate 1 every data-plane upload is answered 503 (rejected, or
// applied with the ack dropped), and with -no-binary no response
// advertises NPB1 — on a stand-alone collector and on a cluster node's.
func TestCollectorFlagsApplyInBothModes(t *testing.T) {
	for _, cluster := range []bool{false, true} {
		o := options{udp: "127.0.0.1:0", http: "127.0.0.1:0", ctrl: "127.0.0.1:0", nodeID: "flags-node",
			cluster: cluster, failRate: 1, failSeed: 7, noBinary: true}
		srv, node, err := start(o, nil, slog.New(slog.NewTextHandler(io.Discard, nil)))
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
		if ap := resp.Header.Get("Accept-Post"); ap != "" {
			t.Errorf("cluster=%v: -no-binary still advertises %q", cluster, ap)
		}
		closeServer()
	}
}
