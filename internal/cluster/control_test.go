package cluster

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func sampleMessages() map[string]*Message {
	members := []Member{
		{ID: "node-a", Role: RoleNode, CtrlAddr: "127.0.0.1:7101", DataAddr: "127.0.0.1:7001",
			Incarnation: 17, Beat: 42},
		{ID: "front-1", Role: RoleFront, CtrlAddr: "127.0.0.1:7102", DataAddr: "127.0.0.1:7002",
			Incarnation: 3, Beat: 9000},
		{}, // zero member survives the trip too
	}
	epochMembers := []Member{
		{ID: "node-a", Role: RoleNode, CtrlAddr: "127.0.0.1:7101", DataAddr: "127.0.0.1:7001",
			Incarnation: 17, Beat: 42, EpochVersion: 7},
		{ID: "node-d", Role: RoleNode, CtrlAddr: "127.0.0.1:7104", DataAddr: "127.0.0.1:7004",
			Incarnation: 1, Beat: 2, EpochVersion: 8, Joining: true},
	}
	return map[string]*Message{
		"gossip":       {Kind: MsgGossip, Gossip: &Gossip{From: "node-a", Members: members}},
		"gossip-empty": {Kind: MsgGossip, Gossip: &Gossip{From: "joiner"}},
		"gossip-epochs": {Kind: MsgGossip, Gossip: &Gossip{From: "node-a", Members: epochMembers,
			Cur:  &RingEpoch{Version: 7, Committed: true, Nodes: []string{"node-a", "node-b", "node-c"}},
			Next: &RingEpoch{Version: 8, Nodes: []string{"node-a", "node-b", "node-c", "node-d"}}}},
		"gossip-pending-only": {Kind: MsgGossip, Gossip: &Gossip{From: "front-1",
			Next: &RingEpoch{Version: 1, Nodes: []string{"node-a"}}}},
		"transfer-request": {Kind: MsgTransferRequest, TransferReq: &TransferRequest{
			From:  "node-d",
			Epoch: &RingEpoch{Version: 8, Nodes: []string{"node-a", "node-b", "node-c", "node-d"}}}},
		"transfer-request-bare": {Kind: MsgTransferRequest, TransferReq: &TransferRequest{From: "node-d"}},
		"transfer-response": {Kind: MsgTransferResponse, TransferResp: &TransferResponse{
			From: "node-a", Rows: 123456}},
		"transfer-keys": {Kind: MsgTransferKeys, TransferKeys: &TransferKeys{
			From: "node-a", Entries: []ManifestEntry{
				{Router: "rt-0001", Keys: []string{"rt-0001:xfer:node-a:1:1:0", "rt-0001:n:9"}},
				{Router: "rt-0002"},
			}}},
		"transfer-keys-empty": {Kind: MsgTransferKeys, TransferKeys: &TransferKeys{From: "node-a"}},
		"drain":               {Kind: MsgDrain, Drain: &Drain{Node: "node-b"}},
		"manifest-request": {Kind: MsgManifestRequest,
			ManifestReq: &ManifestRequest{Joiner: "node-b", Members: members[:2]}},
		"manifest-request-targeted": {Kind: MsgManifestRequest,
			ManifestReq: &ManifestRequest{Joiner: "node-b", Routers: []string{"rt-0001", "rt-0002"}}},
		"manifest-response": {Kind: MsgManifestResponse,
			ManifestResp: &ManifestResponse{From: "node-a", Entries: []ManifestEntry{
				{Router: "rt-0001", Keys: []string{"rt-0001:n:1", "rt-0001:n:2"}},
				{Router: "rt-0002"},
			}}},
		"replicate": {Kind: MsgReplicate, Replicate: &Replicate{
			Owner: "node-a", Successors: []string{"node-b", "node-c"},
			Batch: []byte("NPB1\x00")}},
		"replicate-empty-batch": {Kind: MsgReplicate, Replicate: &Replicate{
			Owner: "node-a", Successors: []string{"node-b"}, Batch: []byte{}}},
	}
}

func TestControlRoundTrip(t *testing.T) {
	for name, m := range sampleMessages() {
		buf := AppendMessage(nil, m)
		got, err := DecodeMessage(buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%s: round trip mismatch:\nwant %+v\ngot  %+v", name, m, got)
		}
		if again := AppendMessage(nil, got); !bytes.Equal(buf, again) {
			t.Errorf("%s: re-encode is not byte-stable", name)
		}
	}
}

// TestEncodingMatchesParent pins "same bytes on the control plane":
// every sample message must encode to exactly what the hand-rolled
// encoder produced at the commit before NPC1 became a schema over
// internal/codec (testdata/parent_npc1.txt, "name hex" per line, was
// written there).
func TestEncodingMatchesParent(t *testing.T) {
	want, err := os.ReadFile("testdata/parent_npc1.txt")
	if err != nil {
		t.Fatal(err)
	}
	msgs := sampleMessages()
	names := make([]string, 0, len(msgs))
	for name := range msgs {
		names = append(names, name)
	}
	sort.Strings(names)
	var got strings.Builder
	for _, name := range names {
		fmt.Fprintf(&got, "%s %x\n", name, AppendMessage(nil, msgs[name]))
	}
	if got.String() != string(want) {
		t.Fatalf("NPC1 bytes changed:\ngot\n%swant\n%s", got.String(), want)
	}
}

// memberWithFlags encodes a one-member gossip and forges the member's
// flags byte (it sits right before the two epoch presence bytes).
func memberWithFlags(flags byte) []byte {
	buf := AppendMessage(nil, &Message{Kind: MsgGossip,
		Gossip: &Gossip{From: "x", Members: []Member{{ID: "m"}}}})
	buf[len(buf)-3] = flags
	return buf
}

func TestControlDecodeRejects(t *testing.T) {
	good := AppendMessage(nil, sampleMessages()["gossip"])
	cases := map[string][]byte{
		"empty":            nil,
		"bad-magic":        []byte("JSON{}"),
		"magic-only":       []byte(ctrlMagic),
		"unknown-kind":     append([]byte(ctrlMagic), 0x7f),
		"truncated":        good[:len(good)-3],
		"trailing-garbage": append(append([]byte(nil), good...), 0xde, 0xad),
		// A count claiming more members than there are bytes left must
		// be refused before any allocation sized from it.
		"forged-count": append([]byte(ctrlMagic+string(rune(MsgGossip))), 0x00, 0xff, 0xff, 0xff, 0x7f),
		// Same bound on the transfer-keys path: a forged entry count
		// (and a forged per-router key count) must be refused before
		// any allocation — a drain peer is still an untrusted input.
		"forged-transfer-entries": append([]byte(ctrlMagic+string(rune(MsgTransferKeys))),
			0x00, 0xff, 0xff, 0xff, 0x7f),
		"forged-transfer-keys": append([]byte(ctrlMagic+string(rune(MsgTransferKeys))),
			0x00, 0x01, 0x00, 0xff, 0xff, 0xff, 0x7f),
		// Epoch encodings are canonical: presence and committed bytes
		// outside {0,1} are refused, not normalized, so gossip relays
		// stay byte-stable.
		"epoch-bad-presence": append([]byte(ctrlMagic+string(rune(MsgTransferRequest))), 0x00, 0x02),
		"epoch-bad-committed": append([]byte(ctrlMagic+string(rune(MsgTransferRequest))),
			0x00, 0x01, 0x07, 0x02, 0x00),
		// A forged node count inside an epoch hits the same pre-alloc
		// bound as list counts everywhere else.
		"epoch-forged-nodes": append([]byte(ctrlMagic+string(rune(MsgTransferRequest))),
			0x00, 0x01, 0x07, 0x01, 0xff, 0xff, 0xff, 0x7f),
		// Member flags are versioned: unknown bits are a decode error
		// (a newer peer's flags must not be silently dropped by an
		// older relay and re-gossiped stripped).
		"member-unknown-flags": memberWithFlags(0xfe),
	}
	for name, buf := range cases {
		if _, err := DecodeMessage(buf); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
	}
}

// TestReplicateBatchCopied pins that a decoded Replicate does not alias
// the request buffer: the journal retains batches long after the HTTP
// body's backing array is reused.
func TestReplicateBatchCopied(t *testing.T) {
	buf := AppendMessage(nil, sampleMessages()["replicate"])
	m, err := DecodeMessage(buf)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), m.Replicate.Batch...)
	for i := range buf {
		buf[i] = 0xaa
	}
	if !bytes.Equal(m.Replicate.Batch, want) {
		t.Fatal("Replicate.Batch aliases the decode input")
	}
}
