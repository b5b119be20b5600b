package cluster

import (
	"fmt"

	"natpeek/internal/codec"
)

// The control plane speaks a small binary protocol ("NPC1") over plain
// HTTP POSTs between peers: membership gossip, the key manifests a
// node's first-write gate pulls to seed its dedupe index, and the replicate
// frames the front fans out to a write's successor nodes. This file is
// the NPC1 schema — which field comes next — over internal/codec, which
// owns the varint framing and the bounds checks: counts and lengths are
// validated against the remaining input before a single byte of them is
// allocated, and trailing bytes after a complete message are an error,
// never silently ignored. What NPC1 keeps for itself is canonical form:
// flag and presence bytes have one legal value each and empty lists
// decode to nil, so a relayed message re-encodes to the bytes it came
// from. The codec is fuzzed (FuzzControlDecode) with checked-in seed
// corpora.

// ctrlMagic starts every NPC1 buffer ("natpeek control, version 1").
const ctrlMagic = "NPC1"

// MsgKind discriminates the control-plane message envelope.
type MsgKind uint8

// Control-plane message kinds.
const (
	MsgGossip MsgKind = iota + 1
	MsgManifestRequest
	MsgManifestResponse
	MsgReplicate
	MsgTransferRequest
	MsgTransferResponse
	MsgTransferKeys
	MsgDrain

	msgKindMax = MsgDrain
)

// Role distinguishes ring-eligible collector nodes from front routers.
type Role uint8

// Member roles. Only RoleNode members project points onto the hash
// ring; RoleFront members gossip so nodes know their routers, but own
// nothing.
const (
	RoleNode Role = iota
	RoleFront
)

func (r Role) String() string {
	if r == RoleFront {
		return "front"
	}
	return "node"
}

// Member is one process's gossiped identity. State is deliberately NOT
// part of the wire form: each process judges liveness locally from how
// recently a member's Beat advanced, so a partitioned peer's stale
// opinion can never declare a node dead cluster-wide.
type Member struct {
	ID       string
	Role     Role
	CtrlAddr string // control-plane HTTP address (gossip, replicate, manifest)
	DataAddr string // data-plane address (collector /v1/* for nodes, front HTTP for fronts)
	// Incarnation is bumped each time the process (re)starts — a
	// rejoining node's fresh incarnation supersedes everything peers
	// remember about its previous life, including its old addresses.
	Incarnation uint64
	// Beat is the member's self-incremented heartbeat counter; liveness
	// is "has this advanced recently, as observed by MY clock".
	Beat uint64
	// EpochVersion is the highest ring-epoch version this member has
	// seen (committed or pending). A rebalance coordinator waits for
	// every live member's EpochVersion to reach its proposal before
	// moving a single row — that barrier is what makes the fronts'
	// cutover fencing airtight.
	EpochVersion uint64
	// Joining marks a node that has started its process but not yet
	// completed ownership transfer: it gossips (so peers learn its
	// addresses and the epoch spreads) but must not appear in the
	// legacy membership-derived ring until its join epoch commits.
	Joining bool
}

// RingEpoch is one versioned ring composition. Epochs totally order
// planned membership changes: a committed epoch's Nodes ARE the ring
// (filtered by local liveness), and a pending epoch fences writes whose
// ownership is about to move. Versions only grow; gossip merges by
// version with committed state always superseding a pending proposal of
// the same version. The JSON tags are its ops-facing shape (GET
// /cluster/epoch); NPC1 encodes it by hand.
type RingEpoch struct {
	Version   uint64   `json:"version"`
	Committed bool     `json:"committed"`
	Nodes     []string `json:"nodes"`
}

func (e *RingEpoch) clone() *RingEpoch {
	if e == nil {
		return nil
	}
	return &RingEpoch{Version: e.Version, Committed: e.Committed,
		Nodes: append([]string(nil), e.Nodes...)}
}

// Gossip is one half of an anti-entropy exchange: the full membership
// the sender knows. The receiver merges it and answers with its own.
// Full-state exchange is quadratic in members but the tier is tens of
// processes, not thousands; delta gossip is a non-goal at this scale.
type Gossip struct {
	From    string
	Members []Member
	// Cur/Next piggyback the sender's ring-epoch state (latest
	// committed epoch and pending proposal, either may be nil) on every
	// exchange, so epochs spread exactly as fast as membership does.
	Cur  *RingEpoch
	Next *RingEpoch
}

// ManifestRequest is the first-write gate's pull: the idempotency keys
// the peer applied or journaled for exactly Routers, regardless of ring
// ownership (none named, none served). Joiner is the requester, and its
// own entry in Members carries its incarnation — which the peer trusts
// over its own view, to withhold the keys of frames whose rows died
// with the requester's previous life.
type ManifestRequest struct {
	Joiner  string
	Members []Member
	Routers []string
}

// ManifestEntry is one router's applied keys.
type ManifestEntry struct {
	Router string
	Keys   []string
}

// ManifestResponse is the answering peer's applied-key manifest.
type ManifestResponse struct {
	From    string
	Entries []ManifestEntry
}

// Replicate carries one acknowledged write to a successor node: the
// placement that chose it plus the raw NPB1 batch bytes, journaled
// verbatim. The successor applies no rows: it decodes the batch once to
// refuse bytes that could not replay and to index the frame's keys for
// manifests. If the owner dies, the first live successor replays the
// bytes as a plain /v1/batch POST and the idempotency keys inside make
// the replay converge.
type Replicate struct {
	Owner      string
	Successors []string
	Batch      []byte
}

// TransferRequest asks a peer to push every row it holds that the
// proposed epoch assigns to someone else, through the new owners' own
// data planes. The peer adopts Epoch as its pending proposal (fencing
// its view too), runs extract-and-send sessions until a pass moves
// nothing, and answers with the row count it moved — the coordinator
// keeps issuing rounds until a full round is all-zero.
type TransferRequest struct {
	From  string
	Epoch *RingEpoch
}

// TransferResponse reports one peer's completed transfer pass.
type TransferResponse struct {
	From string
	Rows uint64
}

// TransferKeys pushes moved routers' idempotency keys to their new
// owner, chunked, so client retries that land there after cutover
// dedupe instead of re-applying. (The new owner's first-write gate would
// pull the same keys; pushing them makes the window not depend on the
// source staying alive — essential for drains.)
type TransferKeys struct {
	From    string
	Entries []ManifestEntry
}

// Drain asks a node (always addressed to itself — the front relays the
// operator request to the named node's control plane) to transfer all
// its ownership away and leave the ring.
type Drain struct {
	Node string
}

// Message is the decoded one-of envelope; exactly the field matching
// Kind is non-nil.
type Message struct {
	Kind         MsgKind
	Gossip       *Gossip
	ManifestReq  *ManifestRequest
	ManifestResp *ManifestResponse
	Replicate    *Replicate
	TransferReq  *TransferRequest
	TransferResp *TransferResponse
	TransferKeys *TransferKeys
	Drain        *Drain
}

// AppendMessage encodes a message onto dst and returns the extended
// buffer.
func AppendMessage(dst []byte, m *Message) []byte {
	e := &codec.Enc{Buf: append(dst, ctrlMagic...)}
	e.Byte(byte(m.Kind))
	switch m.Kind {
	case MsgGossip:
		e.Str(m.Gossip.From)
		putMembers(e, m.Gossip.Members)
		putEpoch(e, m.Gossip.Cur)
		putEpoch(e, m.Gossip.Next)
	case MsgManifestRequest:
		e.Str(m.ManifestReq.Joiner)
		putMembers(e, m.ManifestReq.Members)
		putStrs(e, m.ManifestReq.Routers)
	case MsgManifestResponse:
		e.Str(m.ManifestResp.From)
		putEntries(e, m.ManifestResp.Entries)
	case MsgReplicate:
		e.Str(m.Replicate.Owner)
		putStrs(e, m.Replicate.Successors)
		e.Bytes(m.Replicate.Batch)
	case MsgTransferRequest:
		e.Str(m.TransferReq.From)
		putEpoch(e, m.TransferReq.Epoch)
	case MsgTransferResponse:
		e.Str(m.TransferResp.From)
		e.Uvarint(m.TransferResp.Rows)
	case MsgTransferKeys:
		e.Str(m.TransferKeys.From)
		putEntries(e, m.TransferKeys.Entries)
	case MsgDrain:
		e.Str(m.Drain.Node)
	}
	return e.Buf
}

// DecodeMessage decodes one NPC1 message. The whole buffer must be
// exactly one message: trailing bytes are an error. Each message's
// fields are read straight through in wire order (a composite literal
// evaluates its fields in source order) and the decoder's sticky error
// is checked once, at the end.
func DecodeMessage(buf []byte) (*Message, error) {
	d := codec.NewDec(buf)
	d.Magic(ctrlMagic)
	m := &Message{Kind: MsgKind(d.Byte())}
	switch m.Kind {
	case MsgGossip:
		m.Gossip = &Gossip{From: d.Str(), Members: getMembers(d), Cur: getEpoch(d), Next: getEpoch(d)}
	case MsgManifestRequest:
		m.ManifestReq = &ManifestRequest{Joiner: d.Str(), Members: getMembers(d), Routers: getStrs(d)}
	case MsgManifestResponse:
		m.ManifestResp = &ManifestResponse{From: d.Str(), Entries: getEntries(d)}
	case MsgReplicate:
		// The batch is copied out (callers journal it past the request
		// buffer's lifetime) and always non-nil, so an empty one
		// re-encodes identically.
		m.Replicate = &Replicate{Owner: d.Str(), Successors: getStrs(d), Batch: append([]byte{}, d.Bytes()...)}
	case MsgTransferRequest:
		m.TransferReq = &TransferRequest{From: d.Str(), Epoch: getEpoch(d)}
	case MsgTransferResponse:
		m.TransferResp = &TransferResponse{From: d.Str(), Rows: d.Uvarint()}
	case MsgTransferKeys:
		m.TransferKeys = &TransferKeys{From: d.Str(), Entries: getEntries(d)}
	case MsgDrain:
		m.Drain = &Drain{Node: d.Str()}
	default:
		if d.OK() {
			return nil, fmt.Errorf("cluster: unknown control message kind %d", m.Kind)
		}
	}
	if err := d.End(); err != nil {
		return nil, fmt.Errorf("cluster: corrupt control message: %w", err)
	}
	return m, nil
}

// Lists decode by appending, never by sizing from the claimed count,
// and stop at the first failure; an empty list stays nil so a message
// re-encodes to the bytes it came from.

func putStrs(e *codec.Enc, ss []string) {
	e.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.Str(s)
	}
}

func getStrs(d *codec.Dec) (out []string) {
	for n := d.Count(); n > 0 && d.OK(); n-- {
		out = append(out, d.Str())
	}
	return out
}

// Manifest responses and transfer-keys pushes carry the same list: per
// router, the idempotency keys applied for it.
func putEntries(e *codec.Enc, ens []ManifestEntry) {
	e.Uvarint(uint64(len(ens)))
	for _, en := range ens {
		e.Str(en.Router)
		putStrs(e, en.Keys)
	}
}

func getEntries(d *codec.Dec) (out []ManifestEntry) {
	for n := d.Count(); n > 0 && d.OK(); n-- {
		out = append(out, ManifestEntry{Router: d.Str(), Keys: getStrs(d)})
	}
	return out
}

// memberFlagJoining marks a Member still mid-join (see Member.Joining).
// Unknown flag bits are a decode error, keeping the encoding canonical.
const memberFlagJoining = 1 << 0

func putMembers(e *codec.Enc, ms []Member) {
	e.Uvarint(uint64(len(ms)))
	for _, m := range ms {
		e.Str(m.ID)
		e.Byte(byte(m.Role))
		e.Str(m.CtrlAddr)
		e.Str(m.DataAddr)
		e.Uvarint(m.Incarnation)
		e.Uvarint(m.Beat)
		e.Uvarint(m.EpochVersion)
		var flags byte
		if m.Joining {
			flags |= memberFlagJoining
		}
		e.Byte(flags)
	}
}

func getMembers(d *codec.Dec) (out []Member) {
	for n := d.Count(); n > 0 && d.OK(); n-- {
		m := Member{ID: d.Str(), Role: Role(d.Byte()), CtrlAddr: d.Str(), DataAddr: d.Str(),
			Incarnation: d.Uvarint(), Beat: d.Uvarint(), EpochVersion: d.Uvarint()}
		flags := d.Byte()
		if m.Role > RoleFront {
			d.Failf("unknown role %d", m.Role)
		}
		if flags&^memberFlagJoining != 0 {
			d.Failf("unknown member flags %#x", flags)
		}
		m.Joining = flags&memberFlagJoining != 0
		out = append(out, m)
	}
	return out
}

// An optional RingEpoch is a presence byte, then version, committed
// flag, and the node list. Presence and committed bytes outside {0,1}
// are rejected (codec Bool) so every valid message has exactly one
// encoding.
func putEpoch(e *codec.Enc, ep *RingEpoch) {
	e.Bool(ep != nil)
	if ep != nil {
		e.Uvarint(ep.Version)
		e.Bool(ep.Committed)
		putStrs(e, ep.Nodes)
	}
}

func getEpoch(d *codec.Dec) *RingEpoch {
	if !d.Bool() {
		return nil
	}
	return &RingEpoch{Version: d.Uvarint(), Committed: d.Bool(), Nodes: getStrs(d)}
}
