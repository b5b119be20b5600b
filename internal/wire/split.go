package wire

import (
	"encoding/binary"
	"io"

	"natpeek/internal/trace"
)

// Splitter regroups NPB1 batches: each item is decoded in place into the
// splitter's pooled Decoder scratch and streamed straight into its
// group's encoder, so no item is cloned and no group holds a slice of
// items. Each group's bytes are exactly what decoding the batch, cloning
// the items, appending the group's route span to the keyed ones and
// passing each group's items to AppendBatch would produce — the encoder
// is the same code — and Split and Index fail exactly where Decoder
// fails, since Decoder is what reads the batch. A Splitter is built for a
// sync.Pool: its decoder, its groups and their encoders keep their
// capacity across batches.
type Splitter struct {
	dec Decoder
	it  Item
	// tr is the trace a keyed item without one gets its route span in.
	tr trace.Wire
	// placed memoises place per router for the current batch.
	placed map[string]int
	groups []*Group
	used   int
}

// Group is one output batch of a Split: the items Split placed in it,
// in input order.
type Group struct {
	enc   encoder // magic, one reserved count byte, then the items
	items int

	// span is the route span appended to every keyed item, when hasSpan.
	span    trace.Span
	hasSpan bool

	firstKey, firstRouter string
}

// Fallback names the router of an item whose rows name none: a KindRaw
// item (raw holds its JSON body) or a typed item without rows or router
// IDs. key is the item's idempotency key. The cluster passes the rule
// its collectors place such items by.
type Fallback func(kind Kind, endpoint string, raw []byte, key string) string

// Split walks batch and streams each item into the group place chooses
// for its router: an index NewGroup returned, or a negative value to
// validate the item without emitting it. place runs once per distinct
// router in the batch, during the walk, and may call NewGroup. An item's
// router is Payload.Router, or fallback's answer when that is empty. On
// error no group holds a usable batch.
func (s *Splitter) Split(batch []byte, fallback Fallback, place func(router string) int) error {
	s.used = 0
	if s.placed == nil {
		s.placed = make(map[string]int)
	}
	clear(s.placed)
	err := s.walk(batch, fallback, func(router string) {
		gi, ok := s.placed[router]
		if !ok {
			gi = place(router)
			s.placed[router] = gi
		}
		if gi < 0 {
			return
		}
		g, it := s.groups[gi], &s.it
		if g.items == 0 {
			g.firstKey, g.firstRouter = it.Key, router
		}
		if g.hasSpan && it.Key != "" {
			if it.Trace == nil {
				s.tr.Router, s.tr.Spans = router, s.tr.Spans[:0]
				it.Trace = &s.tr
			}
			// Appending to the decoder's span scratch is safe: the item is
			// encoded before the next Next overwrites it.
			it.Trace.Spans = append(it.Trace.Spans, g.span)
		}
		g.enc.item(it)
		g.items++
	})
	if err != nil {
		return err
	}
	for _, g := range s.groups[:s.used] {
		g.finish()
	}
	return nil
}

// Index walks batch without emitting anything and returns its item count
// and the keys of its keyed items by router, in batch order (nil when no
// item is keyed): what a successor journals a replicate frame under.
func (s *Splitter) Index(batch []byte, fallback Fallback) (int, map[string][]string, error) {
	items := 0
	var keys map[string][]string
	err := s.walk(batch, fallback, func(router string) {
		items++
		if s.it.Key != "" {
			if keys == nil {
				keys = make(map[string][]string)
			}
			keys[router] = append(keys[router], s.it.Key)
		}
	})
	if err != nil {
		return 0, nil, err
	}
	return items, keys, nil
}

// NewGroup adds an empty output group to the current Split and returns
// its index. When span is non-nil, every keyed item placed in the group
// carries a copy of it as its last trace span (an item without a trace
// gets one naming its router). Call it from Split's place.
func (s *Splitter) NewGroup(span *trace.Span) int {
	if s.used == len(s.groups) {
		s.groups = append(s.groups, new(Group))
	}
	g := s.groups[s.used]
	s.used++
	g.enc.Buf = append(append(g.enc.Buf[:0], magic...), 0)
	g.enc.dict.Reset()
	g.enc.prev, g.items, g.firstKey, g.firstRouter = 0, 0, "", ""
	g.hasSpan = span != nil
	if g.hasSpan {
		g.span = *span
	}
	return s.used - 1
}

// Group returns group i of the last Split.
func (s *Splitter) Group(i int) *Group { return s.groups[i] }

// Bytes is the group's NPB1 batch, valid until the Splitter's next Split.
func (g *Group) Bytes() []byte { return g.enc.Buf }

// Len is the number of items in the group.
func (g *Group) Len() int { return g.items }

// FirstKey and FirstRouter describe the group's first item: its
// idempotency key and the router it was placed by.
func (g *Group) FirstKey() string    { return g.firstKey }
func (g *Group) FirstRouter() string { return g.firstRouter }

// walk decodes every item of batch into s.it and calls each with its
// router, failing where Decoder does.
func (s *Splitter) walk(batch []byte, fallback Fallback, each func(router string)) error {
	if err := s.dec.Reset(batch); err != nil {
		return err
	}
	for {
		switch err := s.dec.Next(&s.it); err {
		case nil:
		case io.EOF:
			return nil
		default:
			return err
		}
		p := &s.it.Payload
		router := p.Router()
		if router == "" {
			router = fallback(p.Kind, s.it.Endpoint, p.Raw, s.it.Key)
		}
		each(router)
	}
}

// finish writes the item count into the reserved header byte, widening
// the header when the count needs more than one.
func (g *Group) finish() {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(g.items))
	at := len(magic)
	if n > 1 {
		g.enc.Buf = append(g.enc.Buf, hdr[:n-1]...)
		copy(g.enc.Buf[at+n:], g.enc.Buf[at+1:])
	}
	copy(g.enc.Buf[at:], hdr[:n])
}
