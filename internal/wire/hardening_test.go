package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
	"time"

	"natpeek/internal/trace"
)

// TestSpanTimeSentinelCollision pins the encoder's guard against a span
// timestamp whose delta against the chain is exactly math.MinInt64 —
// the zero-time sentinel. Unguarded, the collision decodes as the zero
// time AND desynchronizes the delta chain (the encoder advances its
// prev, the decoder does not), corrupting every later timestamp in the
// batch; the encoder nudges such an instant 1 ns forward instead.
// Payload times cannot get here (PayloadFromJSON's timeEncodable range
// check), so only span times — straight off client clocks — exercise
// this path.
func TestSpanTimeSentinelCollision(t *testing.T) {
	end := t0()
	items := []Item{{
		Endpoint: "/v1/register",
		Key:      "pfx:nonce:/v1/register:1",
		Payload:  Payload{Kind: KindRaw, Raw: []byte(`{}`)},
		Trace: &trace.Wire{Router: "router-01", Spans: []trace.Span{{
			Name: "absurd.clock", Status: "ok",
			// First time in the batch, so its delta against the fresh
			// chain (prev == 0) is exactly the sentinel.
			Start: time.Unix(0, math.MinInt64),
			End:   end,
		}}},
	}}
	got := decodeAll(t, AppendBatch(nil, items))
	sp := got[0].Trace.Spans[0]
	if sp.Start.IsZero() {
		t.Fatal("colliding span start decoded as the zero-time sentinel")
	}
	if want := time.Unix(0, math.MinInt64+1).UTC(); !sp.Start.Equal(want) {
		t.Fatalf("span start = %v, want the 1ns-nudged %v", sp.Start, want)
	}
	if !sp.End.Equal(end) {
		t.Fatalf("span end = %v, want %v — delta chain desynchronized", sp.End, end)
	}
}

// TestUndefinedMetaBitsRejected is the regression for a decoder that read
// the kind from bits 0..2 and the trace flag from bit 3 and dropped every
// higher bit: a sender's future flag (meta 0x31 here) decoded as a plain
// uptime item instead of being refused. The batch splitter shares the
// rule; the encoders never set these bits.
func TestUndefinedMetaBitsRejected(t *testing.T) {
	item := []byte{0, 1, 'r'}            // router ref: literal "r"
	item = binary.AppendVarint(item, 1)  // reported-at delta
	item = binary.AppendVarint(item, 60) // uptime
	batch := func(meta uint64) []byte {
		buf := binary.AppendUvarint([]byte(magic), 1)
		buf = binary.AppendUvarint(buf, meta)
		buf = append(buf, 0) // key: empty string
		return append(buf, item...)
	}
	if got := decodeAll(t, batch(uint64(KindUptime))); len(got) != 1 || got[0].Payload.Uptime.RouterID != "r" {
		t.Fatalf("control batch decoded to %+v", got)
	}
	for _, meta := range []uint64{0x31, 0x10, 1 << 40} {
		var d Decoder
		var it Item
		err := d.Reset(batch(meta))
		if err == nil {
			err = d.Next(&it)
		}
		if err == nil {
			t.Errorf("meta %#x decoded as a %s item, want an error", meta, it.Endpoint)
		}
	}
}

// TestForgedAttrCountAllocationBounded is the regression for sizing the
// span-attr slice from the claimed count: count() only guarantees one
// input byte per claimed element, so an up-front make([]trace.Attr, na)
// handed a forged count ~32x amplification (a 200k claim allocated
// ~6.4 MiB before the decode failed). Allocation must track the bytes
// actually decoded instead.
func TestForgedAttrCountAllocationBounded(t *testing.T) {
	const claimed = 200_000
	buf := []byte(magic)
	buf = binary.AppendUvarint(buf, 1)                        // item count
	buf = binary.AppendUvarint(buf, uint64(KindRaw)|1<<3)     // meta: KindRaw + trace bit
	buf = append(buf, 0, 1, 'x')                              // endpoint ref: literal "x"
	buf = append(buf, 0)                                      // key: empty string
	buf = append(buf, 0, 1, 'r')                              // trace router ref: literal "r"
	buf = binary.AppendUvarint(buf, 1)                        // span count
	buf = append(buf, 0, 1, 'n')                              // span name ref
	buf = append(buf, 0, 1, 's')                              // span status ref
	buf = append(buf, 0, 0)                                   // start, end: zero deltas
	buf = binary.AppendUvarint(buf, claimed)                  // forged attr count...
	buf = append(buf, bytes.Repeat([]byte{0x80}, claimed)...) // ..."backed" by bytes that decode as nothing

	d := new(Decoder)
	var it Item
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := d.Reset(buf); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	err := d.Next(&it)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("forged attr count decoded cleanly")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("decoding a forged attr count allocated %d bytes, want well under 1 MiB", alloc)
	}
}
