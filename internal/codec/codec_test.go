package codec

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
)

// TestRoundTrip pins every primitive's encoding against its decoder.
func TestRoundTrip(t *testing.T) {
	var e Enc
	var dict Dict
	e.Uvarint(300)
	e.Varint(-5)
	e.Byte(0xab)
	e.Bool(true)
	e.Bool(false)
	e.U32(0xdeadbeef)
	e.F64(-1.5)
	e.Raw([]byte{1, 2, 3, 4, 5, 6})
	e.Str("héllo")
	e.Bytes([]byte{})
	dict.Put(&e, "router-01")
	dict.Put(&e, "")
	dict.Put(&e, "router-01")
	dict.Put(&e, "")

	d := NewDec(append([]byte("MAGI"), e.Buf...))
	var undict Undict
	var mac [6]byte
	d.Magic("MAGI")
	if v := d.Uvarint(); v != 300 {
		t.Errorf("uvarint = %d", v)
	}
	if v := d.Varint(); v != -5 {
		t.Errorf("varint = %d", v)
	}
	if v := d.Byte(); v != 0xab {
		t.Errorf("byte = %#x", v)
	}
	if !d.Bool() || d.Bool() {
		t.Error("bools did not round-trip")
	}
	if v := d.U32(); v != 0xdeadbeef {
		t.Errorf("u32 = %#x", v)
	}
	if v := d.F64(); v != -1.5 {
		t.Errorf("f64 = %v", v)
	}
	if d.Fill(mac[:]); mac != [6]byte{1, 2, 3, 4, 5, 6} {
		t.Errorf("fill = %v", mac)
	}
	if v := d.Str(); v != "héllo" {
		t.Errorf("str = %q", v)
	}
	if v := d.Bytes(); len(v) != 0 {
		t.Errorf("empty bytes = %v", v)
	}
	for i, want := range []string{"router-01", "", "router-01", ""} {
		if got := undict.Get(d); got != want {
			t.Errorf("dictionary string %d = %q, want %q", i, got, want)
		}
	}
	if err := d.End(); err != nil {
		t.Fatalf("End after a complete read: %v", err)
	}
	// The second sighting of each string cost one reference byte.
	if tail := e.Buf[len(e.Buf)-2:]; !bytes.Equal(tail, []byte{1, 2}) {
		t.Errorf("repeated strings encoded as % x, want references 01 02", tail)
	}
}

// TestFailures drives every read method into each way it can fail and
// checks the contract: a zero value back, the failure's offset and
// reason recorded, the buffer dropped.
func TestFailures(t *testing.T) {
	undict := func(d *Dec) { new(Undict).Get(d) }
	cases := []struct {
		name   string
		in     []byte
		read   func(*Dec)
		off    int
		reason string
	}{
		{"uvarint/empty", nil, func(d *Dec) { d.Uvarint() }, 0, "bad uvarint"},
		{"uvarint/truncated", []byte{0x80, 0x80}, func(d *Dec) { d.Uvarint() }, 0, "bad uvarint"},
		{"uvarint/overflow", bytes.Repeat([]byte{0xff}, 11), func(d *Dec) { d.Uvarint() }, 0, "bad uvarint"},
		{"varint/truncated", []byte{0x80}, func(d *Dec) { d.Varint() }, 0, "bad varint"},
		{"byte/empty", nil, func(d *Dec) { d.Byte() }, 0, "1 bytes wanted, 0 left"},
		{"bool/non-canonical", []byte{2}, func(d *Dec) { d.Bool() }, 1, "flag byte 2"},
		{"u32/truncated", []byte{1, 2, 3}, func(d *Dec) { d.U32() }, 0, "4 bytes wanted, 3 left"},
		{"f64/truncated", make([]byte, 7), func(d *Dec) { d.F64() }, 0, "8 bytes wanted, 7 left"},
		{"fill/truncated", []byte{1, 2}, func(d *Dec) { d.Fill(make([]byte, 6)) }, 0, "6 bytes wanted, 2 left"},
		{"take/negative", []byte{1}, func(d *Dec) { d.Take(-1) }, 0, "-1 bytes wanted"},
		{"magic/short", []byte("NP"), func(d *Dec) { d.Magic("NPX1") }, 0, "no NPX1 magic"},
		{"magic/wrong", []byte("JSON{}"), func(d *Dec) { d.Magic("NPX1") }, 0, "no NPX1 magic"},
		{"count/exceeds-remaining", []byte{5, 1, 2, 3}, func(d *Dec) { d.Count() }, 1, "count 5 exceeds the 3 bytes left"},
		{"count/forged-huge", []byte{0xff, 0xff, 0xff, 0xff, 0x7f}, func(d *Dec) { d.Count() }, 5, "exceeds the 0 bytes left"},
		{"str/over-long", []byte{4, 'a', 'b'}, func(d *Dec) { d.Str() }, 1, "count 4 exceeds"},
		{"bytes/over-long", []byte{0x80, 0x01, 'a'}, func(d *Dec) { d.Bytes() }, 2, "count 128 exceeds"},
		{"dict/ref-beyond-dictionary", []byte{3}, undict, 1, "string ref 3 beyond dictionary of 0"},
		{"dict/literal-over-long", []byte{0, 9, 'a'}, undict, 2, "count 9 exceeds"},
		{"dict/truncated-ref", []byte{0x80}, undict, 0, "bad uvarint"},
		{"end/trailing", []byte{7, 8, 9}, func(d *Dec) { d.Byte(); d.End() }, 1, "2 trailing bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDec(tc.in)
			tc.read(d)
			var ce *Error
			if !errors.As(d.Err(), &ce) {
				t.Fatalf("no *Error recorded: %v", d.Err())
			}
			if ce.Off != tc.off || !strings.Contains(ce.Reason, tc.reason) {
				t.Fatalf("failure = %q at offset %d, want %q at %d", ce.Reason, ce.Off, tc.reason, tc.off)
			}
			if d.OK() || d.Remaining() != 0 {
				t.Fatalf("after a failure OK=%v Remaining=%d, want false and 0", d.OK(), d.Remaining())
			}
		})
	}
}

// TestFirstFailureSticks: reads after a failure return zero values and
// the first error, offset included, is the one that is kept.
func TestFirstFailureSticks(t *testing.T) {
	d := NewDec([]byte{1, 40, 'x', 'y', 'z'})
	d.Byte()
	if s := d.Str(); s != "" {
		t.Fatalf("over-long string decoded as %q", s)
	}
	first := d.Err()
	if first == nil {
		t.Fatal("over-long string did not fail")
	}
	var undict Undict
	var mac [6]byte
	d.Fill(mac[:])
	zero := d.Uvarint() == 0 && d.Varint() == 0 && d.Byte() == 0 && !d.Bool() && d.U32() == 0 &&
		d.F64() == 0 && d.Take(3) == nil && d.Count() == 0 && d.Bytes() == nil && d.Str() == "" &&
		undict.Get(d) == "" && mac == [6]byte{}
	if !zero {
		t.Error("a read after the failure returned a non-zero value")
	}
	d.Magic("NPX1")
	d.Failf("a later complaint")
	if d.Err() != first || d.End() != first {
		t.Errorf("first failure replaced: %v, then %v", first, d.Err())
	}
	if ce := first.(*Error); ce.Off != 2 {
		t.Errorf("first failure at offset %d, want 2", ce.Off)
	}
	d.Reset([]byte{7})
	if d.Byte() != 7 || d.End() != nil {
		t.Error("Reset did not clear the failure")
	}
}

// TestTakeIsClipped: bytes handed out alias the input but cannot be
// appended into it.
func TestTakeIsClipped(t *testing.T) {
	in := []byte{2, 'a', 'b', 'c'}
	b := NewDec(in).Bytes()
	_ = append(b, 'X')
	if in[3] != 'c' {
		t.Fatal("append to a decoded byte string wrote into the input")
	}
}

// TestUndictIntern: literals go through the hook once each, references
// never do, and Reset empties the dictionary but keeps the hook.
func TestUndictIntern(t *testing.T) {
	var e Enc
	var dict Dict
	for _, s := range []string{"a", "b", "a", "a"} {
		dict.Put(&e, s)
	}
	var seen []string
	u := Undict{Intern: func(b []byte) string { seen = append(seen, string(b)); return strings.ToUpper(string(b)) }}
	d := NewDec(e.Buf)
	got := []string{u.Get(d), u.Get(d), u.Get(d), u.Get(d)}
	if strings.Join(got, "") != "ABAA" || strings.Join(seen, "") != "ab" {
		t.Fatalf("decoded %v through hook calls %v", got, seen)
	}
	u.Reset()
	d.Reset([]byte{1})
	if u.Get(d); d.OK() {
		t.Fatal("reference into a reset dictionary resolved")
	}
}

// FuzzCodec runs arbitrary bytes through every read method, the input's
// own bytes choosing the order. No input may panic, allocation must stay
// proportional to the input (a forged count or length sizes nothing),
// a failure must stick, and a successful read never passes the end.
func FuzzCodec(f *testing.F) {
	var e Enc
	var dict Dict
	e.Str("seed")
	dict.Put(&e, "router-01")
	dict.Put(&e, "router-01")
	e.F64(math.Pi)
	e.Varint(-1 << 40)
	f.Add(e.Buf)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add(bytes.Repeat([]byte{0x80}, 64))
	f.Add(bytes.Repeat([]byte{0, 1, 'x'}, 32))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := NewDec(data)
		var undict Undict
		var first error
		var mac [6]byte
		kept := 0 // bytes of strings and lists the reads built
		for i := 0; i < 4*len(data)+16; i++ {
			op := byte(i)
			if len(data) > 0 {
				op += data[i%len(data)]
			}
			switch op % 13 {
			case 0:
				d.Uvarint()
			case 1:
				d.Varint()
			case 2:
				d.Byte()
			case 3:
				d.Bool()
			case 4:
				d.U32()
			case 5:
				d.F64()
			case 6:
				d.Fill(mac[:])
			case 7:
				kept += len(d.Take(int(op) % 9))
			case 8:
				// The counted-loop shape every schema uses.
				var list []string
				for n := d.Count(); n > 0 && d.OK(); n-- {
					list = append(list, d.Str())
				}
				kept += 16 * len(list)
			case 9:
				kept += len(d.Bytes())
			case 10:
				kept += len(d.Str())
			case 11:
				kept += len(undict.Get(d))
			case 12:
				d.Magic("NP")
			}
			if d.Remaining() < 0 || d.Remaining() > len(data) {
				t.Fatalf("Remaining() = %d of %d", d.Remaining(), len(data))
			}
			if first == nil {
				first = d.Err()
			} else if d.Err() != first {
				t.Fatalf("first failure %v replaced by %v", first, d.Err())
			}
		}
		if err := d.End(); first != nil && err != first {
			t.Fatalf("End() = %v, want the first failure %v", err, first)
		}
		runtime.ReadMemStats(&after)
		// Generous per-byte constant (list headers, dictionary growth),
		// but a constant: a 5-byte forged count must not buy megabytes.
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+256*len(data)); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d (kept %d)", len(data), alloc, limit, kept)
		}
	})
}
