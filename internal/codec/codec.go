// Package codec is the one binary codec kernel under the repository's
// three formats: NPB1 upload batches (internal/wire), NPC1 control
// messages (internal/cluster) and NPS1 segment files (internal/segment).
// Each of those is a schema — which primitive comes next — over the
// append-style Enc and the sticky-error, bounds-checked Dec here, so the
// rules that make hostile input safe exist once:
//
//   - every length and count is checked against the bytes remaining
//     before anything is sized from it (each counted element costs at
//     least one encoded byte);
//   - the first failed read sticks with its offset and reason and every
//     later read returns a zero value, so schema code reads straight
//     through and checks Err once per item, message or block (counted
//     loops test OK, so a forged count costs at most the bytes present);
//   - End refuses trailing bytes.
//
// Integers are (zigzag) varints, floats 8-byte little-endian IEEE 754,
// strings length-prefixed raw bytes or dictionary-coded (Dict, Undict).
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Enc appends primitives to Buf.
type Enc struct{ Buf []byte }

func (e *Enc) Uvarint(v uint64) { e.Buf = binary.AppendUvarint(e.Buf, v) }
func (e *Enc) Varint(v int64)   { e.Buf = binary.AppendVarint(e.Buf, v) }
func (e *Enc) Byte(b byte)      { e.Buf = append(e.Buf, b) }
func (e *Enc) U32(v uint32)     { e.Buf = binary.LittleEndian.AppendUint32(e.Buf, v) }
func (e *Enc) F64(v float64)    { e.Buf = binary.LittleEndian.AppendUint64(e.Buf, math.Float64bits(v)) }

// Raw appends b as is (fixed-size fields such as MAC addresses).
func (e *Enc) Raw(b []byte) { e.Buf = append(e.Buf, b...) }

// Bool appends the canonical presence/flag byte: 1 or 0.
func (e *Enc) Bool(b bool) {
	v := byte(0)
	if b {
		v = 1
	}
	e.Buf = append(e.Buf, v)
}

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.Buf = append(e.Buf, s...)
}

// Bytes appends a length-prefixed byte string.
func (e *Enc) Bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.Buf = append(e.Buf, b...)
}

// Dict dictionary-codes strings on the way out: 0 means "a literal
// follows, assign it the next index", v > 0 means entry v-1. Router IDs,
// domains, bands, span names: a batch or a column carries each once.
type Dict struct{ idx map[string]uint64 }

// Put appends s, as a reference if the dictionary has it.
func (t *Dict) Put(e *Enc, s string) {
	if ref, ok := t.idx[s]; ok {
		e.Uvarint(ref + 1)
		return
	}
	if t.idx == nil {
		t.idx = make(map[string]uint64, 16)
	}
	t.idx[s] = uint64(len(t.idx))
	e.Uvarint(0)
	e.Str(s)
}

// Error is a decode failure: what was wrong, and at which offset.
type Error struct {
	Off    int
	Reason string
}

func (e *Error) Error() string { return fmt.Sprintf("%s at offset %d", e.Reason, e.Off) }

// Dec reads primitives off a buffer; the package comment has its
// sticky-error contract.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over buf.
func NewDec(buf []byte) *Dec { return &Dec{buf: buf} }

// Reset rebinds d to buf and clears the error.
func (d *Dec) Reset(buf []byte) { *d = Dec{buf: buf} }

// Err returns the first failure, or nil.
func (d *Dec) Err() error { return d.err }

// OK reports whether no read has failed; counted loops test it.
func (d *Dec) OK() bool { return d.err == nil }

// Remaining is the number of unread bytes (0 after a failure).
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// Failf records a failure at the current offset unless one is recorded
// already, and drops the buffer so whatever is read next fails too.
// Schemas call it for values that decode but are not allowed.
func (d *Dec) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = &Error{Off: d.off, Reason: fmt.Sprintf(format, args...)}
	}
	d.buf, d.off = nil, 0
}

// End returns the first failure, or an error if unread bytes remain.
func (d *Dec) End() error {
	if d.err == nil && d.off != len(d.buf) {
		d.Failf("%d trailing bytes", len(d.buf)-d.off)
	}
	return d.err
}

func (d *Dec) Uvarint() uint64 {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.Failf("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *Dec) Varint() int64 {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.Failf("bad varint")
		return 0
	}
	d.off += n
	return v
}

// Take returns the next n bytes, aliasing the input and clipped so an
// append cannot write into it — or nil, never a short slice, on failure.
func (d *Dec) Take(n int) []byte {
	if n < 0 || d.Remaining() < n {
		d.Failf("%d bytes wanted, %d left", n, d.Remaining())
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// Fill reads len(dst) raw bytes into dst (left alone on failure).
func (d *Dec) Fill(dst []byte) { copy(dst, d.Take(len(dst))) }

func (d *Dec) Byte() byte {
	if b := d.Take(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads a canonical flag byte; anything but 0 or 1 is a failure,
// so every value has exactly one encoding.
func (d *Dec) Bool() bool {
	b := d.Byte()
	if b > 1 {
		d.Failf("flag byte %d", b)
	}
	return b == 1
}

func (d *Dec) U32() uint32 {
	if b := d.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *Dec) F64() float64 {
	if b := d.Take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// Count reads an element count or length and refuses one larger than
// the bytes remaining, before anything is allocated from it.
func (d *Dec) Count() int {
	v := d.Uvarint()
	if v > uint64(d.Remaining()) {
		d.Failf("count %d exceeds the %d bytes left", v, d.Remaining())
		return 0
	}
	return int(v)
}

// Bytes reads a length-prefixed byte string, aliasing the input.
func (d *Dec) Bytes() []byte { return d.Take(d.Count()) }

// Str reads a length-prefixed string (a copy: it may outlive the input).
func (d *Dec) Str() string { return string(d.Bytes()) }

// Magic consumes the format's leading magic.
func (d *Dec) Magic(m string) {
	if d.Remaining() < len(m) || string(d.buf[d.off:d.off+len(m)]) != m {
		d.Failf("no %s magic", m)
		return
	}
	d.off += len(m)
}

// Undict is the decode side of Dict. Reset keeps the backing array, so a
// pooled decoder's dictionary stops allocating once warm.
type Undict struct {
	dict []string
	// Intern, when set, turns a literal's bytes into the string to keep
	// (NPB1 serves repeats from a cross-batch cache); nil copies.
	Intern func([]byte) string
}

func (u *Undict) Reset() { u.dict = u.dict[:0] }

// Get reads one dictionary-coded string.
func (u *Undict) Get(d *Dec) string {
	if ref := d.Uvarint(); ref > 0 {
		if ref > uint64(len(u.dict)) {
			d.Failf("string ref %d beyond dictionary of %d", ref, len(u.dict))
			return ""
		}
		return u.dict[ref-1]
	}
	b := d.Bytes()
	if d.err != nil {
		return ""
	}
	if u.Intern == nil {
		u.dict = append(u.dict, string(b))
	} else {
		u.dict = append(u.dict, u.Intern(b))
	}
	return u.dict[len(u.dict)-1]
}
