// Column codecs for the NPS1 segment format. These mirror the NPB1 wire
// codec's primitives — zigzag-varint integers, dictionary-coded strings,
// raw 6-byte MACs, little-endian IEEE-754 floats — but are written for
// storage rather than transport: every value decodes with strict bounds
// checks, and timestamps use an exact split encoding (delta-coded Unix
// seconds plus nanoseconds) instead of the wire's single delta-nano
// chain, so any time.Time instant round-trips with no sentinel value and
// no nudging. Decoded times carry the UTC location; every row the
// pipeline ingests is UTC-canonicalized already (wire and JSON decode
// both normalize), so this is an identity for stored data.
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"natpeek/internal/mac"
)

var errCorrupt = errors.New("segment: corrupt data")

// enc accumulates one block's column-major payload.
type enc struct {
	buf []byte
}

func (e *enc) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }

func (e *enc) bytes(b []byte) { e.buf = append(e.buf, b...) }

func (e *enc) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// strDict dictionary-codes one string column: 0 means "literal follows,
// assign the next index", v > 0 means dictionary entry v-1. Router IDs,
// bands, directions, protocols, and domains are all low-cardinality per
// segment, so the column collapses to near one byte per row.
type strDict struct {
	idx map[string]uint64
}

func (d *strDict) encode(e *enc, s string) {
	if d.idx == nil {
		d.idx = make(map[string]uint64)
	}
	if ref, ok := d.idx[s]; ok {
		e.uvarint(ref + 1)
		return
	}
	d.idx[s] = uint64(len(d.idx))
	e.uvarint(0)
	e.uvarint(uint64(len(s)))
	e.bytes([]byte(s))
}

// dec walks one block's payload. The first failed read sticks in err
// and every read after it returns a zero value, so a column loop runs
// with no check per value and its caller reports d.err once.
type dec struct {
	buf []byte
	off int
	err error
}

// fail records the first error and drops the buffer, so whatever is
// read next fails too.
func (d *dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.buf, d.off = nil, 0
}

func (d *dec) remaining() int { return len(d.buf) - d.off }

func (d *dec) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(errCorrupt)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) varint() int64 {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail(errCorrupt)
		return 0
	}
	d.off += n
	return v
}

// take returns the next n bytes, or nil (never a short slice) on failure.
func (d *dec) take(n int) []byte {
	if n < 0 || d.remaining() < n {
		d.fail(errCorrupt)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *dec) byte() byte {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *dec) u32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *dec) f64() float64 {
	if b := d.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// str decodes one length-prefixed string (used by footers and the key
// block, where no dictionary applies).
func (d *dec) str() string {
	n := d.uvarint()
	if n > uint64(d.remaining()) {
		d.fail(errCorrupt)
		return ""
	}
	return string(d.take(int(n)))
}

func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.bytes([]byte(s))
}

// strUndict decodes one dictionary-coded string column value.
type strUndict struct {
	dict []string
}

func (u *strUndict) decode(d *dec) string {
	ref := d.uvarint()
	if d.err != nil {
		return ""
	}
	if ref == 0 {
		s := d.str()
		u.dict = append(u.dict, s)
		return s
	}
	if ref > uint64(len(u.dict)) {
		d.fail(fmt.Errorf("%w: string ref %d beyond dictionary of %d", errCorrupt, ref, len(u.dict)))
		return ""
	}
	return u.dict[ref-1]
}

// encodeTimes writes one time column: a list of zero-value row indexes
// (so time.Time{} round-trips exactly), then for every non-zero row a
// zigzag-varint delta of Unix seconds against the previous non-zero row
// plus the intra-second nanoseconds. Unlike the wire codec's delta-nano
// chain there is no sentinel value to collide with and no range limit:
// any wall-clock instant representable in int64 seconds round-trips.
func encodeTimes(e *enc, ts []time.Time) {
	var zeros []uint64
	for i, t := range ts {
		if t.IsZero() {
			zeros = append(zeros, uint64(i))
		}
	}
	e.uvarint(uint64(len(zeros)))
	for _, z := range zeros {
		e.uvarint(z)
	}
	prevSec := int64(0)
	for _, t := range ts {
		if t.IsZero() {
			continue
		}
		sec := t.Unix()
		e.varint(sec - prevSec)
		prevSec = sec
		e.uvarint(uint64(t.Nanosecond()))
	}
}

// decodeTimes reads one time column straight into rows, at(&rows[i])
// naming the field. The zero-index list is sorted, so one cursor walks
// it beside the row index.
func decodeTimes[T any](d *dec, rows []T, at func(*T) *time.Time) {
	n := len(rows)
	nz := d.uvarint()
	if nz > uint64(n) {
		d.fail(fmt.Errorf("%w: %d zero-time rows in a column of %d", errCorrupt, nz, n))
		return
	}
	zeros := make([]int, nz)
	prevIdx := -1
	for i := range zeros {
		v := d.uvarint()
		if v >= uint64(n) || int(v) <= prevIdx {
			d.fail(fmt.Errorf("%w: zero-time index %d out of order or range", errCorrupt, v))
			return
		}
		prevIdx = int(v)
		zeros[i] = prevIdx
	}
	sec := int64(0)
	for i := range rows {
		if len(zeros) > 0 && zeros[0] == i {
			zeros = zeros[1:]
			*at(&rows[i]) = time.Time{}
			continue
		}
		sec += d.varint()
		nsec := d.uvarint()
		if nsec >= uint64(time.Second) {
			d.fail(fmt.Errorf("%w: %d nanoseconds within a second", errCorrupt, nsec))
			return
		}
		*at(&rows[i]) = time.Unix(sec, int64(nsec)).UTC()
	}
}

func (e *enc) mac(a mac.Addr) { e.bytes(a[:]) }

func (d *dec) mac() (a mac.Addr) {
	copy(a[:], d.take(len(a)))
	return a
}
