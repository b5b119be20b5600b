// Time columns of the NPS1 segment format. Everything else a block or
// footer holds is a primitive of the shared kernel (internal/codec:
// zigzag varints, dictionary-coded strings, raw 6-byte MACs,
// little-endian floats, every read bounds-checked); timestamps are the
// one encoding NPS1 keeps for itself. They are written for storage
// rather than transport: an exact split encoding (delta-coded Unix
// seconds plus nanoseconds) instead of the NPB1 wire's single
// delta-nano chain, so any time.Time instant round-trips with no
// sentinel value and no nudging. Decoded times carry the UTC location;
// every row the pipeline ingests is UTC-canonicalized already (wire and
// JSON decode both normalize), so this is an identity for stored data.
package segment

import (
	"errors"
	"fmt"
	"time"

	"natpeek/internal/codec"
)

var errCorrupt = errors.New("segment: corrupt data")

// corrupt reports a block's or footer's decode failure, if it had one.
func corrupt(d *codec.Dec) error {
	if err := d.Err(); err != nil {
		return fmt.Errorf("%w: %w", errCorrupt, err)
	}
	return nil
}

// encodeTimes writes one time column, at(&rows[i]) naming the field (the
// decoder takes the same accessor): a list of zero-value row indexes
// (so time.Time{} round-trips exactly), then for every non-zero row a
// zigzag-varint delta of Unix seconds against the previous non-zero row
// plus the intra-second nanoseconds. Unlike the wire codec's delta-nano
// chain there is no sentinel value to collide with and no range limit:
// any wall-clock instant representable in int64 seconds round-trips.
func encodeTimes[T any](e *codec.Enc, rows []T, at func(*T) *time.Time) {
	var zeros []uint64
	for i := range rows {
		if at(&rows[i]).IsZero() {
			zeros = append(zeros, uint64(i))
		}
	}
	e.Uvarint(uint64(len(zeros)))
	for _, z := range zeros {
		e.Uvarint(z)
	}
	prevSec := int64(0)
	for i := range rows {
		t := at(&rows[i])
		if t.IsZero() {
			continue
		}
		sec := t.Unix()
		e.Varint(sec - prevSec)
		prevSec = sec
		e.Uvarint(uint64(t.Nanosecond()))
	}
}

// decodeTimes reads one time column straight into rows, at(&rows[i])
// naming the field. The zero-index list is sorted, so one cursor walks
// it beside the row index.
func decodeTimes[T any](d *codec.Dec, rows []T, at func(*T) *time.Time) {
	n := len(rows)
	nz := d.Uvarint()
	if nz > uint64(n) {
		d.Failf("%d zero-time rows in a column of %d", nz, n)
		return
	}
	zeros := make([]int, nz)
	prevIdx := -1
	for i := range zeros {
		v := d.Uvarint()
		if v >= uint64(n) || int(v) <= prevIdx {
			d.Failf("zero-time index %d out of order or range", v)
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
		sec += d.Varint()
		nsec := d.Uvarint()
		if nsec >= uint64(time.Second) {
			d.Failf("%d nanoseconds within a second", nsec)
			return
		}
		*at(&rows[i]) = time.Unix(sec, int64(nsec)).UTC()
	}
}
