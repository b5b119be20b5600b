// Splicing: compaction's rewrite, done on encoded columns. A block is
// column-major and keeps its dictionaries to itself, so the block a run
// of segments merges into is each column of every input's block in
// turn — copied where its bytes cannot depend on what came before,
// re-based where they can — and no row is decoded on the way.
package segment

import (
	"time"

	"natpeek/internal/codec"
	"natpeek/internal/dataset"
)

// col is the layout of one NPS1 column, which is all a splice needs to
// know of it.
type col uint8

const (
	colDict   col = iota // dictionary-coded strings (codec.Dict): refs re-mapped
	colTime              // a time column (encodeTimes): zero rows re-indexed, first delta re-based
	colVarint            // (zigzag) varints: walked, then copied
	colMAC               // 6 raw bytes per row: copied
	colF64               // 8 raw bytes per row: copied
	colStr               // length-prefixed strings: walked, then copied
)

// blockCols is the column layout of every block kind, indexed by kind —
// the row kinds in dataset.Kinds order, then the key block — which is
// also the order Encode writes blocks in. It mirrors the encoders in
// blocks.go; TestSpliceMatchesEncode holds the two together.
var blockCols = [blkKeys + 1][]col{
	blkUptime:     {colDict, colTime, colVarint},
	blkCapacity:   {colDict, colTime, colF64, colF64},
	blkCounts:     {colDict, colTime, colVarint, colVarint, colVarint},
	blkSightings:  {colDict, colTime, colMAC, colVarint},
	blkWiFi:       {colDict, colTime, colDict, colVarint, colVarint, colVarint},
	blkFlows:      {colDict, colMAC, colDict, colDict, colTime, colTime, colVarint, colVarint, colVarint, colVarint, colVarint},
	blkThroughput: {colDict, colTime, colDict, colF64, colVarint},
	blkKeys:       {colDict, colStr},
}

// blockRows is the row count m's footer gives block kind.
func (m *Meta) blockRows(kind int) int {
	if kind == blkKeys {
		return m.KeyRows
	}
	return *dataset.Kinds[kind].Count(&m.Rows)
}

// Splice writes the segment covering seq, recording replaces, that
// Encode writes for the rows and keys of in joined in order under the
// union of their rosters (a later input's country wins), byte for byte,
// and returns it with its Meta. Every check the decoders make still
// holds for every input — block CRCs, row counts against the footer,
// dictionary references, zero-time indexes, nanoseconds, bounds — and on
// the first that fails Splice returns the index of the input at fault
// and the error. Row and key counts, roster and time range come from the
// input footers.
func Splice(in []*Reader, seq SeqRange, replaces []SeqRange) ([]byte, Meta, int, error) {
	m := Meta{Seq: seq, Replaces: replaces, Roster: make(map[string]string)}
	size := 0
	for _, r := range in {
		size += len(r.buf)
		m.Rows.Add(r.meta.Rows)
		m.KeyRows += r.meta.KeyRows
		addRoster(m.Roster, r.meta.Roster)
		if r.meta.HasTimeRange {
			if !m.HasTimeRange || r.meta.MinTime.Before(m.MinTime) {
				m.MinTime = r.meta.MinTime
			}
			if !m.HasTimeRange || r.meta.MaxTime.After(m.MaxTime) {
				m.MaxTime = r.meta.MaxTime
			}
			m.HasTimeRange = true
		}
	}
	m.Rows.Routers = len(m.Roster)

	// The output is presized to its inputs: merged dictionaries make it
	// smaller, re-mapped references rarely larger.
	sp := splicer{
		in:   make([][]byte, len(in)),
		decs: make([]codec.Dec, len(in)),
		rows: make([]int, len(in)),
		nz:   make([]int, len(in)),
		dict: make(map[string]uint64),
	}
	sp.w.Buf = append(make([]byte, 0, size), magicHead...)
	for kind, cols := range blockCols {
		total := 0
		for i, r := range in {
			sp.rows[i] = r.meta.blockRows(kind)
			total += sp.rows[i]
			p, err := r.payload(uint64(kind), sp.rows[i])
			if err != nil {
				return nil, Meta{}, i, err
			}
			sp.in[i] = p
			sp.decs[i].Reset(p)
		}
		start := len(sp.w.Buf)
		for _, c := range cols {
			sp.column(c)
		}
		for i := range sp.decs {
			if err := corrupt(&sp.decs[i]); err != nil {
				return nil, Meta{}, i, err
			}
		}
		sp.w.endBlock(uint64(kind), total, start)
	}
	b := sp.w.finish(&m)
	m.blocks = sp.w.blocks
	return b, m, 0, nil
}

// splicer carries one block of every input through the block's columns
// into w: in[i] is input i's block payload (nil when it holds no rows),
// decs[i] its decoder and rows[i] its row count. Each decoder moves
// through its own columns in order, one column of every input at a
// time; a failure sticks in the decoder, and Splice reports it once the
// block is done.
type splicer struct {
	w     fileWriter
	in    [][]byte
	decs  []codec.Dec
	rows  []int
	nz    []int // a time column's zero rows, per input
	dict  map[string]uint64
	remap []uint64 // one input's dictionary index -> the output's
}

// at is how far input i's decoder has read its block.
func (sp *splicer) at(i int) int { return len(sp.in[i]) - sp.decs[i].Remaining() }

// from is input i's bytes from off to where its decoder has read.
func (sp *splicer) from(i, off int) []byte { return sp.in[i][off:sp.at(i)] }

func (sp *splicer) column(c col) {
	switch c {
	case colTime:
		sp.times()
		return
	case colDict:
		clear(sp.dict)
	}
	for i := range sp.decs {
		d, n := &sp.decs[i], sp.rows[i]
		if n == 0 {
			continue
		}
		switch c {
		case colDict:
			sp.dictColumn(d, n)
		case colVarint:
			sp.w.Raw(d.Varints(n))
		case colMAC:
			sp.w.Raw(d.Take(6 * n))
		case colF64:
			sp.w.Raw(d.Take(8 * n))
		case colStr:
			off := sp.at(i)
			for k := 0; k < n && d.OK(); k++ {
				d.Bytes()
			}
			sp.w.Raw(sp.from(i, off))
		}
	}
}

// dictColumn re-codes one input's part of a dictionary column against
// the output's dictionary: the map is read once per literal, and every
// reference goes through remap.
func (sp *splicer) dictColumn(d *codec.Dec, n int) {
	sp.remap = sp.remap[:0]
	for k := 0; k < n && d.OK(); k++ {
		if ref := d.Uvarint(); ref > 0 {
			if ref > uint64(len(sp.remap)) {
				d.Failf("string ref %d beyond dictionary of %d", ref, len(sp.remap))
				return
			}
			sp.w.Uvarint(sp.remap[ref-1] + 1)
			continue
		}
		lit := d.Bytes()
		if !d.OK() {
			return
		}
		idx, ok := sp.dict[string(lit)]
		if ok {
			sp.w.Uvarint(idx + 1)
		} else {
			idx = uint64(len(sp.dict))
			sp.dict[string(lit)] = idx
			sp.w.Uvarint(0)
			sp.w.Bytes(lit)
		}
		sp.remap = append(sp.remap, idx)
	}
}

// times splices one time column: the inputs' zero-row counts summed,
// their zero-row indexes moved past the rows of the inputs before, then
// each input's deltas with only the first re-based — an input's chain
// starts from second 0, the output's from the last non-zero second of
// the inputs before it.
func (sp *splicer) times() {
	total := 0
	for i := range sp.decs {
		d, n := &sp.decs[i], sp.rows[i]
		sp.nz[i] = 0
		if n == 0 {
			continue
		}
		nz := d.Uvarint()
		if nz > uint64(n) {
			d.Failf("%d zero-time rows in a column of %d", nz, n)
			continue
		}
		sp.nz[i] = int(nz)
		total += int(nz)
	}
	sp.w.Uvarint(uint64(total))
	off := 0
	for i := range sp.decs {
		d, n := &sp.decs[i], sp.rows[i]
		prev := -1
		for k := 0; k < sp.nz[i] && d.OK(); k++ {
			v := d.Uvarint()
			if v >= uint64(n) || int(v) <= prev {
				d.Failf("zero-time index %d out of order or range", v)
				break
			}
			prev = int(v)
			sp.w.Uvarint(v + uint64(off))
		}
		off += n
	}
	last := int64(0)
	for i := range sp.decs {
		d := &sp.decs[i]
		set := sp.rows[i] - sp.nz[i]
		if set == 0 || !d.OK() {
			continue
		}
		sec := d.Varint()
		sp.w.Varint(sec - last)
		rest := sp.at(i)
		for k := 0; k < set && d.OK(); k++ {
			if k > 0 {
				sec += d.Varint()
			}
			if nsec := d.Uvarint(); nsec >= uint64(time.Second) {
				d.Failf("%d nanoseconds within a second", nsec)
			}
		}
		sp.w.Raw(sp.from(i, rest))
		last = sec
	}
}
