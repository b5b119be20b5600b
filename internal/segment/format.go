// The NPS1 segment file format.
//
//	file    := magic "NPS1" | block… | footer | trailer
//	trailer := uint32le footerLen | uint32le crc32(footer) | magic "1SPN"
//	footer  := uvarint version (=1)
//	           uvarint firstSeq | uvarint lastSeq
//	           uvarint nReplaces | nReplaces × (uvarint firstSeq | uvarint lastSeq)
//	           byte hasTimeRange | [varint minSec | uvarint minNsec |
//	                                varint maxSec | uvarint maxNsec]
//	           uvarint nRoster | nRoster × (str routerID | str country)
//	           uvarint nBlocks | nBlocks × (uvarint blockKind | uvarint off |
//	                                        uvarint len | uvarint rows |
//	                                        uint32le crc32(payload))
//
// Blocks are column-major: one block per data set plus one for the
// idempotency keys the segment's rows were applied under (the durable
// half of the exactly-once handoff — see store.go). Within a block each
// column is written in full before the next, in struct-field order, so a
// reader that wants one column of one data set touches one contiguous
// byte range; the footer's offsets make the layout mmap/pread-friendly.
// The trailer is fixed-size so a reader finds the footer by seeking from
// the end; both the footer and every block carry CRC32s, and a block's
// CRC is only checked when that block is decoded.
//
// Heartbeats are deliberately absent: the heartbeat log is a shared
// run-length structure that is its own compact incremental form, and it
// is persisted by the CSV save path.
package segment

import (
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"natpeek/internal/codec"
	"natpeek/internal/dataset"
)

var (
	magicHead = []byte("NPS1")
	magicTail = []byte("1SPN")
)

const (
	formatVersion = 1
	trailerSize   = 4 + 4 + 4
	// maxBlocks bounds the footer's block count: one per known kind is
	// all a writer emits, but a reader tolerates (and skips) kinds it
	// does not know, within reason.
	maxBlocks = 64
)

// Block kinds. Values are stable on disk.
const (
	blkUptime = iota
	blkCapacity
	blkCounts
	blkSightings
	blkWiFi
	blkFlows
	blkThroughput
	blkKeys
)

// Key is one (router, idempotency key) pair applied into a segment's
// rows. Segments persist them so dedupe state survives restarts.
type Key struct {
	Router string
	Key    string
}

// SeqRange identifies the contiguous range of flush sequence numbers a
// segment file covers — a freshly flushed segment covers [n,n]; a
// compacted one covers the union of its inputs.
type SeqRange struct {
	First, Last uint64
}

// contains reports whether r covers all of o.
func (r SeqRange) contains(o SeqRange) bool {
	return r.First <= o.First && o.Last <= r.Last
}

type blockRef struct {
	kind uint64
	off  uint64
	len  uint64
	rows uint64
	crc  uint32
}

// Meta is everything a store needs to know about a segment without
// decoding its row blocks.
type Meta struct {
	Seq      SeqRange
	Replaces []SeqRange
	// MinTime/MaxTime span every row timestamp in the segment (zero
	// rows excluded); HasTimeRange is false for an all-metadata
	// segment. A compacted segment's range is the union of its inputs'.
	HasTimeRange     bool
	MinTime, MaxTime time.Time
	Roster           map[string]string
	Rows             dataset.RowCounts
	KeyRows          int

	blocks []blockRef
}

// Encode serializes rows (and the keys they were applied under) as one
// NPS1 segment covering seq. The store's per-kind slice order is
// preserved exactly — that invariant is what keeps Merge output, and
// therefore the verify golden snapshots, byte-identical when the segment
// store substitutes for the in-memory one.
func Encode(st *dataset.Store, keys []Key, seq SeqRange, replaces []SeqRange) []byte {
	w := fileWriter{Enc: codec.Enc{Buf: append(make([]byte, 0, 4096), magicHead...)}}
	for i, b := range rowBlocks {
		start := len(w.Buf)
		w.Raw(b.encode(st))
		w.endBlock(b.kind, dataset.Kinds[i].Len(st), start)
	}
	start := len(w.Buf)
	w.Raw(encodeKeys(keys))
	w.endBlock(blkKeys, len(keys), start)

	m := Meta{Seq: seq, Replaces: replaces, Roster: st.RouterCountry}
	m.MinTime, m.MaxTime, m.HasTimeRange = timeRange(st)
	return w.finish(&m)
}

// fileWriter lays out one NPS1 file: the magic, then blocks, then the
// footer and trailer that index them. Encode and Splice share it.
type fileWriter struct {
	codec.Enc
	blocks []blockRef
}

// endBlock indexes Buf[start:] as the block of kind, holding rows rows.
func (w *fileWriter) endBlock(kind uint64, rows, start int) {
	w.blocks = append(w.blocks, blockRef{
		kind: kind,
		off:  uint64(start),
		len:  uint64(len(w.Buf) - start),
		rows: uint64(rows),
		crc:  crc32.ChecksumIEEE(w.Buf[start:]),
	})
}

// finish appends the footer — m's seq ranges, time range and roster,
// and the block index — and the trailer, and returns the file.
func (w *fileWriter) finish(m *Meta) []byte {
	var f codec.Enc
	f.Uvarint(formatVersion)
	f.Uvarint(m.Seq.First)
	f.Uvarint(m.Seq.Last)
	f.Uvarint(uint64(len(m.Replaces)))
	for _, r := range m.Replaces {
		f.Uvarint(r.First)
		f.Uvarint(r.Last)
	}
	f.Bool(m.HasTimeRange)
	if m.HasTimeRange {
		f.Varint(m.MinTime.Unix())
		f.Uvarint(uint64(m.MinTime.Nanosecond()))
		f.Varint(m.MaxTime.Unix())
		f.Uvarint(uint64(m.MaxTime.Nanosecond()))
	}
	ids := make([]string, 0, len(m.Roster))
	for id := range m.Roster {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	f.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		f.Str(id)
		f.Str(m.Roster[id])
	}
	f.Uvarint(uint64(len(w.blocks)))
	for _, b := range w.blocks {
		f.Uvarint(b.kind)
		f.Uvarint(b.off)
		f.Uvarint(b.len)
		f.Uvarint(b.rows)
		f.U32(b.crc)
	}

	t := codec.Enc{Buf: append(w.Buf, f.Buf...)}
	t.U32(uint32(len(f.Buf)))
	t.U32(crc32.ChecksumIEEE(f.Buf))
	return append(t.Buf, magicTail...)
}

// timeRange scans every row timestamp (zero values excluded).
func timeRange(st *dataset.Store) (minT, maxT time.Time, ok bool) {
	obs := func(t time.Time) {
		if t.IsZero() {
			return
		}
		if !ok || t.Before(minT) {
			minT = t
		}
		if !ok || t.After(maxT) {
			maxT = t
		}
		ok = true
	}
	for _, k := range dataset.Kinds {
		k.Times(st, obs)
	}
	return minT, maxT, ok
}

// Reader gives access to one encoded segment: the footer is parsed and
// CRC-checked up front, row blocks decode (and CRC-check) on demand.
type Reader struct {
	buf  []byte
	meta Meta
}

// NewReader parses and validates the framing and footer of an encoded
// segment. It does not touch block payloads.
func NewReader(b []byte) (*Reader, error) {
	if len(b) < len(magicHead)+trailerSize || string(b[:4]) != string(magicHead) {
		return nil, fmt.Errorf("%w: bad magic or short file", errCorrupt)
	}
	t := b[len(b)-trailerSize:]
	if string(t[8:12]) != string(magicTail) {
		return nil, fmt.Errorf("%w: bad trailer magic (torn tail?)", errCorrupt)
	}
	td := codec.NewDec(t)
	flen, fcrc := td.U32(), td.U32()
	body := len(b) - trailerSize
	if int(flen) > body-len(magicHead) {
		return nil, fmt.Errorf("%w: footer length %d exceeds file", errCorrupt, flen)
	}
	footer := b[body-int(flen) : body]
	if crc32.ChecksumIEEE(footer) != fcrc {
		return nil, fmt.Errorf("%w: footer CRC mismatch (torn footer?)", errCorrupt)
	}
	r := &Reader{buf: b}
	if err := r.parseFooter(footer, uint64(body-int(flen))); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Reader) parseFooter(footer []byte, blockEnd uint64) error {
	d := codec.NewDec(footer)
	if v := d.Uvarint(); d.OK() && v != formatVersion {
		return fmt.Errorf("segment: unsupported format version %d", v)
	}
	m := &r.meta
	m.Seq = SeqRange{First: d.Uvarint(), Last: d.Uvarint()}
	if m.Seq.Last < m.Seq.First {
		return fmt.Errorf("%w: inverted seq range", errCorrupt)
	}
	for n := d.Count(); n > 0 && d.OK(); n-- {
		m.Replaces = append(m.Replaces, SeqRange{First: d.Uvarint(), Last: d.Uvarint()})
	}
	if m.HasTimeRange = d.Bool(); m.HasTimeRange {
		m.MinTime = decodeFooterTime(d)
		m.MaxTime = decodeFooterTime(d)
	}
	nRoster := d.Count()
	m.Roster = make(map[string]string, nRoster)
	for ; nRoster > 0 && d.OK(); nRoster-- {
		id := d.Str()
		m.Roster[id] = d.Str()
	}
	nb := d.Uvarint()
	if nb > maxBlocks {
		return fmt.Errorf("%w: %d blocks", errCorrupt, nb)
	}
	for i := uint64(0); i < nb; i++ {
		b := blockRef{kind: d.Uvarint(), off: d.Uvarint(), len: d.Uvarint(), rows: d.Uvarint(), crc: d.U32()}
		if !d.OK() {
			break
		}
		if b.off < uint64(len(magicHead)) || b.off+b.len < b.off || b.off+b.len > blockEnd {
			return fmt.Errorf("%w: block %d spans [%d,%d) outside payload", errCorrupt, b.kind, b.off, b.off+b.len)
		}
		// Each row consumes at least one byte in its first column, so a
		// rows count beyond the payload size is forged.
		if b.rows > b.len && b.rows > 0 {
			return fmt.Errorf("%w: block %d claims %d rows in %d bytes", errCorrupt, b.kind, b.rows, b.len)
		}
		m.blocks = append(m.blocks, b)
		if b.kind == blkKeys {
			m.KeyRows = int(b.rows)
		}
		for i, rb := range rowBlocks {
			if rb.kind == b.kind {
				*dataset.Kinds[i].Count(&m.Rows) = int(b.rows)
			}
		}
	}
	m.Rows.Routers = len(m.Roster)
	return corrupt(d)
}

func decodeFooterTime(d *codec.Dec) time.Time {
	sec := d.Varint()
	nsec := d.Uvarint()
	if nsec >= uint64(time.Second) {
		d.Failf("footer time of %d nanoseconds within a second", nsec)
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// Meta returns the parsed footer metadata.
func (r *Reader) Meta() Meta { return r.meta }

// block returns the CRC-validated payload decoder for kind, or nil when
// there is nothing to decode (no such block, or an empty one). want is
// the row count the caller sized its window for; a block that holds any
// other number is refused before a byte of the window is written.
func (r *Reader) block(kind uint64, want int) (*codec.Dec, error) {
	p, err := r.payload(kind, want)
	if err != nil || p == nil {
		return nil, err
	}
	return codec.NewDec(p), nil
}

// payload is block's CRC-validated bytes (nil when want is 0).
func (r *Reader) payload(kind uint64, want int) ([]byte, error) {
	for _, b := range r.meta.blocks {
		if b.kind != kind {
			continue
		}
		payload := r.buf[b.off : b.off+b.len]
		if crc32.ChecksumIEEE(payload) != b.crc {
			return nil, fmt.Errorf("%w: block %d CRC mismatch", errCorrupt, kind)
		}
		if b.rows != uint64(want) {
			return nil, fmt.Errorf("segment: block %d holds %d rows, window is %d", kind, b.rows, want)
		}
		if want == 0 {
			return nil, nil
		}
		return payload, nil
	}
	if want != 0 {
		return nil, fmt.Errorf("segment: no block %d, window is %d", kind, want)
	}
	return nil, nil
}

// Keys decodes the idempotency-key block.
func (r *Reader) Keys() ([]Key, error) {
	d, err := r.block(blkKeys, r.meta.KeyRows)
	if err != nil || d == nil {
		return nil, err
	}
	return decodeKeys(d, r.meta.KeyRows)
}

// Rows decodes every data-set block into a plain Store (arrival order
// preserved). The returned store has no heartbeat log and an empty
// dedupe index — segments carry neither.
func (r *Reader) Rows() (*dataset.Store, error) {
	st := newWindow(r.meta.Rows, dataset.RowCounts{})
	addRoster(st.RouterCountry, r.meta.Roster)
	if err := r.RowsInto(st); err != nil {
		return nil, err
	}
	return st, nil
}

// RowsInto decodes every data-set block over w's row slices, which the
// caller has sized to the footer's counts (Meta().Rows) — typically
// disjoint windows of one larger output, so several segments decode
// side by side with no copy. Every element is overwritten; nothing
// outside the slices is touched, and a block whose row count differs
// from its slice's length is refused rather than decoded short or long
// (the file was rewritten since the caller read its footer). w's
// roster is left alone.
func (r *Reader) RowsInto(w *dataset.Store) error {
	for _, b := range rowBlocks {
		if err := b.decode(r, w); err != nil {
			return err
		}
	}
	return nil
}

// Decode is the one-shot convenience: parse, validate, and decode
// everything (the fuzz target's entry point).
func Decode(b []byte) (*dataset.Store, []Key, Meta, error) {
	r, err := NewReader(b)
	if err != nil {
		return nil, nil, Meta{}, err
	}
	st, err := r.Rows()
	if err != nil {
		return nil, nil, Meta{}, err
	}
	keys, err := r.Keys()
	if err != nil {
		return nil, nil, Meta{}, err
	}
	return st, keys, r.meta, nil
}
