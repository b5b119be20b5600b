// Disk journal for the spool: an append-only file of framed put/ack
// records, compacted once enough acks accumulate. This is the
// reproduction's stand-in for the firmware's flash-backed measurement
// buffers — cheap sequential appends on the hot path, recovery by replay
// on startup.
//
//	file  := frame…
//	frame := uint32le len(body) | uint32le crc32(body) | body
//	body  := 'p' | uvarint seq | varint enqueuedSec | uvarint enqueuedNsec
//	             | NPB1 batch of one item (key, pre-spool spans as its
//	               trace, rows) filling the rest of the body
//	       | 'a' | key, filling the rest of the body
//
// A put's rows are the wire package's NPB1 item, written by
// wire.AppendBatch and read back by wire.Decoder, so the journal adds a
// frame and two fields, not a second schema for the rows.
package spool

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"natpeek/internal/codec"
	"natpeek/internal/trace"
	"natpeek/internal/wire"
)

const (
	// journalFile is the single journal inside Config.Dir.
	journalFile = "spool.journal"
	// legacyJournalFile is the JSONL journal of earlier versions. No
	// reader for it is kept: New refuses a Dir that still holds one
	// rather than start a second journal beside undelivered rows.
	legacyJournalFile = "spool.jsonl"
	// compactEvery triggers a rewrite after this many acks, bounding
	// file growth to roughly the live queue plus one compaction window.
	compactEvery = 1024
	// A frame is an 8-byte header (body length, body CRC-32), then the
	// body, whose first byte is the op.
	frameHeader = 8
	opPut       = 'p'
	opAck       = 'a'
)

// journal is not safe for concurrent use; the Spooler serializes access
// under its mutex. Write errors disable the journal (the spool degrades
// to in-memory) rather than failing the measurement path.
type journal struct {
	path  string
	f     *os.File
	frame []byte // the record being appended, reused
	acks  int
	bytes int64 // current file size, for the journal-size gauge
	err   error
}

// openJournal opens (creating if needed) dir's journal and returns the
// undelivered items found in it, in original enqueue order.
func openJournal(dir string) (*journal, []Item, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	legacy := filepath.Join(dir, legacyJournalFile)
	if _, err := os.Stat(legacy); err == nil {
		return nil, nil, fmt.Errorf("%s is a JSONL journal from an earlier version, which this one does not read; deliver its items with that version or remove it", legacy)
	}
	path := filepath.Join(dir, journalFile)
	items, err := replay(path)
	if err != nil {
		return nil, nil, err
	}
	j := &journal{path: path}
	// Compact on open: the rewritten file is exactly the live items.
	if err := j.rewrite(items); err != nil {
		return nil, nil, err
	}
	return j, items, nil
}

// appendPut appends the put frame of it to dst.
func appendPut(dst []byte, it *Item) []byte {
	start := len(dst)
	e := codec.Enc{Buf: append(dst, make([]byte, frameHeader)...)}
	e.Byte(opPut)
	e.Uvarint(it.Seq)
	e.Varint(it.EnqueuedAt.Unix())
	e.Uvarint(uint64(it.EnqueuedAt.Nanosecond()))
	wi := wire.Item{Endpoint: it.Endpoint(), Key: it.Key, Payload: it.Payload}
	if len(it.Spans) > 0 {
		wi.Trace = &trace.Wire{Spans: it.Spans}
	}
	return sealFrame(wire.AppendBatch(e.Buf, []wire.Item{wi}), start)
}

// appendAck appends key's ack frame to dst.
func appendAck(dst []byte, key string) []byte {
	start := len(dst)
	dst = append(append(dst, make([]byte, frameHeader)...), opAck)
	return sealFrame(append(dst, key...), start)
}

// sealFrame fills in the header of the frame that starts at buf[start].
func sealFrame(buf []byte, start int) []byte {
	body := buf[start+frameHeader:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(body))
	return buf
}

// replay reads the journal and reduces put/ack records to the pending
// puts, in the order they were written; an ack removes every earlier put
// of its key. Replay stops at the first frame that is short or fails its
// CRC — a crash mid-append tears only the tail, so that frame and
// anything after it are dropped. A whole frame that does not decode (an
// unknown op, a put whose NPB1 item does not) is skipped.
func replay(path string) ([]Item, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var (
		items []Item
		acked = map[string]int{} // key → puts written before its last ack
		dec   wire.Decoder
	)
	for len(b) >= frameHeader {
		n := binary.LittleEndian.Uint32(b)
		if uint64(n) > uint64(len(b)-frameHeader) {
			break
		}
		body := b[frameHeader : frameHeader+int(n)]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(b[4:]) {
			break
		}
		b = b[frameHeader+int(n):]
		switch {
		case len(body) == 0:
		case body[0] == opPut:
			if it, ok := decodePut(&dec, body[1:]); ok {
				items = append(items, it)
			}
		case body[0] == opAck:
			acked[string(body[1:])] = len(items)
		}
	}
	out := items[:0]
	for i, it := range items {
		if acked[it.Key] <= i {
			out = append(out, it)
		}
	}
	return out, nil
}

// decodePut reads a put body (after its op byte). The item's slices are
// cloned out of the decoder's scratch.
func decodePut(dec *wire.Decoder, body []byte) (Item, bool) {
	var c codec.Dec
	c.Reset(body)
	seq := c.Uvarint()
	sec, nsec := c.Varint(), c.Uvarint()
	batch := c.Take(c.Remaining())
	if c.Err() != nil || dec.Reset(batch) != nil || dec.Len() != 1 {
		return Item{}, false
	}
	var wi, end wire.Item
	if dec.Next(&wi) != nil || dec.Next(&end) != io.EOF {
		return Item{}, false
	}
	it := Item{Key: wi.Key, Payload: wi.Payload.Clone(), Seq: seq,
		EnqueuedAt: time.Unix(sec, int64(nsec)).UTC()}
	if wi.Trace != nil {
		it.Spans = slices.Clone(wi.Trace.Spans)
	}
	return it, true
}

// rewrite atomically replaces the journal with just the given items.
func (j *journal) rewrite(items []Item) error {
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
	var buf []byte
	for i := range items {
		buf = appendPut(buf, &items[i])
	}
	tmp := j.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, j.path)
	}
	if err == nil {
		f, err = os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	}
	if err != nil {
		return err
	}
	j.f = f
	j.acks = 0
	j.bytes = int64(len(buf))
	return nil
}

// append writes one record, kept in j.frame for the next one's reuse.
func (j *journal) append(frame []byte) {
	if j.frame = frame; j.err != nil || j.f == nil {
		return
	}
	if _, err := j.f.Write(frame); err != nil {
		j.err = err // degrade to in-memory; Close surfaces the error
		return
	}
	j.bytes += int64(len(frame))
}

func (j *journal) put(it *Item) { j.append(appendPut(j.frame[:0], it)) }

// ack records key delivered (or dropped on overflow); the Spooler
// compacts once acks reach compactEvery.
func (j *journal) ack(key string) {
	j.append(appendAck(j.frame[:0], key))
	j.acks++
}

func (j *journal) close() error {
	if j.f != nil {
		if err := j.f.Close(); err != nil && j.err == nil {
			j.err = err
		}
		j.f = nil
	}
	return j.err
}
