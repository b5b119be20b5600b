package segment

import (
	"encoding/binary"
	"hash/crc32"

	"natpeek/internal/codec"
)

// OpenOver is Open over a caller-built dedupe index, so tests can run
// the store against a window a few keys wide or one already full.
var OpenOver = open

// Kill abandons s as a killed process would: background work stops,
// the memtable is never flushed, and the directory lock goes with the
// process, so a fresh store can open the directory.
func Kill(s *Store) {
	s.flushMu.Lock()
	close(s.stopc)
	s.flushMu.Unlock()
	s.bgDone.Wait()
	s.lock.Close()
}

// ErrCorrupt is what every corrupt-data error wraps.
var ErrCorrupt = errCorrupt

// Reseal returns a copy of the encoded segment b after edit has changed
// bytes of its blocks (everything between the magic and the footer),
// with every block CRC and the footer recomputed to match, so the edit
// reaches the column decoders instead of failing a CRC.
func Reseal(b []byte, edit func(blocks []byte)) ([]byte, error) {
	r, err := NewReader(b)
	if err != nil {
		return nil, err
	}
	flen := int(binary.LittleEndian.Uint32(b[len(b)-trailerSize:]))
	w := fileWriter{Enc: codec.Enc{Buf: append([]byte(nil), b[:len(b)-trailerSize-flen]...)}}
	edit(w.Buf[len(magicHead):])
	for _, blk := range r.meta.blocks {
		blk.crc = crc32.ChecksumIEEE(w.Buf[blk.off : blk.off+blk.len])
		w.blocks = append(w.blocks, blk)
	}
	return w.finish(&r.meta), nil
}
