package spool

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"natpeek/internal/codec"
	"natpeek/internal/trace"
	"natpeek/internal/wire"
)

// FuzzJournalReplay fuzzes journal recovery over raw on-disk bytes — the
// one parser in the upload pipeline that reads state a crash may have
// torn. Properties:
//
//  1. replay never panics, whatever the file holds.
//  2. replay returns the pending puts of the longest prefix of whole,
//     CRC-valid frames: the puts that decode, less every put an ack
//     after it names, in file order (pendingKeys, an independent model).
//  3. rewrite∘replay is a fixed point: compacting the replayed journal
//     and replaying and compacting that again writes the same bytes.
func FuzzJournalReplay(f *testing.F) {
	traced := mkItem("k3", 3)
	traced.EnqueuedAt = time.Unix(1364774400, 5).UTC()
	traced.Spans = []trace.Span{{Name: "gateway.export", Start: time.Unix(1364774399, 0).UTC(),
		End: time.Unix(1364774400, 0).UTC(), Attrs: []trace.Attr{{K: "kind", V: "uptime"}}}}
	f.Add(frames("k1", "ack:k1", "k2"))
	f.Add(appendPut(frames("k1", "k2"), &traced))
	var kinds []byte
	for i, k := range []wire.Kind{wire.KindUptime, wire.KindCapacity, wire.KindWiFi, wire.KindThroughput} {
		kinds = appendPut(kinds, &Item{Key: name(i), Payload: named(k, name(i)), Seq: uint64(i)})
	}
	f.Add(kinds)

	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, journalFile)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		items, err := replay(path)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if got, want := keysOf(items), pendingKeys(b); !slices.Equal(got, want) {
			t.Fatalf("replay recovered keys %q, the valid frames hold %q", got, want)
		}
		once := rewritten(t, filepath.Join(dir, "once"), items)
		again, err := replay(filepath.Join(dir, "once"))
		if err != nil {
			t.Fatalf("replay of the rewritten journal: %v", err)
		}
		if got, want := keysOf(again), keysOf(items); !slices.Equal(got, want) {
			t.Fatalf("compaction changed the pending keys: %q → %q", want, got)
		}
		if twice := rewritten(t, filepath.Join(dir, "twice"), again); !bytes.Equal(once, twice) {
			t.Fatalf("rewrite∘replay not a fixed point:\n %x\n %x", once, twice)
		}
	})
}

// rewritten compacts items into a fresh journal at path and returns its
// bytes.
func rewritten(t *testing.T, path string, items []Item) []byte {
	t.Helper()
	j := &journal{path: path}
	if err := j.rewrite(items); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if err := j.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func keysOf(items []Item) []string {
	var keys []string
	for _, it := range items {
		keys = append(keys, it.Key)
	}
	return keys
}

// pendingKeys is the fuzz target's model of replay: walk whole frames
// whose CRC holds, keep each put whose body decodes as seq, enqueue time
// and a one-item NPB1 batch, and let each ack drop the puts of its key
// written before it.
func pendingKeys(b []byte) []string {
	var keys []string
	for len(b) >= 8 {
		n := int(binary.LittleEndian.Uint32(b))
		if n < 0 || n > len(b)-8 || crc32.ChecksumIEEE(b[8:8+n]) != binary.LittleEndian.Uint32(b[4:]) {
			break
		}
		body := b[8 : 8+n]
		b = b[8+n:]
		if len(body) == 0 {
			continue
		}
		switch body[0] {
		case 'p':
			if key, ok := putKey(body[1:]); ok {
				keys = append(keys, key)
			}
		case 'a':
			keys = slices.DeleteFunc(keys, func(k string) bool { return k == string(body[1:]) })
		}
	}
	return keys
}

func putKey(body []byte) (string, bool) {
	c := codec.NewDec(body)
	c.Uvarint()
	c.Varint()
	c.Uvarint()
	var dec wire.Decoder
	if c.Err() != nil || dec.Reset(c.Take(c.Remaining())) != nil || dec.Len() != 1 {
		return "", false
	}
	var it wire.Item
	if dec.Next(&it) != nil {
		return "", false
	}
	key := it.Key
	return key, dec.Next(&it) == io.EOF
}
