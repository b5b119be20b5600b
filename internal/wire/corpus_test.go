package wire

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"
)

// escapeSeeds are the fuzz seeds of the time escape, shared by
// FuzzWireDecode and FuzzSplit: every kind stamped with instants the
// delta chain cannot carry, and escapes the decoder must refuse.
func escapeSeeds() map[string][]byte {
	items := instantItems(time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC), 1e6)
	items = append(items, instantItems(time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC), 1e6)...)
	return map[string][]byte{
		"escaped-times":     AppendBatch(nil, items),
		"escape-nsec-1e9":   escapedUptime(0, 1e9),
		"escape-year-10000": escapedUptime(253402300800, 0),
	}
}

// escapedUptime is a one-item batch whose uptime row's time is the
// escape with sec and nsec as given.
func escapedUptime(sec int64, nsec uint64) []byte {
	b := binary.AppendUvarint([]byte(magic), 1)
	b = binary.AppendUvarint(b, uint64(KindUptime))
	b = append(b, 0)         // key: empty string
	b = append(b, 0, 1, 'r') // router ref: literal "r"
	b = binary.AppendVarint(b, math.MaxInt64)
	b = binary.AppendVarint(b, sec)
	b = binary.AppendUvarint(b, nsec)
	return binary.AppendVarint(b, 60) // uptime
}

// writeCorpus writes the seeds missing from testdata/fuzz/<fuzzer>, one
// file each, args following the []byte input. A file already there is
// left as it is: it pins the bytes the encoder of its day wrote.
func writeCorpus(t *testing.T, fuzzer string, seeds map[string][]byte, args string) {
	dir := filepath.Join("testdata", "fuzz", fuzzer)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range seeds {
		path := filepath.Join(dir, name)
		if _, err := os.Stat(path); err == nil {
			continue
		}
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n" + args
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWriteSeedCorpus adds the canonical encoder's seeds missing from
// the checked-in FuzzWireDecode corpus. Run with WIRE_WRITE_CORPUS=1
// after changing the encoding.
func TestWriteSeedCorpus(t *testing.T) {
	if os.Getenv("WIRE_WRITE_CORPUS") == "" {
		t.Skip("set WIRE_WRITE_CORPUS=1 to add missing testdata/fuzz/FuzzWireDecode seeds")
	}
	full := AppendBatch(nil, sampleItems())
	seeds := map[string][]byte{
		"empty-batch":      AppendBatch(nil, nil),
		"full-batch":       full,
		"single-item":      AppendBatch(nil, sampleItems()[:1]),
		"traced-item":      AppendBatch(nil, sampleItems()[:1]),
		"truncated":        full[:len(full)*2/3],
		"trailing-garbage": append(append([]byte(nil), full...), 0xde, 0xad),
		"bad-magic":        []byte("JSON{}"),
	}
	for name, b := range escapeSeeds() {
		seeds[name] = b
	}
	writeCorpus(t, "FuzzWireDecode", seeds, "")
}
