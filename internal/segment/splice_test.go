package segment_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/mac"
	"natpeek/internal/rng"
	"natpeek/internal/segment"
)

// spliceInputs cuts the rows and keys of 1–4 segments out of b, a byte
// at a time, so a fuzzer steers them: every block kind, empty kinds and
// empty inputs, zero and pre-1970 times, negative and large values,
// dictionary columns that repeat beside one-off strings, and rosters
// that disagree about a router's country.
func spliceInputs(b []byte) ([]*dataset.Store, [][]segment.Key) {
	next := func() byte {
		if len(b) == 0 {
			return 0
		}
		c := b[0]
		b = b[1:]
		return c
	}
	n := 1 + int(next()%4)
	stores, keys := make([]*dataset.Store, n), make([][]segment.Key, n)
	for i := range stores {
		stores[i] = &dataset.Store{RouterCountry: make(map[string]string)}
	}
	str := func(pool ...string) string {
		if c := next(); c < 0xe0 {
			return pool[int(c)%len(pool)]
		}
		return fmt.Sprintf("h%02x%02x", next(), next())
	}
	at := func() time.Time {
		switch c := next(); c % 8 {
		case 0:
			return time.Time{}
		case 1:
			return time.Unix(-int64(c)<<28, int64(next())*3e6).UTC()
		default:
			return t0.Add(time.Duration(int8(c))*time.Hour + time.Duration(next())*time.Second + time.Duration(next())*time.Microsecond)
		}
	}
	num := func() int64 { return int64(int8(next())) << (next() % 56) }
	dev := func() mac.Addr { return mac.FromOUI(0x001CB3, uint32(next()%8)) }
	for len(b) > 0 {
		op := next()
		i := int(op/9) % n
		st, id := stores[i], str("r0", "r1", "r2", "", "bismark-000")
		switch op % 9 {
		case 0:
			st.Uptime = append(st.Uptime, dataset.UptimeReport{RouterID: id, ReportedAt: at(), Uptime: time.Duration(num())})
		case 1:
			st.Capacity = append(st.Capacity, dataset.CapacityMeasure{RouterID: id, MeasuredAt: at(), UpBps: float64(num()) / 7, DownBps: float64(num())})
		case 2:
			st.Counts = append(st.Counts, dataset.DeviceCount{RouterID: id, At: at(), Wired: int(num()), W24: int(num()), W5: int(num())})
		case 3:
			st.Sightings = append(st.Sightings, dataset.DeviceSighting{RouterID: id, At: at(), Device: dev(), Kind: dataset.ConnKind(next() % 3)})
		case 4:
			st.WiFi = append(st.WiFi, dataset.WiFiScan{RouterID: id, At: at(), Band: str("2.4GHz", "5GHz"), Channel: int(num()), VisibleAPs: int(num()), Clients: int(num())})
		case 5:
			st.Flows = append(st.Flows, dataset.FlowRecord{RouterID: id, Device: dev(), Domain: str("netflix.com", "google.com", ""), Proto: str("tcp", "udp"),
				First: at(), Last: at(), UpBytes: num(), DownBytes: num(), UpPkts: num(), DownPkts: num(), Conns: num()})
		case 6:
			st.Throughput = append(st.Throughput, dataset.ThroughputSample{RouterID: id, Minute: at(), Dir: str("up", "down"), PeakBps: float64(num()) / 3, TotalBytes: num()})
		case 7:
			keys[i] = append(keys[i], segment.Key{Router: id, Key: str("k1", "k2", "")})
		default:
			st.RouterCountry[id] = str("US", "ZA", "IN")
		}
	}
	return stores, keys
}

// encodeRun encodes each input as the flush of its own seq.
func encodeRun(stores []*dataset.Store, keys [][]segment.Key) [][]byte {
	files := make([][]byte, len(stores))
	for i, st := range stores {
		seq := uint64(i + 1)
		files[i] = segment.Encode(st, keys[i], segment.SeqRange{First: seq, Last: seq}, nil)
	}
	return files
}

// spliceRun splices files as a compaction of all of them.
func spliceRun(t *testing.T, files [][]byte) ([]byte, segment.Meta, int, error) {
	t.Helper()
	in := make([]*segment.Reader, len(files))
	var replaces []segment.SeqRange
	for i, b := range files {
		r, err := segment.NewReader(b)
		if err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		in[i] = r
		replaces = append(replaces, r.Meta().Seq)
	}
	return segment.Splice(in, segment.SeqRange{First: 1, Last: uint64(len(files))}, replaces)
}

// joinedEncoding is Encode of the inputs' rows, keys and rosters joined
// in order: what a splice of their files must write.
func joinedEncoding(stores []*dataset.Store, keys [][]segment.Key) []byte {
	all := &dataset.Store{RouterCountry: make(map[string]string)}
	var allKeys []segment.Key
	var replaces []segment.SeqRange
	for i, st := range stores {
		appendRows(all, st)
		allKeys = append(allKeys, keys[i]...)
		replaces = append(replaces, segment.SeqRange{First: uint64(i + 1), Last: uint64(i + 1)})
	}
	return segment.Encode(all, allKeys, segment.SeqRange{First: 1, Last: uint64(len(stores))}, replaces)
}

// checkSplice holds the splice of the inputs' files to the encoding of
// their rows joined, and its Meta to the one its own footer parses to.
func checkSplice(t *testing.T, stores []*dataset.Store, keys [][]segment.Key) {
	t.Helper()
	got, meta, _, err := spliceRun(t, encodeRun(stores, keys))
	if err != nil {
		t.Fatalf("splice of valid inputs: %v", err)
	}
	if want := joinedEncoding(stores, keys); !bytes.Equal(got, want) {
		t.Fatalf("splice wrote %d bytes that differ from Encode's %d", len(got), len(want))
	}
	r, err := segment.NewReader(got)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(meta, r.Meta()) {
		t.Fatalf("splice returned meta %+v, its footer reads %+v", meta, r.Meta())
	}
}

// TestSpliceMatchesEncode: splicing the files of 1–4 inputs writes what
// Encode writes for their rows joined, byte for byte, over random inputs
// that hold every block kind, in at least two inputs at once.
func TestSpliceMatchesEncode(t *testing.T) {
	r := rng.New(40)
	var shared [8]int // runs in which two or more inputs hold the kind
	for run := 0; run < 300; run++ {
		b := make([]byte, r.Intn(3000))
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		stores, keys := spliceInputs(b)
		checkSplice(t, stores, keys)
		for kind := range shared {
			holding := 0
			for i, st := range stores {
				rows := len(keys[i])
				if kind < dataset.NumKinds {
					rows = dataset.Kinds[kind].Len(st)
				}
				if rows > 0 {
					holding++
				}
			}
			if holding >= 2 {
				shared[kind]++
			}
		}
	}
	for kind, n := range shared {
		if n < 10 {
			t.Fatalf("block kind %d was shared by two inputs in %d runs only", kind, n)
		}
	}
	stores, keys := spliceInputs([]byte{3}) // four empty inputs
	checkSplice(t, stores, keys)
}

// FuzzSegmentSplice asserts two properties. Splicing the files of 1–4
// inputs built from b writes exactly Encode of their rows joined. And
// with one input's blocks corrupted (x xored into one byte, CRCs made to
// match), the splice never panics, fails exactly when decoding that
// input fails, names it, and otherwise writes a segment that decodes to
// the inputs' decoded rows joined. The seeds in
// testdata/fuzz/FuzzSegmentSplice corrupt each column check in turn.
func FuzzSegmentSplice(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte, at uint32, x byte) {
		stores, keys := spliceInputs(b)
		checkSplice(t, stores, keys)
		if x == 0 {
			return
		}
		files := encodeRun(stores, keys)
		k := int(at % uint32(len(files)))
		bad, err := segment.Reseal(files[k], func(blocks []byte) {
			if len(blocks) > 0 {
				blocks[int(at/4)%len(blocks)] ^= x
			}
		})
		if err != nil {
			t.Fatalf("reseal: %v", err)
		}
		files[k] = bad
		all := &dataset.Store{RouterCountry: make(map[string]string)}
		var allKeys []segment.Key
		decodable := true
		for _, file := range files {
			st, ks, _, err := segment.Decode(file)
			if err != nil {
				decodable = false
				break
			}
			appendRows(all, st)
			allKeys = append(allKeys, ks...)
		}
		out, _, which, err := spliceRun(t, files)
		if err != nil {
			if decodable || which != k {
				t.Fatalf("splice failed at input %d (corrupted: %d, decodable: %v): %v", which, k, decodable, err)
			}
			return
		}
		if !decodable {
			t.Fatal("splice accepted an input that does not decode")
		}
		st, ks, meta, err := segment.Decode(out)
		if err != nil {
			t.Fatalf("spliced segment does not decode: %v", err)
		}
		// Compared encoded, so a NaN the corruption made compares equal.
		if !bytes.Equal(segment.Encode(st, ks, meta.Seq, nil), segment.Encode(all, allKeys, meta.Seq, nil)) {
			t.Fatal("spliced segment decodes to other rows than its inputs")
		}
	})
}

// TestSpliceRefusesWhatDecodeRefuses: a column that the decoders refuse
// under a CRC that matches — a reference past the dictionary, more zero
// times than rows, a zero-time index repeated or past the column, a
// nanosecond count of a whole second — fails the splice at that input
// with the decoder's reason.
func TestSpliceRefusesWhatDecodeRefuses(t *testing.T) {
	st := dataset.NewStore()
	for _, at := range []time.Time{{}, {}, time.Unix(1e9, 999999999).UTC()} {
		st.Uptime = append(st.Uptime, dataset.UptimeReport{RouterID: "r1", ReportedAt: at})
	}
	valid := segment.Encode(st, nil, segment.SeqRange{First: 1, Last: 1}, nil)
	// The uptime block opens the file: router column 0 2 "r1" 1 1, then
	// the time column: 2 zero rows, at 0 and 1, then row 2's second
	// (5 bytes) and nanoseconds (5 bytes).
	nsec := binary.AppendUvarint(nil, 999999999)
	if !bytes.Equal(valid[4+14:4+19], nsec) {
		t.Fatalf("uptime block layout moved: % x", valid[4:4+19])
	}
	for _, c := range []struct {
		why  string
		edit func(blocks []byte)
	}{
		{"beyond dictionary", func(p []byte) { p[5] = 3 }},
		{"zero-time rows in a column of 3", func(p []byte) { p[6] = 4 }},
		{"out of order or range", func(p []byte) { p[8] = 0 }},
		{"out of order or range", func(p []byte) { p[8] = 3 }},
		{"nanoseconds within a second", func(p []byte) { binary.AppendUvarint(p[14:14], 1e9) }},
	} {
		bad, err := segment.Reseal(valid, c.edit)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := segment.Decode(bad); err == nil || !strings.Contains(err.Error(), c.why) {
			t.Fatalf("%s: the edited segment decodes with %v", c.why, err)
		}
		_, _, which, err := spliceRun(t, [][]byte{valid, bad})
		if !errors.Is(err, segment.ErrCorrupt) || !strings.Contains(err.Error(), c.why) || which != 1 {
			t.Fatalf("%s: splice failed at input %d with %v", c.why, which, err)
		}
	}
}
