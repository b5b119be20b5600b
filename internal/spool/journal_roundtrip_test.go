package spool

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"natpeek/internal/wire"
)

// step is one operation against a live journal.
type step struct {
	op  string // "put", "ack", "compact"
	key string
}

func mkItem(key string, seq uint64) Item {
	return Item{Key: key, Payload: named(wire.KindUptime, key), Seq: seq}
}

// frames renders put and ack records as journal bytes: a step with a
// key puts it, an "ack:"-prefixed one acks the rest.
func frames(steps ...string) []byte {
	var buf []byte
	for i, s := range steps {
		if key, ok := strings.CutPrefix(s, "ack:"); ok {
			buf = appendAck(buf, key)
			continue
		}
		it := mkItem(s, uint64(i+1))
		buf = appendPut(buf, &it)
	}
	return buf
}

// TestJournalRoundTrip drives put/ack/rewrite sequences through a live
// journal and asserts replay-on-reopen recovers exactly the unacked
// items, in enqueue order.
func TestJournalRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		steps []step
		want  []string // keys expected from recovery, in order
	}{
		{
			name:  "puts only",
			steps: []step{{op: "put", key: "a"}, {op: "put", key: "b"}, {op: "put", key: "c"}},
			want:  []string{"a", "b", "c"},
		},
		{
			name: "ack middle",
			steps: []step{
				{op: "put", key: "a"}, {op: "put", key: "b"}, {op: "put", key: "c"},
				{op: "ack", key: "b"},
			},
			want: []string{"a", "c"},
		},
		{
			name: "ack all",
			steps: []step{
				{op: "put", key: "a"}, {op: "ack", key: "a"},
				{op: "put", key: "b"}, {op: "ack", key: "b"},
			},
			want: nil,
		},
		{
			name: "explicit compaction keeps live set",
			steps: []step{
				{op: "put", key: "a"}, {op: "put", key: "b"},
				{op: "ack", key: "a"},
				{op: "compact"},
				{op: "put", key: "c"},
			},
			want: []string{"b", "c"},
		},
		{
			name:  "ack unknown key is inert",
			steps: []step{{op: "put", key: "a"}, {op: "ack", key: "zzz"}},
			want:  []string{"a"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j, recovered, err := openJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(recovered) != 0 {
				t.Fatalf("fresh journal recovered %d items", len(recovered))
			}
			seq := uint64(0)
			for _, s := range tc.steps {
				switch s.op {
				case "put":
					seq++
					it := mkItem(s.key, seq)
					j.put(&it)
				case "ack":
					j.ack(s.key)
				case "compact":
					items, err := replay(j.path)
					if err != nil {
						t.Fatal(err)
					}
					if err := j.rewrite(items); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := j.close(); err != nil {
				t.Fatal(err)
			}
			_, got, err := openJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			assertKeys(t, got, tc.want)
		})
	}
}

// TestJournalCompactionCrashWindows walks the crash states of the
// atomic rewrite (tmp write → fsync → rename): whichever instant the
// power dies, reopening must recover a consistent pending set — the
// pre-compaction one before the rename, the compacted one after.
func TestJournalCompactionCrashWindows(t *testing.T) {
	// The live state being compacted: a acked, b and c pending.
	journalLines := string(frames("a", "ack:a", "b", "c"))
	compactedLines := string(frames("b", "c"))
	tornPut := string(frames("d"))
	cases := []struct {
		name    string
		journal string
		tmp     string // contents of spool.journal.tmp; "" = absent
		want    []string
	}{
		{
			name:    "crash before tmp written",
			journal: journalLines,
			tmp:     "",
			want:    []string{"b", "c"},
		},
		{
			name:    "crash mid tmp write (torn tmp, journal intact)",
			journal: journalLines,
			tmp:     compactedLines[:len(compactedLines)-7], // torn mid-record
			want:    []string{"b", "c"},
		},
		{
			name:    "crash after tmp complete but before rename",
			journal: journalLines,
			tmp:     compactedLines,
			want:    []string{"b", "c"},
		},
		{
			name:    "crash after rename (compaction committed)",
			journal: compactedLines,
			tmp:     "",
			want:    []string{"b", "c"},
		},
		{
			name:    "crash mid-append after committed compaction",
			journal: compactedLines + tornPut[:len(tornPut)-7],
			tmp:     "",
			want:    []string{"b", "c"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, journalFile)
			if err := os.WriteFile(path, []byte(tc.journal), 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.tmp != "" {
				if err := os.WriteFile(path+".tmp", []byte(tc.tmp), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			j, got, err := openJournal(dir)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			assertKeys(t, got, tc.want)
			// The journal must be fully usable after recovery: appends
			// land, and the next reopen sees them.
			d := mkItem("d", 4)
			j.put(&d)
			if err := j.close(); err != nil {
				t.Fatal(err)
			}
			_, got2, err := openJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			assertKeys(t, got2, append(append([]string{}, tc.want...), "d"))
		})
	}
}

func assertKeys(t *testing.T, items []Item, want []string) {
	t.Helper()
	var got []string
	for _, it := range items {
		got = append(got, it.Key)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered keys %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered keys %v, want %v", got, want)
		}
	}
}
