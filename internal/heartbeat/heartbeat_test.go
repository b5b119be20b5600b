package heartbeat

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2012, 10, 1, 0, 0, 0, 0, time.UTC)

func TestBeatRoundTrip(t *testing.T) {
	b := Beat{RouterID: "gt-router-001", Seq: 42, SentAt: t0}
	got, err := ParseBeat(b.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.RouterID != b.RouterID || got.Seq != 42 || !got.SentAt.Equal(t0) {
		t.Fatalf("got %+v", got)
	}
}

func TestParseBeatRejectsGarbage(t *testing.T) {
	for _, raw := range [][]byte{nil, {1, 2}, []byte("XXXX rest"), append(magic[:], 9)} {
		if _, err := ParseBeat(raw); err == nil {
			t.Fatalf("accepted %v", raw)
		}
	}
	// Truncated valid prefix.
	full := (&Beat{RouterID: "r", Seq: 1, SentAt: t0}).Marshal()
	for n := 0; n < len(full); n++ {
		if _, err := ParseBeat(full[:n]); err == nil {
			t.Fatalf("accepted truncation to %d", n)
		}
	}
}

func TestParseBeatNeverPanics(t *testing.T) {
	if err := quick.Check(func(raw []byte) bool {
		ParseBeat(raw)
		return true
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLongRouterIDTruncated(t *testing.T) {
	id := make([]byte, 300)
	for i := range id {
		id[i] = 'a'
	}
	b := Beat{RouterID: string(id), SentAt: t0}
	got, err := ParseBeat(b.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.RouterID) != 255 {
		t.Fatalf("id length %d", len(got.RouterID))
	}
}

func beatsEvery(from time.Time, interval time.Duration, n int) []time.Time {
	out := make([]time.Time, n)
	for i := range out {
		out[i] = from.Add(time.Duration(i) * interval)
	}
	return out
}

func TestNoGapsOnSteadyBeats(t *testing.T) {
	beats := beatsEvery(t0, Interval, 60*24) // one full day
	gaps := GapsIn(beats, t0, t0.Add(24*time.Hour), DefaultGapThreshold)
	if len(gaps) != 0 {
		t.Fatalf("gaps = %v", gaps)
	}
}

func TestSingleGapDetected(t *testing.T) {
	day := t0.Add(24 * time.Hour)
	beats := append(beatsEvery(t0, Interval, 60), // first hour
		beatsEvery(t0.Add(2*time.Hour), Interval, 60*22)...) // resumes at hour 2
	gaps := GapsIn(beats, t0, day, DefaultGapThreshold)
	if len(gaps) != 1 {
		t.Fatalf("gaps = %d", len(gaps))
	}
	g := gaps[0]
	if !g.Start.Equal(t0.Add(59*time.Minute)) || !g.End.Equal(t0.Add(2*time.Hour)) {
		t.Fatalf("gap %v–%v", g.Start, g.End)
	}
	if g.Duration() != time.Hour+time.Minute {
		t.Fatalf("duration %v", g.Duration())
	}
}

func TestGapAtExactlyThresholdIgnored(t *testing.T) {
	// Paper: "lasts longer than ten minutes" — a gap of exactly the
	// threshold is not downtime.
	beats := []time.Time{t0, t0.Add(10 * time.Minute)}
	if gaps := GapsIn(beats, t0, t0.Add(11*time.Minute), DefaultGapThreshold); len(gaps) != 0 {
		t.Fatalf("10-minute gap flagged: %v", gaps)
	}
	beats = []time.Time{t0, t0.Add(10*time.Minute + time.Second)}
	if gaps := GapsIn(beats, t0, t0.Add(11*time.Minute), DefaultGapThreshold); len(gaps) != 1 {
		t.Fatal("10m1s gap missed")
	}
}

func TestLeadingAndTrailingSilence(t *testing.T) {
	end := t0.Add(3 * time.Hour)
	beats := beatsEvery(t0.Add(time.Hour), Interval, 60) // active only hour 1–2
	gaps := GapsIn(beats, t0, end, DefaultGapThreshold)
	if len(gaps) != 2 {
		t.Fatalf("gaps = %d, want leading+trailing", len(gaps))
	}
	if !gaps[0].Start.Equal(t0) {
		t.Fatal("leading gap missing")
	}
	if !gaps[1].End.Equal(end) {
		t.Fatal("trailing gap missing")
	}
}

func TestSilentRouterIsOneLongDowntime(t *testing.T) {
	gaps := GapsIn(nil, t0, t0.Add(24*time.Hour), DefaultGapThreshold)
	if len(gaps) != 1 || gaps[0].Duration() != 24*time.Hour {
		t.Fatalf("gaps = %v", gaps)
	}
}

func TestBeatsOutsideWindowIgnored(t *testing.T) {
	beats := append(beatsEvery(t0.Add(-time.Hour), Interval, 60),
		beatsEvery(t0.Add(25*time.Hour), Interval, 60)...)
	gaps := GapsIn(beats, t0, t0.Add(24*time.Hour), DefaultGapThreshold)
	if len(gaps) != 1 {
		t.Fatalf("out-of-window beats leaked in: %v", gaps)
	}
}

func TestUnsortedInputHandled(t *testing.T) {
	beats := []time.Time{t0.Add(25 * time.Minute), t0, t0.Add(5 * time.Minute)}
	gaps := GapsIn(beats, t0, t0.Add(26*time.Minute), DefaultGapThreshold)
	if len(gaps) != 1 { // 5m→25m gap only
		t.Fatalf("gaps = %v", gaps)
	}
	if !gaps[0].Start.Equal(t0.Add(5 * time.Minute)) {
		t.Fatalf("gap start %v", gaps[0].Start)
	}
}

func TestEmptyWindow(t *testing.T) {
	if GapsIn([]time.Time{t0}, t0, t0, DefaultGapThreshold) != nil {
		t.Fatal("empty window produced gaps")
	}
}

func TestLogUptimeFraction(t *testing.T) {
	l := NewLog()
	// On for 12 h of a 24 h window.
	l.RecordBulk("r1", beatsEvery(t0, Interval, 60*12))
	got := l.UptimeFraction("r1", t0, t0.Add(24*time.Hour), DefaultGapThreshold)
	// Downtime = 24h − 11h59m ≈ 12h1m → uptime ≈ 0.4993
	if got < 0.49 || got > 0.51 {
		t.Fatalf("uptime fraction = %v", got)
	}
}

func TestLogDowntimesPerDay(t *testing.T) {
	l := NewLog()
	var beats []time.Time
	// 10 days; a 30-minute outage every day at noon.
	for d := 0; d < 10; d++ {
		day := t0.Add(time.Duration(d) * 24 * time.Hour)
		beats = append(beats, beatsEvery(day, Interval, 12*60)...)
		beats = append(beats, beatsEvery(day.Add(12*time.Hour+30*time.Minute), Interval, 11*60+30)...)
	}
	l.RecordBulk("r", beats)
	got := l.DowntimesPerDay("r", t0, t0.Add(10*24*time.Hour), DefaultGapThreshold)
	if got < 0.9 || got > 1.1 {
		t.Fatalf("downtimes/day = %v, want ≈1", got)
	}
}

func TestLogRoutersSorted(t *testing.T) {
	l := NewLog()
	l.Record("zz", t0)
	l.Record("aa", t0)
	ids := l.Routers()
	if len(ids) != 2 || ids[0] != "aa" {
		t.Fatalf("routers = %v", ids)
	}
	if l.Count("zz") != 1 || l.Count("missing") != 0 {
		t.Fatal("counts wrong")
	}
}

func TestSenderReceiverOverLoopback(t *testing.T) {
	log := NewLog()
	rx, err := NewReceiver("127.0.0.1:0", log, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()

	tx, err := NewSender("router-xyz", rx.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	for i := 0; i < 5; i++ {
		if err := tx.Send(time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for log.Count("router-xyz") < 5 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := log.Count("router-xyz"); got != 5 {
		t.Fatalf("received %d/5 beats", got)
	}
}

func TestReceiverCountsBadDatagrams(t *testing.T) {
	log := NewLog()
	rx, err := NewReceiver("127.0.0.1:0", log, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()

	tx, err := NewSender("r", rx.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	// Send raw garbage on the same socket path.
	if _, err := tx.conn.Write([]byte("not a heartbeat")); err != nil {
		t.Fatal(err)
	}
	tx.Send(time.Now())
	deadline := time.Now().Add(5 * time.Second)
	for log.Count("r") < 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if rx.BadDatagrams() != 1 {
		t.Fatalf("bad datagrams = %d", rx.BadDatagrams())
	}
}

func TestGapsInvariantNoOverlapAndInWindow(t *testing.T) {
	if err := quick.Check(func(offsets []uint16) bool {
		from := t0
		to := t0.Add(48 * time.Hour)
		beats := make([]time.Time, 0, len(offsets))
		for _, o := range offsets {
			beats = append(beats, t0.Add(time.Duration(o)*time.Minute))
		}
		gaps := GapsIn(beats, from, to, DefaultGapThreshold)
		prevEnd := from
		for _, g := range gaps {
			if g.Start.Before(prevEnd) || g.End.After(to) || !g.End.After(g.Start) {
				return false
			}
			if g.Duration() <= DefaultGapThreshold {
				return false
			}
			prevEnd = g.End
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRunEncodingMatchesExpandedGaps(t *testing.T) {
	// Property: Downtimes over the run-length encoding must equal GapsIn
	// over the expanded beats, for arbitrary run layouts.
	if err := quick.Check(func(starts []uint16, counts []uint8) bool {
		l := NewLog()
		var beats []time.Time
		for i, s := range starts {
			n := 1
			if i < len(counts) {
				n = int(counts[i]%30) + 1
			}
			start := t0.Add(time.Duration(s%2880) * time.Minute)
			l.RecordRun("r", Run{Start: start, Interval: Interval, Count: n})
			for k := 0; k < n; k++ {
				beats = append(beats, start.Add(time.Duration(k)*Interval))
			}
		}
		from, to := t0, t0.Add(72*time.Hour)
		got := l.Downtimes("r", from, to, DefaultGapThreshold)
		want := GapsIn(beats, from, to, DefaultGapThreshold)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if !got[i].Start.Equal(want[i].Start) || !got[i].End.Equal(want[i].End) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordCompressesSteadyCadence(t *testing.T) {
	l := NewLog()
	for i := 0; i < 1000; i++ {
		l.Record("r", t0.Add(time.Duration(i)*Interval))
	}
	if runs := l.Runs("r"); len(runs) != 1 {
		t.Fatalf("1000 steady beats stored as %d runs", len(runs))
	}
	if l.Count("r") != 1000 {
		t.Fatalf("count = %d", l.Count("r"))
	}
}

func TestRecordRunIgnoresEmpty(t *testing.T) {
	l := NewLog()
	l.RecordRun("r", Run{Start: t0, Count: 0})
	if l.Count("r") != 0 {
		t.Fatal("empty run recorded")
	}
}

// TestRepeatedBeatIsNoOp: recording again what the router's latest run
// already holds — the instant of any of its beats, as a repeated
// datagram brings it, or the run itself or any sub-run on its cadence,
// as a replayed upload brings it — leaves the log unchanged. Arrivals
// keep a seeded mix of steady cadence, skipped beats and whole runs, so
// the latest run is sometimes a single beat and sometimes a long run.
func TestRepeatedBeatIsNoOp(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	l := NewLog()
	at := t0
	for i := 0; i < 500; i++ {
		at = at.Add(time.Duration(1+rng.Intn(3)) * Interval)
		if rng.Intn(4) == 0 {
			r := Run{Start: at, Interval: Interval, Count: 1 + rng.Intn(40)}
			l.RecordRun("r", r)
			at = r.End()
		} else {
			l.Record("r", at)
		}
		runs, count := l.Runs("r"), l.Count("r")
		last := runs[len(runs)-1]
		k := rng.Intn(last.Count)
		beat := last.Start.Add(time.Duration(k) * last.Interval)
		sub := Run{Start: beat, Interval: last.Interval, Count: 1 + rng.Intn(last.Count-k)}
		for what, repeat := range map[string]func(){
			"beat":    func() { l.Record("r", beat) },
			"run":     func() { l.RecordRun("r", last) },
			"sub-run": func() { l.RecordRun("r", sub) },
		} {
			repeat()
			if got := l.Count("r"); got != count || !reflect.DeepEqual(l.Runs("r"), runs) {
				t.Fatalf("arrival %d: repeating a %s of the latest run %+v moved the log: count %d, want %d", i, what, last, got, count)
			}
		}
	}
}

func TestRunWithSparseIntervalSplits(t *testing.T) {
	// Beats 30 min apart: every gap exceeds the 10-min threshold, so a
	// 4-beat run has 3 internal gaps plus window edges.
	l := NewLog()
	l.RecordRun("r", Run{Start: t0, Interval: 30 * time.Minute, Count: 4})
	gaps := l.Downtimes("r", t0, t0.Add(91*time.Minute), DefaultGapThreshold)
	if len(gaps) != 3 {
		t.Fatalf("gaps = %d, want 3", len(gaps))
	}
}

// BenchmarkDowntimesSixMonthLog measures gap analysis over a realistic
// router history (6.5 months of minute heartbeats with ~200 outages),
// exercising the run-length encoding the fleet store relies on.
func BenchmarkDowntimesSixMonthLog(b *testing.B) {
	l := NewLog()
	from := t0
	to := t0.Add(197 * 24 * time.Hour)
	cur := from
	for i := 0; cur.Before(to); i++ {
		on := time.Duration(20+i%30) * time.Hour
		off := time.Duration(10+i%50) * time.Minute
		end := cur.Add(on)
		if end.After(to) {
			end = to
		}
		l.RecordRun("r", Run{Start: cur, Interval: Interval, Count: int(end.Sub(cur) / Interval)})
		cur = end.Add(off)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Downtimes("r", from, to, DefaultGapThreshold)
	}
}
