package figures

import (
	"testing"

	"natpeek/internal/dataset"
	"natpeek/internal/segment"
)

// BenchmarkColdDashboard times a cold page: the shared study sealed as
// 16 segments, then per iteration segment.Open, NewDashboard (the
// replay and its fold) and one Render — the operation natbench's
// scan-cold reports as op_p50_ms, without its batch half.
func BenchmarkColdDashboard(b *testing.B) {
	st, win := study(b)
	opt := segment.Options{Dir: b.TempDir(), FlushRows: 1 << 30, NoCompaction: true}
	seg, err := segment.Open(opt)
	if err != nil {
		b.Fatal(err)
	}
	const segs = 16
	for i := 0; i < segs; i++ {
		seg.Append("study", func(dst *dataset.Store) {
			if i == 0 {
				for id, cc := range st.RouterCountry {
					dst.RouterCountry[id] = cc
				}
			}
			for _, k := range dataset.Kinds {
				n := k.Len(st)
				k.Append(dst, st, i*n/segs, (i+1)*n/segs-i*n/segs)
			}
		})
		if err := seg.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	if err := seg.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg, err := segment.Open(opt)
		if err != nil {
			b.Fatal(err)
		}
		d, err := NewDashboard(seg, win)
		if err != nil {
			b.Fatal(err)
		}
		if len(d.Render()) == 0 {
			b.Fatal("no exhibits")
		}
		b.StopTimer()
		if err := seg.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
