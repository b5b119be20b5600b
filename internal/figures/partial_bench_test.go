package figures

import (
	"testing"

	"natpeek/internal/analysis"
	"natpeek/internal/dataset"
	"natpeek/internal/rng"
)

// The Partial's costs over ≈100k aggregates of loadgen mix — what
// natbench's analysis.fold_rows_per_s and clone_ms probe.

func mixStore(uploads int) *dataset.Store {
	st := dataset.NewStore()
	loadgenMix(st, rng.New(7), 0, uploads, 512, 0.65)
	return st
}

func BenchmarkPartialFold(b *testing.B) {
	st := mixStore(45_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.NewPartial().Fold(st)
	}
}

func BenchmarkPartialClone(b *testing.B) {
	p := analysis.NewPartial()
	p.Fold(mixStore(45_000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Clone()
	}
}
