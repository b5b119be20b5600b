package verify

import (
	"bytes"
	"sync"
	"testing"

	"natpeek/internal/dataset"
)

// cluster3Seed1 is the seed-1 run through a 3-node cluster: made once
// per test process, shared by every test that needs it.
var cluster3Seed1 struct {
	once sync.Once
	r    *Result
	err  error
}

func runCluster3Seed1(t *testing.T) *Result {
	t.Helper()
	cluster3Seed1.once.Do(func() { cluster3Seed1.r, cluster3Seed1.err = RunCluster(Config{Seed: 1}, 3) })
	if cluster3Seed1.err != nil {
		t.Fatalf("verify.RunCluster(seed=1): %v", cluster3Seed1.err)
	}
	return cluster3Seed1.r
}

// ingestedRows totals the rows of every kind a run ingested.
func ingestedRows(r *Result) int {
	n := 0
	for _, k := range dataset.Kinds {
		n += k.Len(r.Ingested)
	}
	return n
}

// TestGoldenSegmentBacked is the storage engine's substitution
// contract: the deployment ingested into the columnar segment store —
// rotating through many sealed segments mid-run, then REOPENED from the
// segment files alone — must produce a snapshot byte-identical to the
// golden. Storage, like the wire format, must be invisible in the data.
func TestGoldenSegmentBacked(t *testing.T) {
	r := runSeed1(t)
	if n := ingestedRows(r); n < 4*segmentFlushRows {
		t.Errorf("run ingested %d rows, under 4 flushes of %d: too few sealed segments to test rotation",
			n, segmentFlushRows)
	}
	if fails := CheckAll(r, nil); len(fails) > 0 {
		for _, f := range fails {
			t.Errorf("invariant %s", f)
		}
	}
	got := BuildSnapshot(r).Encode()
	if want := goldenSeed1(t); !bytes.Equal(got, want) {
		t.Errorf("segment-backed snapshot differs from golden:\n%s", snapshotDiff(want, got))
	}
}

// TestClusterGoldenSegmentBacked runs the 3-node cluster with every
// node's shard persisted to its own segment directory and reopened from
// it; the merged snapshot must still match the single-node golden.
func TestClusterGoldenSegmentBacked(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster run in -short mode")
	}
	r := runCluster3Seed1(t)
	if n := ingestedRows(r); n < 2*3*segmentFlushRows {
		t.Errorf("cluster ingested %d rows, under 2 flushes of %d per node: too few sealed segments to test rotation",
			n, segmentFlushRows)
	}
	if len(r.PrivacyViolations) > 0 {
		t.Fatalf("privacy violations: %v", r.PrivacyViolations)
	}
	got := BuildSnapshot(r).Encode()
	if want := goldenSeed1(t); !bytes.Equal(got, want) {
		t.Errorf("segment-backed cluster snapshot differs from golden:\n%s", snapshotDiff(want, got))
	}
}
