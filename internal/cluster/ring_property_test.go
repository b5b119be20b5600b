package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// ringSample is the key population the ring properties are checked
// over. Deterministic (no RNG): the hash mixes enough that sequential
// IDs exercise the ring as well as random ones, and failures reproduce.
func ringSample(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("rt-%06d", i)
	}
	return keys
}

func ringNodes(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("ring-node-%d", i)
	}
	return ids
}

// TestRingRelocationProperty is the metamorphic contract the whole
// rebalancing design prices against: growing an N-node ring to N+1
// relocates about 1/(N+1) of the key space — never more than that plus
// a vnode-variance allowance — and every key that moves, moves TO the
// added node; no key is shuffled between untouched nodes. Shrinking is
// checked as the exact inverse: removing the node restores the original
// owner of every key, bit for bit. Transfer cost during a scale event
// is therefore bounded by the joining (or draining) node's own share.
//
// Table-driven over N=2..8 and the vnode counts in deployment reach;
// 100k sampled keys (10k under -short).
func TestRingRelocationProperty(t *testing.T) {
	sample := ringSample(100_000)
	if testing.Short() {
		sample = ringSample(10_000)
	}
	for n := 2; n <= 8; n++ {
		for _, vnodes := range []int{16, 64, 128} {
			t.Run(fmt.Sprintf("n=%d/vnodes=%d", n, vnodes), func(t *testing.T) {
				ids := ringNodes(n)
				before := NewRing(ids, vnodes)
				added := fmt.Sprintf("ring-node-%d", n)
				after := NewRing(append(append([]string(nil), ids...), added), vnodes)

				moved := 0
				for _, key := range sample {
					ob, oa := before.Owner(key), after.Owner(key)
					if ob == oa {
						continue
					}
					moved++
					if oa != added {
						t.Fatalf("key %q moved %s -> %s, but only the added node %s may gain keys",
							key, ob, oa, added)
					}
				}
				frac := float64(moved) / float64(len(sample))
				ideal := 1.0 / float64(n+1)
				// Allowance: vnode placement is uneven, so the new
				// node's share can overshoot the ideal. The bound is
				// double the ideal share — far below the 2/(N+1) a
				// naive mod-N rehash would blow through (it moves
				// (N-1)/N of ALL keys), and comfortably above observed
				// variance even at 16 vnodes.
				if frac > 2*ideal {
					t.Fatalf("adding 1 node to %d moved %.2f%% of keys, want <= %.2f%%",
						n, 100*frac, 100*2*ideal)
				}
				if moved == 0 {
					t.Fatal("adding a node moved no keys: the new node owns nothing")
				}

				// Shrink is the exact inverse of grow.
				shrunk := NewRing(ids, vnodes)
				for _, key := range sample {
					if shrunk.Owner(key) != before.Owner(key) {
						t.Fatalf("removing the added node did not restore ownership of %q", key)
					}
				}
			})
		}
	}
}

// TestRingReplicaSetStability extends the relocation property to full
// replica sets: after adding a node, a key's R-set may gain the new
// node (displacing at most one member) but the surviving members keep
// their relative order — journals on untouched successors stay valid
// across a scale event.
func TestRingReplicaSetStability(t *testing.T) {
	sample := ringSample(20_000)
	if testing.Short() {
		sample = ringSample(4_000)
	}
	const n, r = 4, 3
	ids := ringNodes(n)
	added := fmt.Sprintf("ring-node-%d", n)
	before := NewRing(ids, DefaultVnodes)
	after := NewRing(append(append([]string(nil), ids...), added), DefaultVnodes)
	for _, key := range sample {
		sb, sa := before.Lookup(key, r), after.Lookup(key, r)
		// Survivors of the old set that remain in the new set must
		// appear in the same relative order.
		keep := make([]string, 0, r)
		inNew := make(map[string]bool, r)
		for _, id := range sa {
			inNew[id] = true
		}
		for _, id := range sb {
			if inNew[id] {
				keep = append(keep, id)
			}
		}
		ki := 0
		for _, id := range sa {
			if ki < len(keep) && id == keep[ki] {
				ki++
			}
		}
		if ki != len(keep) {
			t.Fatalf("replica set for %q reordered surviving nodes: before %v after %v", key, sb, sa)
		}
		// At most one displacement, and only by the added node.
		lost := len(sb) - len(keep)
		if lost > 1 {
			t.Fatalf("replica set for %q lost %d members on a one-node add: before %v after %v",
				key, lost, sb, sa)
		}
		if lost == 1 && !inNew[added] {
			t.Fatalf("replica set for %q dropped a member without gaining the added node: before %v after %v",
				key, sb, sa)
		}
	}
}

// lookupOracle is Ring.Lookup as it was before the walks were
// precomputed: scan clockwise from the router's point, skipping nodes
// already taken.
func lookupOracle(r *Ring, router string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	n = min(n, len(r.nodes))
	h := hash64(router)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	taken := make(map[int]bool, n)
	for scanned := 0; scanned < len(r.points) && len(out) < n; scanned++ {
		p := r.points[(i+scanned)%len(r.points)]
		if taken[p.node] {
			continue
		}
		taken[p.node] = true
		out = append(out, r.nodes[p.node])
	}
	return out
}

// TestRingLookupMatchesScan: for random routers, node counts 1..5 and
// replica-set sizes 0..6, the precomputed lookup equals the clockwise
// scan.
func TestRingLookupMatchesScan(t *testing.T) {
	rnd := rand.New(rand.NewSource(26))
	for nodes := 1; nodes <= 5; nodes++ {
		for _, vnodes := range []int{1, 16, DefaultVnodes} {
			r := NewRing(ringNodes(nodes), vnodes)
			for i := 0; i < 2000; i++ {
				router := fmt.Sprintf("rt-%x", rnd.Uint64())
				for n := 0; n <= 6; n++ {
					if got, want := r.Lookup(router, n), lookupOracle(r, router, n); !slices.Equal(got, want) {
						t.Fatalf("%d nodes, %d vnodes: Lookup(%q, %d) = %v, scan %v", nodes, vnodes, router, n, got, want)
					}
				}
			}
		}
	}
	if got := NewRing(nil, 0).Lookup("rt", 2); got != nil {
		t.Fatalf("empty ring placed a router: %v", got)
	}
}

// TestRingLookupAllocs: a lookup is a search and a subslice.
func TestRingLookupAllocs(t *testing.T) {
	r := NewRing(ringNodes(3), DefaultVnodes)
	if allocs := testing.AllocsPerRun(100, func() { r.Lookup("rt-000001", 2) }); allocs != 0 {
		t.Fatalf("Lookup allocated %.0f times", allocs)
	}
}
