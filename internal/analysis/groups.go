package analysis

// groups holds a row kind's values grouped by key: keys in first-seen
// order, each key's values in row order.
type groups[K comparable, V any] struct {
	index map[K]int32
	keys  []K
	vals  [][]V
}

// groupBy groups the values of rows by key, skipping rows key rejects.
// A row whose key is one of the last two distinct keys reuses its index,
// so the map is consulted once per run, not once per row: rows arrive in
// per-router runs, and within one a router's throughput alternates "up"
// and "down" minute by minute. Allocations are a handful set by the
// number of keys: the values are carved from one array after a counting
// pass. A map of appended slices would cost every key a doubling series
// of allocations, whose length grows with the rows per key — with
// history, on a page that should cost the same however much is sealed.
func groupBy[R any, K comparable, V any](rows []R, key func(*R) (K, bool), val func(*R) V) *groups[K, V] {
	g := &groups[K, V]{index: map[K]int32{}}
	of := make([]int32, len(rows))
	var counts []int
	total := 0
	var recent [2]K             // the last two distinct keys, newest first
	recentJ := [2]int32{-1, -1} // their indexes; -1 while unset
	for i := range rows {
		k, ok := key(&rows[i])
		if !ok {
			of[i] = -1
			continue
		}
		var j int32
		switch {
		case recentJ[0] >= 0 && k == recent[0]:
			j = recentJ[0]
		case recentJ[1] >= 0 && k == recent[1]:
			j = recentJ[1]
		default:
			var seen bool
			if j, seen = g.index[k]; !seen {
				j = int32(len(g.keys))
				g.index[k] = j
				g.keys = append(g.keys, k)
				counts = append(counts, 0)
			}
			recent[1], recentJ[1] = recent[0], recentJ[0]
			recent[0], recentJ[0] = k, j
		}
		of[i] = j
		counts[j]++
		total++
	}
	flat := make([]V, total)
	g.vals = make([][]V, len(g.keys))
	off := 0
	for j, n := range counts {
		g.vals[j] = flat[off : off : off+n]
		off += n
	}
	for i := range rows {
		if j := of[i]; j >= 0 {
			g.vals[j] = append(g.vals[j], val(&rows[i]))
		}
	}
	return g
}

// of returns k's values, nil when no row had key k.
func (g *groups[K, V]) of(k K) []V {
	if j, ok := g.index[k]; ok {
		return g.vals[j]
	}
	return nil
}
