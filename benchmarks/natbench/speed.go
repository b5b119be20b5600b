package main

// How fast is the machine right now? The reference box changes speed by
// two fifths within minutes (see the README's "How steady it is"), and a
// timing that moves with it says nothing about the program. So every run
// times a fixed kernel beside its workload, and the timings and rates it
// reports are scaled to the speed the kernel ran at; the values as the
// clock read them are printed beside them as "raw".

import (
	"slices"
	"time"
)

// speedKernel is a fixed piece of single-goroutine work shaped like the
// system's own: hashing into a map, a pointer chase through a few
// megabytes, and a sort. It allocates nothing once built.
type speedKernel struct {
	chase   []uint32 // one random cycle through 4 MB
	table   map[uint64]uint64
	keys    []uint64
	scratch []uint64
	sink    uint64
}

func newSpeedKernel() *speedKernel {
	const n = 1 << 20
	k := &speedKernel{chase: make([]uint32, n), table: make(map[uint64]uint64, 4096),
		keys: make([]uint64, 8192), scratch: make([]uint64, 8192)}
	// Sattolo's shuffle: a single cycle, so the chase never settles into
	// a short loop the cache can hold.
	x := uint64(88172645463325252)
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	for i := range k.chase {
		k.chase[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i))
		k.chase[i], k.chase[j] = k.chase[j], k.chase[i]
	}
	for i := range k.keys {
		k.keys[i] = next()
	}
	k.run() // fill the map, so later runs update and never grow it
	return k
}

func (k *speedKernel) run() time.Duration {
	t0 := time.Now()
	x := uint64(2463534242)
	for i := 0; i < 20_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.table[x&4095] += x
	}
	p := uint32(x) % uint32(len(k.chase))
	for i := 0; i < 16_000; i++ {
		p = k.chase[p]
	}
	copy(k.scratch, k.keys)
	slices.Sort(k.scratch)
	k.sink += uint64(p) + k.scratch[0]
	return time.Since(t0)
}

// sampleSpeed runs the kernel every speedEvery until stop closes and
// returns what each run took, in milliseconds. It runs beside the
// workload on purpose: timed in the workload's gaps, with the system
// idle and the caches its own, the kernel reads a machine the workload
// never sees (and did not follow the workload's timings at all); timed
// beside it, the kernel followed them with r = 0.8 to 0.98.
func sampleSpeed(stop <-chan struct{}) []float64 {
	k := newSpeedKernel()
	var took []float64
	tick := time.NewTicker(speedEvery)
	defer tick.Stop()
	for {
		took = append(took, ms(k.run()))
		select {
		case <-stop:
			return took
		case <-tick.C:
		}
	}
}

// speedSense says how a metric of this unit moves with the machine's
// speed: +1 a duration, -1 a rate, 0 neither.
func speedSense(unit string) int {
	switch unit {
	case "s", "ms", "s/Mrow":
		return 1
	case "rows/s":
		return -1
	}
	return 0
}
