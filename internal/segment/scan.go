// The sealed-segment scanner: the one read path that Merge and the
// Subscribe replay share. Row counts sit in every segment's cached
// footer, so an output is allocated once at its final length, each
// segment is handed its disjoint window of it, and windows decode side
// by side with no lock and no copy — where a row lands depends on the
// footers alone, never on which worker got there first.
package segment

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"natpeek/internal/dataset"
)

// newWindow returns a store with an empty roster whose row slices have
// exactly rc's lengths and spare's capacity behind them (nil where both
// are zero).
func newWindow(rc, spare dataset.RowCounts) *dataset.Store {
	st := &dataset.Store{RouterCountry: make(map[string]string, rc.Routers)}
	for _, k := range dataset.Kinds {
		k.Alloc(st, *k.Count(&rc), *k.Count(&spare))
	}
	return st
}

// presized allocates one store holding exactly the rows the cached
// footers of segs promise, spare capacity behind them, and returns it
// with the function that cuts segment i's window out of it. A window's
// capacity ends where the next one begins.
func presized(segs []segFile, spare dataset.RowCounts) (*dataset.Store, func(i int) *dataset.Store) {
	offs := make([]dataset.RowCounts, len(segs)+1)
	for i, f := range segs {
		offs[i+1] = offs[i]
		offs[i+1].Add(f.meta.Rows)
	}
	out := newWindow(offs[len(segs)], spare)
	return out, func(i int) *dataset.Store {
		w := &dataset.Store{}
		for _, k := range dataset.Kinds {
			k.Window(w, out, *k.Count(&offs[i]), *k.Count(&offs[i+1]))
		}
		return w
	}
}

// scan reads every segment of segs and decodes its rows over window(i),
// on up to workers goroutines, and hands each segment's reader and
// filled window to emit in index order on the caller's goroutine. At
// most workers segments are decoded or decoding beyond the one emit
// holds. window(i) must be sized from segs[i]'s cached footer; when the
// file no longer matches it (a compaction or an extract rewrote it
// since the snapshot), cannot be read, or fails a CRC, the scan stops
// and reports that segment's index — the caller restarts from a fresh
// snapshot rather than keep an output with a hole in it.
func scan(segs []segFile, workers int, window func(i int) *dataset.Store,
	emit func(r *Reader, rows *dataset.Store) error) (bad int, err error) {
	type decoded struct {
		r    *Reader
		rows *dataset.Store
		err  error
	}
	workers = min(workers, len(segs))
	results := make([]chan decoded, len(segs))
	for i := range results {
		results[i] = make(chan decoded, 1)
	}
	// One token per segment a worker may start; the consumer hands a
	// token back for every segment it takes, which bounds decode-ahead.
	ahead := make(chan struct{}, workers)
	for i := 0; i < workers; i++ {
		ahead <- struct{}{}
	}
	// A file's bytes are not needed once its rows are decoded (every
	// string is copied out) and emitted: its buffer goes to the next
	// segment read. At most one buffer per worker and the one being
	// emitted are in use at once, which is what the channel holds.
	bufs := make(chan []byte, workers+1)
	quit := make(chan struct{})
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ahead:
				case <-quit:
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(segs) {
					return
				}
				d := decoded{rows: window(i)}
				var buf []byte
				select {
				case buf = <-bufs:
				default:
				}
				d.r, d.err = readInto(segs[i].path, d.rows, buf)
				results[i] <- d
			}
		}()
	}
	defer wg.Wait()
	defer close(quit)
	for i := range segs {
		d := <-results[i]
		if d.err != nil {
			return i, d.err
		}
		ahead <- struct{}{}
		if err := emit(d.r, d.rows); err != nil {
			return i, err
		}
		select {
		case bufs <- d.r.buf:
		default:
		}
	}
	return 0, nil
}

// readInto reads one segment file and decodes its rows over w.
func readInto(path string, w *dataset.Store, buf []byte) (*Reader, error) {
	b, err := readFile(path, buf)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	r, err := NewReader(b)
	if err == nil {
		err = r.RowsInto(w)
	}
	if err != nil {
		return nil, fmt.Errorf("segment: %s: %w", filepath.Base(path), err)
	}
	return r, nil
}

// readFile reads path into buf, reallocated if the file is larger.
func readFile(path string, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	n := int(fi.Size())
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
