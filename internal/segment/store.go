// The segment store: a bounded in-memory memtable (a dataset.Sharded
// generation) in front of immutable on-disk NPS1 segments.
//
// Lifecycle:
//
//   - Ingest lands in the live memtable exactly as it would in the plain
//     sharded store — same striping, same dedupe, same arrival-order
//     segment log.
//   - When the memtable exceeds FlushRows rows (or FlushAge), it is
//     sealed: an empty memtable over the same dedupe index is swapped in
//     under a write lock (a pointer swap, whatever the index holds), the
//     sealed generation is merged (no writers remain), encoded as one
//     NPS1 segment — rows plus the idempotency keys they were applied
//     under — and committed with write-tmp → fsync → rename. Only after
//     the rename is the sealed generation dropped from the in-memory
//     view, so readers never see a gap, and seal subscribers receive the
//     sealed rows as an immutable chunk.
//   - Compaction is size-tiered: a segment's tier is its row count in
//     powers of compactFanIn flushes' worth, and a pass folds the oldest
//     run of compactFanIn or more seq-adjacent segments of one tier into
//     one, so a row is rewritten about once per tier rather than once per
//     pass. The new footer records the replaced seq ranges; a crash
//     between the rename and the input deletion is healed at open time by
//     the supersession check.
//
// Exactly-once across the flush boundary: the dedupe index belongs to
// the store, not to a memtable. Every generation marks into the one
// dataset.Dedupe built at Open, so a replay that races a flush or
// follows a failed commit meets its key wherever its rows now are. The
// keys a generation applied travel inside its segment file, so a restart
// re-seeds the index from disk, oldest segment first — the same FIFO
// window a long-running sharded store would hold. A replay older than
// that window applies again, in a running store and after a reopen alike.
//
// Ordering: Merge() concatenates segment rows in flush (seq) order, then
// the sealed-but-uncommitted generation, then the live memtable. Each
// generation preserves its own arrival order, and every row in an older
// generation arrived before every row in a newer one, so for a serial
// upload sequence the merged per-kind slices are identical to a plain
// Sharded store's — which is what keeps the verify golden snapshots
// byte-identical with this store substituted (rows racing a rotation are
// concurrent with it, so either side of the boundary is a valid order,
// exactly like rows racing each other in the plain store).
package segment

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"natpeek/internal/dataset"
	"natpeek/internal/heartbeat"
	"natpeek/internal/telemetry"
)

// Options configures Open.
type Options struct {
	// Dir is the segment directory. Required.
	Dir string
	// FlushRows seals the memtable when it holds at least this many
	// rows. <= 0 means DefaultFlushRows.
	FlushRows int
	// FlushAge seals a non-empty memtable this long after its first
	// row, even below FlushRows, so quiet deployments still reach disk.
	// 0 disables age-based flushing.
	FlushAge time.Duration
	// NoCompaction disables background compaction (crash-window tests
	// pin specific segment layouts).
	NoCompaction bool
}

// Defaults for Options.
const (
	DefaultFlushRows = 1 << 16
	// DefaultCompactAt triggers the compaction pass that follows a flush
	// when more than this many tier-0 segments are live. It counts tier
	// 0 only: counted too, the up to three segments each higher tier
	// keeps would start a pass after nearly every flush, in the middle
	// of ingest bursts.
	DefaultCompactAt = 8
	// compactFanIn is both the fewest segments one pass merges and the
	// row factor between one size tier and the next, so a row is
	// rewritten about log4(store rows / FlushRows) times in all.
	compactFanIn = 4
	// maxCompactInputs bounds one compaction's fan-in so a single run
	// never rewrites the whole history.
	maxCompactInputs = 8
)

// memtable is one hot generation: a sharded store (which keeps its own
// row tally), the (router, idempotency key) pairs applied into it in
// arrival order, and its birth time.
type memtable struct {
	sh *dataset.Sharded

	keyMu sync.Mutex
	keys  []Key

	// born is when the first row landed (atomically published once),
	// for FlushAge.
	born atomic.Int64
}

func newMemtable(d *dataset.Dedupe) *memtable {
	return &memtable{sh: dataset.NewShardedOver(d)}
}

func (m *memtable) addKey(router, key string) {
	m.keyMu.Lock()
	m.keys = append(m.keys, Key{Router: router, Key: key})
	m.keyMu.Unlock()
}

// noteBirth stamps the generation once it holds a row.
func (m *memtable) noteBirth() {
	if m.born.Load() == 0 && m.sh.Rows() > 0 {
		m.born.CompareAndSwap(0, time.Now().UnixNano())
	}
}

// segFile is one committed on-disk segment.
type segFile struct {
	path string
	meta Meta
	size int64 // file bytes
}

// Store is the segment-backed implementation of dataset.IngestStore.
type Store struct {
	opt  Options
	hb   *heartbeat.Log
	lock *os.File // the directory's LOCK file, flocked until Close

	// dedupe outlives memtable generations: each is built over it.
	dedupe *dataset.Dedupe

	// rot guards the live memtable pointer: appliers hold it shared,
	// rotation holds it exclusively.
	rot sync.RWMutex
	mem *memtable

	// flushMu serializes seal/flush/compact/subscribe.
	flushMu sync.Mutex

	// segMu guards segs, frozen, sealGen, roster, and the seal-subscriber
	// list.
	segMu  sync.RWMutex
	segs   []segFile
	frozen *memtable // sealed, not yet durable; nil otherwise
	// sealGen counts the generations published since Open. It moves in
	// the critical section that takes a generation out of frozen, so a
	// reader of both knows exactly which sealed chunks its tail is
	// missing, whether or not the subscribers have heard of them yet.
	sealGen uint64
	roster  map[string]string
	onSeal  []func(*dataset.Store)

	nextSeq uint64

	stopc  chan struct{}
	bgDone sync.WaitGroup
	kick   chan struct{}

	flushErr atomic.Value // error string of the last failed flush, for ops

	// Seal and compaction telemetry: updated once per seal or pass,
	// never per row.
	gDedupeKeys, gLiveSegs, gLiveBytes             *telemetry.Gauge
	hSealLock, hFlush, hCompact                    *telemetry.Histogram
	mCompactedRows, mFlushedBytes, mCompactedBytes *telemetry.Counter
	// Subscribe telemetry: once per replay, never per segment or row.
	hReplay     *telemetry.Histogram
	mReplayRows *telemetry.Counter
}

// Open loads (or creates) a segment store in opt.Dir, which it locks
// for the store's lifetime: stray .tmp files from interrupted commits
// are removed, a torn tail segment (bad magic,
// short file, footer CRC mismatch) is quarantined to <name>.corrupt,
// segments fully covered by a compacted successor are deleted, and the
// dedupe index is re-seeded from every surviving segment's key block,
// oldest first.
func Open(opt Options) (*Store, error) { return open(opt, dataset.NewDedupe(0, 0)) }

// open is Open over a caller-built dedupe index (tests shrink its window).
func open(opt Options, dedupe *dataset.Dedupe) (*Store, error) {
	if opt.Dir == "" {
		return nil, fmt.Errorf("segment: Options.Dir required")
	}
	if opt.FlushRows <= 0 {
		opt.FlushRows = DefaultFlushRows
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	lock, err := lockDir(opt.Dir)
	if err != nil {
		return nil, err
	}
	s := &Store{
		opt:    opt,
		hb:     heartbeat.NewLog(),
		lock:   lock,
		dedupe: dedupe,
		mem:    newMemtable(dedupe),
		roster: make(map[string]string),
		stopc:  make(chan struct{}),
		kick:   make(chan struct{}, 1),

		gDedupeKeys: telemetry.Default.Gauge("natpeek_segment_dedupe_keys",
			"Idempotency keys the segment store remembers, as of the last seal."),
		hSealLock: telemetry.Default.Histogram("natpeek_segment_seal_lock_seconds",
			"Time a seal held the memtable rotation lock exclusively, appliers locked out.", nil),
		hFlush: telemetry.Default.Histogram("natpeek_segment_flush_seconds",
			"Time from sealing a memtable to its segment being durable.", nil),
		hCompact: telemetry.Default.Histogram("natpeek_segment_compact_seconds",
			"Time one compaction pass took to rewrite its run of segments into one.", nil),
		mCompactedRows: telemetry.Default.Counter("natpeek_segment_compacted_rows_total",
			"Rows read back and rewritten by compaction passes (their input rows)."),
		gLiveSegs: telemetry.Default.Gauge("natpeek_segment_live_segments",
			"Segment files the store reads, as of its last seal, compaction or open."),
		gLiveBytes: telemetry.Default.Gauge("natpeek_segment_live_bytes",
			"Bytes of the segment files the store reads, as of its last seal, compaction or open."),
		mFlushedBytes: telemetry.Default.Counter("natpeek_segment_flushed_bytes_total",
			"Bytes of segment files written by flushes."),
		mCompactedBytes: telemetry.Default.Counter("natpeek_segment_compacted_bytes_total",
			"Bytes of segment files written by compaction passes (their outputs)."),
		hReplay: telemetry.Default.Histogram("natpeek_segment_replay_seconds",
			"Time one Subscribe took to replay the sealed segments to its subscriber, fold included.", nil),
		mReplayRows: telemetry.Default.Counter("natpeek_segment_replay_rows_total",
			"Rows Subscribe replays have handed to their subscribers."),
	}
	if err := s.load(); err != nil {
		lock.Close()
		return nil, err
	}
	s.gDedupeKeys.Set(float64(s.dedupe.Len()))
	s.publishLive()
	s.bgDone.Add(1)
	go s.background()
	return s, nil
}

// lockDir takes dir's LOCK file exclusively. A second store on the
// directory, in this process or another, would name its segments from
// its own sequence, rename over this one's and compact away its inputs;
// it fails to open instead. The kernel drops the lock with the process,
// so a crash leaves nothing to clean up.
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("segment: %s is held by another open store: %w", dir, err)
	}
	return f, nil
}

// load scans the directory, validates every segment, heals crash
// leftovers, and seeds the dedupe index.
func (s *Store) load() error {
	ents, err := os.ReadDir(s.opt.Dir)
	if err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	// Each file is read once: its key block decodes while the bytes are
	// at hand and waits (with its error, which only matters if the file
	// turns out to be live) for the dedupe seeding below.
	type loaded struct {
		segFile
		keys   []Key
		keyErr error
	}
	var files []loaded
	for _, ent := range ents {
		name := ent.Name()
		path := filepath.Join(s.opt.Dir, name)
		if strings.HasSuffix(name, ".tmp") {
			// An interrupted commit: the rename never happened, so the
			// segment was never live. Its rows are still in the
			// upstream spool's redelivery window.
			os.Remove(path)
			continue
		}
		if !strings.HasSuffix(name, ".seg") {
			continue
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("segment: %w", err)
		}
		r, err := NewReader(b)
		if err != nil {
			// Torn or corrupt segment. Quarantine rather than delete:
			// the bytes stay for forensics, but the store no longer
			// loads them. Rows it held re-arrive via upstream
			// redelivery and dedupe cleanly (their keys died with it).
			if qerr := os.Rename(path, path+".corrupt"); qerr != nil {
				return fmt.Errorf("segment: quarantine %s: %w", name, qerr)
			}
			continue
		}
		keys, err := r.Keys()
		files = append(files, loaded{segFile{path: path, meta: r.Meta(), size: int64(len(b))}, keys, err})
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].meta.Seq.First != files[j].meta.Seq.First {
			return files[i].meta.Seq.First < files[j].meta.Seq.First
		}
		// A compacted segment orders after the inputs it covers.
		return files[i].meta.Seq.Last > files[j].meta.Seq.Last
	})
	// Supersession: a crash between a compaction's rename and its input
	// deletion leaves both the compacted segment and its inputs on
	// disk. The compacted footer records what it replaces; drop (and
	// delete) any segment fully covered by another's seq range.
	live := files[:0]
	for _, f := range files {
		covered := false
		for _, g := range files {
			if g.path != f.path && g.meta.Seq.contains(f.meta.Seq) {
				covered = true
				break
			}
		}
		if covered {
			os.Remove(f.path)
			continue
		}
		live = append(live, f)
	}
	// Re-seed dedupe from every surviving segment, oldest first, so the
	// FIFO eviction window matches a store that never restarted.
	for _, f := range live {
		s.segs = append(s.segs, f.segFile)
		if f.meta.Seq.Last >= s.nextSeq {
			s.nextSeq = f.meta.Seq.Last + 1
		}
		addRoster(s.roster, f.meta.Roster)
		if f.keyErr != nil {
			return fmt.Errorf("segment: %s: %w", filepath.Base(f.path), f.keyErr)
		}
		for _, k := range f.keys {
			s.dedupe.Mark(k.Router, k.Key)
		}
	}
	return nil
}

// Close stops background work, flushes the memtable so every ingested
// row is durable, and unlocks the directory.
func (s *Store) Close() error {
	s.flushMu.Lock()
	select {
	case <-s.stopc:
		s.flushMu.Unlock()
		return nil
	default:
	}
	close(s.stopc)
	s.flushMu.Unlock()
	s.bgDone.Wait()
	err := s.Flush()
	s.lock.Close()
	return err
}

// background runs size-triggered flushes off the ingest path plus the
// age ticker and compaction.
func (s *Store) background() {
	defer s.bgDone.Done()
	tick := time.NewTicker(s.ageTick())
	defer tick.Stop()
	for {
		select {
		case <-s.stopc:
			return
		case <-s.kick:
			s.Flush()
		case <-tick.C:
			if s.opt.FlushAge <= 0 {
				continue
			}
			s.rot.RLock()
			born := s.mem.born.Load()
			s.rot.RUnlock()
			if born != 0 && time.Since(time.Unix(0, born)) >= s.opt.FlushAge {
				s.Flush()
			}
		}
	}
}

func (s *Store) ageTick() time.Duration {
	if s.opt.FlushAge > 0 {
		if t := s.opt.FlushAge / 4; t > 0 {
			return t
		}
	}
	return time.Second
}

// Apply implements dataset.IngestStore: exactly-once ingest into the
// live memtable, with the applied key tracked for the next flush's key
// block.
func (s *Store) Apply(router, key string, apply func(*dataset.Store)) bool {
	s.rot.RLock()
	m := s.mem
	ok := m.sh.Apply(router, key, apply)
	if ok {
		if key != "" {
			m.addKey(router, key)
		}
		m.noteBirth()
	}
	s.rot.RUnlock()
	s.maybeKick(m)
	return ok
}

// Append implements dataset.IngestStore (no dedupe, no key tracking).
func (s *Store) Append(router string, apply func(*dataset.Store)) {
	s.rot.RLock()
	m := s.mem
	m.sh.Append(router, apply)
	m.noteBirth()
	s.rot.RUnlock()
	s.maybeKick(m)
}

func (s *Store) maybeKick(m *memtable) {
	if m.sh.Rows() < s.opt.FlushRows {
		return
	}
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// Flush seals the live memtable (if it holds any rows) and commits it
// as one segment. Safe to call concurrently; flushes serialize.
func (s *Store) Flush() error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	// A generation frozen by an earlier flush whose commit failed must
	// reach disk before anything newer seals — rotating again would
	// need a second frozen slot, and segment order must match arrival
	// order anyway.
	if err := s.commitFrozen(); err != nil {
		s.flushErr.Store(err.Error())
		return err
	}

	// Swap in an empty successor over the same dedupe index: it already
	// rejects everything the sealed generation applied. The write lock
	// excludes appliers, so nothing lands in that generation from here on.
	s.rot.Lock()
	locked := time.Now()
	old := s.mem
	old.keyMu.Lock()
	nkeys := len(old.keys)
	old.keyMu.Unlock()
	if old.sh.Rows() == 0 && nkeys == 0 && old.sh.RowCounts().Routers == 0 {
		s.rot.Unlock()
		return nil
	}
	s.mem = newMemtable(s.dedupe)
	s.segMu.Lock()
	s.frozen = old
	s.segMu.Unlock()
	s.rot.Unlock()
	s.hSealLock.Observe(time.Since(locked).Seconds())
	s.gDedupeKeys.Set(float64(s.dedupe.Len()))

	if err := s.commitFrozen(); err != nil {
		// The sealed generation stays in the frozen slot: still
		// queryable, still deduped (its keys are in the store's index),
		// retried on the next flush trigger.
		s.flushErr.Store(err.Error())
		return err
	}
	s.hFlush.Observe(time.Since(locked).Seconds())

	if !s.opt.NoCompaction && s.tierZero() > DefaultCompactAt {
		if err := s.compactLocked(); err != nil {
			s.flushErr.Store(err.Error())
		}
	}
	return nil
}

// tierZero counts the live tier-0 segments: the ones flushes add.
func (s *Store) tierZero() int {
	s.segMu.RLock()
	defer s.segMu.RUnlock()
	n := 0
	for _, f := range s.segs {
		if s.tier(f) == 0 {
			n++
		}
	}
	return n
}

// tier is a segment's size tier: 0 below compactFanIn flushes' worth of
// rows, one more for each further factor of compactFanIn.
func (s *Store) tier(f segFile) int {
	t := 0
	for n := f.meta.Rows.Total() / s.opt.FlushRows; n >= compactFanIn; n /= compactFanIn {
		t++
	}
	return t
}

// publishLive sets the live-segment gauges from the segment list. Caller
// holds segMu (or owns the store, at Open).
func (s *Store) publishLive() {
	var n int64
	for _, f := range s.segs {
		n += f.size
	}
	s.gLiveSegs.Set(float64(len(s.segs)))
	s.gLiveBytes.Set(float64(n))
}

// commitFrozen persists the frozen generation (if any) as one segment
// and publishes it. Caller holds flushMu.
func (s *Store) commitFrozen() error {
	s.segMu.RLock()
	old := s.frozen
	s.segMu.RUnlock()
	if old == nil {
		return nil
	}
	snap := old.sh.Merge()
	seq := SeqRange{First: s.nextSeq, Last: s.nextSeq}
	b := Encode(snap, old.keys, seq, nil)
	path := filepath.Join(s.opt.Dir, segName(seq))
	if err := writeAtomic(path, b); err != nil {
		return err
	}
	s.mFlushedBytes.Add(int64(len(b)))

	s.segMu.Lock()
	s.segs = append(s.segs, segFile{path: path, meta: metaOf(snap, seq, nil, len(old.keys)), size: int64(len(b))})
	s.publishLive()
	addRoster(s.roster, snap.RouterCountry)
	s.frozen = nil
	s.sealGen++
	subs := make([]func(*dataset.Store), len(s.onSeal))
	copy(subs, s.onSeal)
	s.segMu.Unlock()
	s.nextSeq++

	for _, fn := range subs {
		fn(snap)
	}
	return nil
}

// metaOf builds the in-memory Meta for a just-encoded snapshot without
// re-parsing the file.
func metaOf(snap *dataset.Store, seq SeqRange, replaces []SeqRange, keyRows int) Meta {
	m := Meta{Seq: seq, Replaces: replaces, KeyRows: keyRows}
	m.MinTime, m.MaxTime, m.HasTimeRange = timeRange(snap)
	m.Roster = make(map[string]string, len(snap.RouterCountry))
	addRoster(m.Roster, snap.RouterCountry)
	m.Rows = dataset.CountRows(snap)
	return m
}

func segName(seq SeqRange) string {
	return fmt.Sprintf("%016x-%016x.seg", seq.First, seq.Last)
}

// writeAtomic commits bytes with the tmp → fsync → rename discipline;
// the directory is synced after the rename so the new name survives a
// crash.
func writeAtomic(path string, b []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("segment: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("segment: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("segment: %w", err)
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// compactLocked is one compaction pass: it folds the run pickTierRun
// chooses, if any, into one segment. The output records the replaced
// seq ranges so a crash between its rename and the input deletion heals
// at open. It scans with one worker: it runs beside ingest and leaves
// the other CPUs to the appliers.
func (s *Store) compactLocked() error {
	segs, _, _, _ := s.view()
	run := s.pickTierRun(segs)
	if run == nil {
		return nil
	}
	start := time.Now()

	merged, window := presized(run, dataset.RowCounts{})
	var keys []Key
	var replaces []SeqRange
	if _, err := scan(run, 1, window, func(i int, r *Reader, _ *dataset.Store) error {
		ks, err := r.Keys()
		keys = append(keys, ks...)
		addRoster(merged.RouterCountry, r.meta.Roster)
		replaces = append(replaces, run[i].meta.Seq)
		return err
	}); err != nil {
		return fmt.Errorf("segment: compact: %w", err)
	}
	seq := SeqRange{First: run[0].meta.Seq.First, Last: run[len(run)-1].meta.Seq.Last}
	b := Encode(merged, keys, seq, replaces)
	path := filepath.Join(s.opt.Dir, segName(seq))
	if err := writeAtomic(path, b); err != nil {
		return err
	}
	s.mCompactedBytes.Add(int64(len(b)))

	// Commit point passed: swap the metas, then delete the inputs
	// (best-effort — open-time supersession covers a crash here).
	out := segFile{path: path, meta: metaOf(merged, seq, replaces, len(keys)), size: int64(len(b))}
	s.segMu.Lock()
	var next []segFile
	inserted := false
	for _, f := range s.segs {
		if inRun(run, f.path) {
			if !inserted {
				next = append(next, out)
				inserted = true
			}
			continue
		}
		next = append(next, f)
	}
	s.segs = next
	s.publishLive()
	s.segMu.Unlock()
	for _, f := range run {
		os.Remove(f.path)
	}
	rows := 0
	for _, f := range run {
		rows += f.meta.Rows.Total()
	}
	s.mCompactedRows.Add(int64(rows))
	s.hCompact.Observe(time.Since(start).Seconds())
	return nil
}

func inRun(run []segFile, path string) bool {
	for _, f := range run {
		if f.path == path {
			return true
		}
	}
	return false
}

// pickTierRun returns the oldest run of at least compactFanIn segments
// (at most maxCompactInputs) that are adjacent in seq order and in one
// size tier; nil if there is none. Only adjacent-in-seq runs are
// eligible — compaction must not reorder rows. Time ranges play no part:
// ingest that interleaves time ranges (a backfill beside live uploads)
// would otherwise leave a run of disjoint neighbours unmergeable in every
// tier, and the segment count would grow with history.
func (s *Store) pickTierRun(segs []segFile) []segFile {
	for start := 0; start+compactFanIn <= len(segs); start++ {
		end := start + 1
		for end < len(segs) && end-start < maxCompactInputs && s.tier(segs[end]) == s.tier(segs[start]) {
			end++
		}
		if end-start >= compactFanIn {
			return segs[start:end]
		}
	}
	return nil
}

// Compact runs one compaction pass by the same rule as the pass after a
// flush, whatever that pass's trigger says: it merges the oldest run of
// same-tier segments when there is one and otherwise does nothing (ops
// tooling, tests, and callers that settle a store between phases).
func (s *Store) Compact() error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	return s.compactLocked()
}

// Merge implements dataset.IngestStore: the batch view. Sealed segments
// decode from disk in seq order — concurrently, each into its own window
// of the footer-presized output (see scan) — then the
// sealed-but-uncommitted generation (if a flush is mid-commit), then the
// live memtable.
//
// A compaction or an extract can delete or rewrite a segment file
// between this function's snapshot of the list and the read; that
// attempt restarts with a fresh snapshot, and after a few restarts it
// runs under flushMu, which excludes both entirely.
func (s *Store) Merge() *dataset.Store {
	for i := 0; i < 3; i++ {
		if out, ok := s.mergeOnce(true); ok {
			return out
		}
	}
	// Authoritative pass: nothing can race now. A segment that still
	// fails to read here is corrupt on disk; skipping it beats returning
	// nothing (upstream redelivery + dedupe recover its rows on the next
	// restart, when Open quarantines it).
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	out, _ := s.mergeOnce(false)
	return out
}

// view snapshots the three tiers a reader concatenates — sealed segments,
// the sealed-but-uncommitted generation (nil if none), the live memtable
// — and the seal generation they were seen at.
func (s *Store) view() (segs []segFile, frozen, mem *memtable, gen uint64) {
	s.rot.RLock()
	defer s.rot.RUnlock()
	s.segMu.RLock()
	defer s.segMu.RUnlock()
	return append([]segFile(nil), s.segs...), s.frozen, s.mem, s.sealGen
}

func (s *Store) mergeOnce(strict bool) (*dataset.Store, bool) {
	segs, frozen, mem, _ := s.view()

	// The in-memory generations merge first so the output can be sized
	// for them too; they are appended last.
	var tail []*dataset.Store
	var spare dataset.RowCounts
	if frozen != nil {
		tail = append(tail, frozen.sh.Merge())
	}
	tail = append(tail, mem.sh.Merge())
	for _, st := range tail {
		spare.Add(dataset.CountRows(st))
	}

	var out *dataset.Store
	for {
		var window func(int) *dataset.Store
		out, window = presized(segs, spare)
		bad, err := scan(segs, runtime.GOMAXPROCS(0), window, func(_ int, r *Reader, _ *dataset.Store) error {
			addRoster(out.RouterCountry, r.meta.Roster)
			return nil
		})
		if err == nil {
			break
		}
		if strict {
			return nil, false
		}
		// The output is sized without the failed segment and scanned
		// again: its rows are missing, nobody else's are displaced.
		s.flushErr.Store(err.Error())
		segs = append(segs[:bad:bad], segs[bad+1:]...)
	}
	out.Heartbeats = s.hb
	for _, st := range tail {
		appendStore(out, st)
	}
	return out, true
}

func addRoster(dst, src map[string]string) {
	for id, cc := range src {
		dst[id] = cc
	}
}

// appendStore appends src's rows and roster to dst.
func appendStore(dst, src *dataset.Store) {
	for _, k := range dataset.Kinds {
		k.Append(dst, src, 0, k.Len(src))
	}
	addRoster(dst.RouterCountry, src.RouterCountry)
}

// Tail returns the rows not yet covered by a sealed segment (the
// sealed-but-uncommitted generation plus the live memtable), sharing
// the heartbeat log. The incremental dashboard folds sealed chunks once
// and recomputes only this tail per render.
func (s *Store) Tail() *dataset.Store {
	out, _ := s.TailGen()
	return out
}

// TailGen returns Tail together with the seal generation it belongs to:
// the tail holds exactly the rows that the first gen generations sealed
// since Open do not. A subscriber learns gen from SealGen inside its
// callback, so it can tell whether every chunk this tail is missing has
// reached it yet — between a generation's publication and its callbacks
// the chunk is in neither place.
func (s *Store) TailGen() (tail *dataset.Store, gen uint64) {
	_, frozen, mem, gen := s.view()
	tail = &dataset.Store{
		Heartbeats:    s.hb,
		RouterCountry: make(map[string]string),
	}
	if frozen != nil {
		appendStore(tail, frozen.sh.Merge())
	}
	appendStore(tail, mem.sh.Merge())
	return tail, gen
}

// SealGen reports how many generations have been published since Open.
// Unlike the rest of the store it may be called from a Subscribe
// callback, where it is the generation of the chunk being delivered
// (during the replay of existing segments: of the last one sealed).
func (s *Store) SealGen() uint64 {
	s.segMu.RLock()
	defer s.segMu.RUnlock()
	return s.sealGen
}

// Subscribe registers fn to receive every sealed segment's rows as a
// chunk: first each existing on-disk segment (in seq order, on the
// caller's goroutine, while the next few decode ahead — see scan), then
// every future seal, with no gap and no duplicate. fn runs on the
// flushing goroutine and must not call back into the store (SealGen
// excepted). A chunk is lent for the call: fn must not mutate it (other
// subscribers see the same chunk), and must copy what it keeps, since a
// replayed chunk's window decodes a later segment once fn returns.
func (s *Store) Subscribe(fn func(chunk *dataset.Store)) error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	start := time.Now()
	segs, _, _, _ := s.view()
	workers := runtime.GOMAXPROCS(0)
	rows := 0
	// At most one window per worker and the one being emitted are in
	// use at once, which is what free holds; it goes with the replay.
	free := make(chan *dataset.Store, workers+1)
	if _, err := scan(segs, workers,
		func(i int) *dataset.Store {
			var w *dataset.Store
			select {
			case w = <-free:
				clear(w.RouterCountry)
			default:
				w = &dataset.Store{RouterCountry: make(map[string]string)}
			}
			// Every column decoder writes every field of every row, so
			// what a window held before needs no clearing.
			for _, k := range dataset.Kinds {
				k.Resize(w, *k.Count(&segs[i].meta.Rows))
			}
			return w
		},
		func(_ int, r *Reader, chunk *dataset.Store) error {
			addRoster(chunk.RouterCountry, r.meta.Roster)
			fn(chunk)
			rows += r.meta.Rows.Total()
			select {
			case free <- chunk:
			default:
			}
			return nil
		}); err != nil {
		return fmt.Errorf("segment: replay: %w", err)
	}
	s.hReplay.Observe(time.Since(start).Seconds())
	s.mReplayRows.Add(int64(rows))
	s.segMu.Lock()
	s.onSeal = append(s.onSeal, fn)
	s.segMu.Unlock()
	return nil
}

// RowCounts implements dataset.IngestStore without decoding anything:
// cached per-segment footer counts plus the in-memory generations.
func (s *Store) RowCounts() dataset.RowCounts {
	var rc dataset.RowCounts
	s.rot.RLock()
	mem := s.mem
	s.segMu.RLock()
	segs := append([]segFile(nil), s.segs...)
	frozen := s.frozen
	roster := make(map[string]struct{}, len(s.roster))
	for id := range s.roster {
		roster[id] = struct{}{}
	}
	s.segMu.RUnlock()
	s.rot.RUnlock()

	for _, f := range segs {
		rc.Add(f.meta.Rows)
	}
	if frozen != nil {
		rc.Add(frozen.sh.RowCounts())
		for id := range frozen.sh.Roster() {
			roster[id] = struct{}{}
		}
	}
	rc.Add(mem.sh.RowCounts())
	for id := range mem.sh.Roster() {
		roster[id] = struct{}{}
	}
	rc.Routers = len(roster)
	return rc
}

// DedupeLen implements dataset.IngestStore: the size of the store's one
// dedupe index — every key applied since Open plus those seeded from
// disk, less FIFO evictions.
func (s *Store) DedupeLen() int { return s.dedupe.Len() }

// HeartbeatLog implements dataset.IngestStore. Heartbeats live outside
// the segment files (see the package comment in format.go).
func (s *Store) HeartbeatLog() *heartbeat.Log { return s.hb }

// Segments returns the live segment metadata in seq order (ops and
// tests).
func (s *Store) Segments() []Meta {
	s.segMu.RLock()
	defer s.segMu.RUnlock()
	out := make([]Meta, len(s.segs))
	for i, f := range s.segs {
		out[i] = f.meta
	}
	return out
}

// LastFlushError reports the most recent background flush/compaction
// failure ("" when healthy).
func (s *Store) LastFlushError() string {
	if v := s.flushErr.Load(); v != nil {
		return v.(string)
	}
	return ""
}

var _ dataset.IngestStore = (*Store)(nil)
