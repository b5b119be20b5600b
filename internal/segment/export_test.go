package segment

// OpenOver is Open over a caller-built dedupe index, so tests can run
// the store against a window a few keys wide or one already full.
var OpenOver = open

// Kill abandons s as a killed process would: background work stops,
// the memtable is never flushed, and the directory lock goes with the
// process, so a fresh store can open the directory.
func Kill(s *Store) {
	s.flushMu.Lock()
	close(s.stopc)
	s.flushMu.Unlock()
	s.bgDone.Wait()
	s.lock.Close()
}
