package cluster

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"
)

// scanNode is a Node with only what the replay scan reads: its identity,
// a membership on a fake clock, and an empty journal.
func scanNode() (*Node, func(time.Duration)) {
	ms, advance := testMembership("heir")
	return &Node{
		cfg: NodeConfig{ID: "heir"}, ms: ms,
		journalSeen: map[uint64]bool{}, lives: map[ownerLife]*lifeFrames{},
	}, advance
}

// journalOf journals a frame of owner's with n as its only successor, as
// handleReplicate does; seq makes the bytes, and so the frame, distinct.
func journalOf(n *Node, owner string, seq int) *journalEntry {
	e := &journalEntry{owner: owner, succs: []string{n.cfg.ID}, batch: binary.AppendUvarint(nil, uint64(seq))}
	if !n.journalFrame(e) {
		panic("duplicate frame")
	}
	return e
}

// replayed marks what a tick found due as replayScan does once the
// replay lands, and returns how many frames that was.
func replayed(n *Node) int {
	due := n.dueFrames()
	for _, e := range due {
		n.markReplayed(e)
	}
	return len(due)
}

// TestReplayScanJournaledAfterDeath: a frame journaled while its owner is
// already judged dead — its life lost, its earlier frames replayed — is
// due on the next tick all the same.
func TestReplayScanJournaledAfterDeath(t *testing.T) {
	n, advance := scanNode()
	n.ms.merge([]Member{{ID: "owner", Role: RoleNode, Incarnation: 3, Beat: 1}})
	journalOf(n, "owner", 1)
	if got := replayed(n); got != 0 {
		t.Fatalf("%d frames due while the owner is alive", got)
	}
	advance(11 * time.Second) // past DeadAfter: the owner is dead
	if got := replayed(n); got != 1 {
		t.Fatalf("%d frames due after the owner died, want 1", got)
	}
	if got := replayed(n); got != 0 {
		t.Fatalf("%d frames due again after the replay landed", got)
	}
	late := journalOf(n, "owner", 2) // a replicate that raced the death
	due := n.dueFrames()
	if len(due) != 1 || due[0] != late {
		t.Fatalf("due after a frame journaled under a dead owner: %d frames, want the late one", len(due))
	}
}

// TestReplayScanRebornOwner: a frame journaled under an old incarnation
// is due once its owner is reborn under a new one — alive, but without
// the rows — while a frame journaled before the owner was known at all is
// not (it replays on death only).
func TestReplayScanRebornOwner(t *testing.T) {
	n, _ := scanNode()
	unknown := journalOf(n, "owner", 0)
	n.ms.merge([]Member{{ID: "owner", Role: RoleNode, Incarnation: 3, Beat: 1}})
	old := journalOf(n, "owner", 1)
	if got := len(n.dueFrames()); got != 0 {
		t.Fatalf("%d frames due while the owner's life is the journaled one", got)
	}
	n.ms.merge([]Member{{ID: "owner", Role: RoleNode, Incarnation: 4, Beat: 1}})
	due := n.dueFrames()
	if len(due) != 1 || due[0] != old {
		t.Fatalf("due after the rebirth: %d frames, want the old life's only (unknown-life frame %p)", len(due), unknown)
	}
}

// BenchmarkReplayScan: a tick over a journal of live owners' frames
// judges each owner life once and walks no frame, so its cost is the
// same at 1k frames and at 100k.
func BenchmarkReplayScan(b *testing.B) {
	for _, frames := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("frames=%d", frames), func(b *testing.B) {
			n, _ := scanNode()
			owners := []Member{}
			for i := 0; i < 4; i++ {
				owners = append(owners, Member{ID: fmt.Sprintf("owner-%d", i), Role: RoleNode, Incarnation: 1, Beat: 1})
			}
			n.ms.merge(owners)
			for i := 0; i < frames; i++ {
				journalOf(n, owners[i%len(owners)].ID, i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(n.dueFrames()) != 0 {
					b.Fatal("frames of live owners are due")
				}
			}
		})
	}
}
