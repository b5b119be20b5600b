package cluster

import (
	"reflect"
	"testing"
	"time"
)

// testMembership builds a membership with an injectable clock. The
// returned advance function moves the fake clock; all liveness
// judgements derive from it, so every timing edge is exact.
func testMembership(selfID string) (*membership, func(d time.Duration)) {
	ms := newMembership(Member{ID: selfID, Role: RoleNode, Incarnation: 1},
		GossipConfig{Interval: time.Second, SuspectAfter: 3 * time.Second, DeadAfter: 10 * time.Second})
	now := time.Unix(1_700_000_000, 0)
	ms.now = func() time.Time { return now }
	return ms, func(d time.Duration) { now = now.Add(d) }
}

func stateOf(ms *membership, id string) State {
	for _, mv := range ms.view() {
		if mv.ID == id {
			return mv.State
		}
	}
	return StateDead
}

// TestMembershipLivenessLattice walks the suspect→dead→reborn lattice
// table-driven over the beat-timing edges: ages exactly AT a threshold
// stay below it (the comparisons are strictly-greater), one tick past
// crosses, a beat advance resets the clock, and a fresh incarnation
// revives even a dead member.
func TestMembershipLivenessLattice(t *testing.T) {
	peer := Member{ID: "peer", Role: RoleNode, Incarnation: 5, Beat: 1}
	cases := []struct {
		name string
		run  func(ms *membership, advance func(time.Duration))
		want State
	}{
		{"fresh merge is alive", func(ms *membership, adv func(time.Duration)) {}, StateAlive},
		{"age exactly SuspectAfter stays alive", func(ms *membership, adv func(time.Duration)) {
			adv(3 * time.Second)
		}, StateAlive},
		{"one past SuspectAfter is suspect", func(ms *membership, adv func(time.Duration)) {
			adv(3*time.Second + time.Nanosecond)
		}, StateSuspect},
		{"age exactly DeadAfter stays suspect", func(ms *membership, adv func(time.Duration)) {
			adv(10 * time.Second)
		}, StateSuspect},
		{"one past DeadAfter is dead", func(ms *membership, adv func(time.Duration)) {
			adv(10*time.Second + time.Nanosecond)
		}, StateDead},
		{"beat advance rescues a suspect", func(ms *membership, adv func(time.Duration)) {
			adv(5 * time.Second)
			ms.merge([]Member{{ID: "peer", Role: RoleNode, Incarnation: 5, Beat: 2}})
		}, StateAlive},
		{"equal beat does not rescue", func(ms *membership, adv func(time.Duration)) {
			adv(5 * time.Second)
			ms.merge([]Member{{ID: "peer", Role: RoleNode, Incarnation: 5, Beat: 1}})
		}, StateSuspect},
		{"stale beat from a slow gossiper does not rescue", func(ms *membership, adv func(time.Duration)) {
			ms.merge([]Member{{ID: "peer", Role: RoleNode, Incarnation: 5, Beat: 9}})
			adv(5 * time.Second)
			ms.merge([]Member{{ID: "peer", Role: RoleNode, Incarnation: 5, Beat: 3}})
		}, StateSuspect},
		{"rebirth: higher incarnation with a LOWER beat revives the dead", func(ms *membership, adv func(time.Duration)) {
			ms.merge([]Member{{ID: "peer", Role: RoleNode, Incarnation: 5, Beat: 100}})
			adv(11 * time.Second)
			ms.merge([]Member{{ID: "peer", Role: RoleNode, Incarnation: 6, Beat: 0}})
		}, StateAlive},
		{"incarnation tie falls back to beat comparison", func(ms *membership, adv func(time.Duration)) {
			adv(11 * time.Second)
			ms.merge([]Member{{ID: "peer", Role: RoleNode, Incarnation: 5, Beat: 0}})
		}, StateDead},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ms, advance := testMembership("self")
			ms.merge([]Member{peer})
			tc.run(ms, advance)
			if got := stateOf(ms, "peer"); got != tc.want {
				t.Fatalf("peer state = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestMembershipRebirthReplacesWholesale pins the rejoin contract: a
// higher incarnation replaces the member record entirely — addresses
// included — even when its beat is far behind the old life's.
func TestMembershipRebirthReplacesWholesale(t *testing.T) {
	ms, _ := testMembership("self")
	ms.merge([]Member{{ID: "peer", Role: RoleNode, Incarnation: 5, Beat: 500,
		CtrlAddr: "old:1", DataAddr: "old:2"}})
	ms.merge([]Member{{ID: "peer", Role: RoleNode, Incarnation: 6, Beat: 1,
		CtrlAddr: "new:1", DataAddr: "new:2"}})
	mem, ok := ms.lookup("peer")
	if !ok || mem.CtrlAddr != "new:1" || mem.DataAddr != "new:2" || mem.Beat != 1 {
		t.Fatalf("rebirth did not replace wholesale: %+v", mem)
	}
}

// TestMembershipEpochMerge is the epoch convergence table: committed
// epochs win by version regardless of arrival order, pending proposals
// need to be strictly newer than everything known, same-version
// concurrent proposals converge on the lexicographically-smaller node
// list on EVERY member (no split brain on arrival order), and a commit
// at or past the pending version retires the proposal.
func TestMembershipEpochMerge(t *testing.T) {
	committed := func(v uint64, nodes ...string) *RingEpoch {
		return &RingEpoch{Version: v, Committed: true, Nodes: nodes}
	}
	pending := func(v uint64, nodes ...string) *RingEpoch {
		return &RingEpoch{Version: v, Nodes: nodes}
	}
	cases := []struct {
		name     string
		in       []*RingEpoch // merged in order
		wantCur  *RingEpoch
		wantNext *RingEpoch
	}{
		{"committed adopted", []*RingEpoch{committed(1, "a", "b")},
			committed(1, "a", "b"), nil},
		{"older committed ignored", []*RingEpoch{committed(2, "a", "b", "c"), committed(1, "a", "b")},
			committed(2, "a", "b", "c"), nil},
		{"pending adopted", []*RingEpoch{committed(1, "a", "b"), pending(2, "a", "b", "c")},
			committed(1, "a", "b"), pending(2, "a", "b", "c")},
		{"pending at committed version ignored", []*RingEpoch{committed(2, "a", "b"), pending(2, "a", "c")},
			committed(2, "a", "b"), nil},
		{"newer pending supersedes older pending", []*RingEpoch{pending(2, "a", "b"), pending(3, "a")},
			nil, pending(3, "a")},
		{"older pending does not regress", []*RingEpoch{pending(3, "a"), pending(2, "a", "b")},
			nil, pending(3, "a")},
		{"same-version tie-break: smaller node list wins, either order",
			[]*RingEpoch{pending(2, "a", "c"), pending(2, "a", "b")},
			nil, pending(2, "a", "b")},
		{"same-version tie-break: arrival order irrelevant",
			[]*RingEpoch{pending(2, "a", "b"), pending(2, "a", "c")},
			nil, pending(2, "a", "b")},
		{"commit past pending retires it", []*RingEpoch{pending(2, "a", "b"), committed(3, "a")},
			committed(3, "a"), nil},
		{"commit at pending version retires it", []*RingEpoch{pending(2, "a", "b"), committed(2, "a", "b")},
			committed(2, "a", "b"), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ms, _ := testMembership("self")
			for _, e := range tc.in {
				ms.mergeEpochs(nil, e)
			}
			cur, next := ms.epochs()
			if !reflect.DeepEqual(cur, tc.wantCur) {
				t.Fatalf("cur = %+v, want %+v", cur, tc.wantCur)
			}
			if !reflect.DeepEqual(next, tc.wantNext) {
				t.Fatalf("next = %+v, want %+v", next, tc.wantNext)
			}
		})
	}
}

// TestMembershipEpochVersionPrecedence pins the epoch-vs-incarnation
// separation: a member rebirth (new incarnation) never regresses epoch
// state — epochs only move by version — and the gossiped self entry
// advertises the highest version seen, pending included, which is what
// waitEpochVisible's fence barrier reads.
func TestMembershipEpochVersionPrecedence(t *testing.T) {
	ms, _ := testMembership("self")
	ms.mergeEpochs(&RingEpoch{Version: 3, Committed: true, Nodes: []string{"a", "b"}}, nil)
	// A reborn peer gossiping an ancient committed epoch must not win.
	ms.merge([]Member{{ID: "peer", Role: RoleNode, Incarnation: 99, Beat: 1}})
	ms.mergeEpochs(&RingEpoch{Version: 1, Committed: true, Nodes: []string{"a"}}, nil)
	cur, _ := ms.epochs()
	if cur.Version != 3 {
		t.Fatalf("high incarnation gossip regressed epoch to %d", cur.Version)
	}
	if got := ms.bump().EpochVersion; got != 3 {
		t.Fatalf("self advertises epoch %d, want 3", got)
	}
	ms.mergeEpochs(nil, &RingEpoch{Version: 4, Nodes: []string{"a", "b", "c"}})
	if got := ms.bump().EpochVersion; got != 4 {
		t.Fatalf("self advertises epoch %d after pending merge, want 4 (fence barrier reads pending too)", got)
	}
}

// TestMembershipRingSelection covers which members make the routing
// ring in each regime: pre-epoch rings exclude dead and mid-join
// members; a committed epoch's node list IS the ring, filtered only by
// local liveness; the pending ring is the proposal verbatim.
func TestMembershipRingSelection(t *testing.T) {
	ms, advance := testMembership("self")
	ms.merge([]Member{
		{ID: "n1", Role: RoleNode, Incarnation: 1, Beat: 1},
		{ID: "n2", Role: RoleNode, Incarnation: 1, Beat: 1},
		{ID: "joiner", Role: RoleNode, Incarnation: 1, Beat: 1, Joining: true},
		{ID: "front", Role: RoleFront, Incarnation: 1, Beat: 1},
	})
	if got := ms.ring().Nodes(); !reflect.DeepEqual(got, []string{"n1", "n2", "self"}) {
		t.Fatalf("legacy ring = %v, want nodes only, joiner and front excluded", got)
	}
	if got := ms.planningNodes(); !reflect.DeepEqual(got, []string{"n1", "n2", "self"}) {
		t.Fatalf("planningNodes = %v", got)
	}
	if ms.pendingRing() != nil {
		t.Fatal("pendingRing without a proposal should be nil")
	}

	// A committed epoch takes over ring construction entirely: members
	// outside it (n2) drop off even though alive, and the Joining flag
	// no longer matters for members the epoch includes.
	ms.mergeEpochs(&RingEpoch{Version: 1, Committed: true, Nodes: []string{"joiner", "n1", "self"}}, nil)
	if got := ms.ring().Nodes(); !reflect.DeepEqual(got, []string{"joiner", "n1", "self"}) {
		t.Fatalf("epoch ring = %v, want the epoch's node list", got)
	}
	if got := ms.planningNodes(); !reflect.DeepEqual(got, []string{"joiner", "n1", "self"}) {
		t.Fatalf("planningNodes under epoch = %v", got)
	}

	// Local liveness still filters the committed ring (dead members
	// fail over), but never the pending ring (fencing must be
	// deterministic across processes with different judgements).
	ms.mergeEpochs(nil, &RingEpoch{Version: 2, Nodes: []string{"n1", "self"}})
	advance(11 * time.Second) // every peer's beat now stalls past DeadAfter
	if got := ms.ring().Nodes(); !reflect.DeepEqual(got, []string{"self"}) {
		t.Fatalf("epoch ring with dead peers = %v, want just self", got)
	}
	if got := ms.pendingRing().Nodes(); !reflect.DeepEqual(got, []string{"n1", "self"}) {
		t.Fatalf("pending ring = %v, want proposal verbatim, liveness ignored", got)
	}
}

// TestMembershipCommitEpoch pins the coordinator's commit guard: commit
// succeeds only while the proposal it transferred under is still the
// pending one; a superseding proposal makes it fail so the coordinator
// reports an error instead of unfencing the wrong composition.
func TestMembershipCommitEpoch(t *testing.T) {
	ms, _ := testMembership("self")
	e := ms.proposeEpoch([]string{"b", "a", "self"})
	if e.Version != 1 || !reflect.DeepEqual(e.Nodes, []string{"a", "b", "self"}) {
		t.Fatalf("proposeEpoch = %+v, want version 1 with sorted nodes", e)
	}
	if _, ok := ms.commitEpoch(99); ok {
		t.Fatal("commit of an unknown version succeeded")
	}
	ms.mergeEpochs(nil, &RingEpoch{Version: 2, Nodes: []string{"a", "self"}})
	if _, ok := ms.commitEpoch(e.Version); ok {
		t.Fatal("commit succeeded after the proposal was superseded")
	}
	got, ok := ms.commitEpoch(2)
	if !ok || !got.Committed || got.Version != 2 {
		t.Fatalf("commit of the live proposal = %+v, %v", got, ok)
	}
	if _, next := ms.epochs(); next != nil {
		t.Fatalf("pending survives its own commit: %+v", next)
	}
	if e2 := ms.proposeEpoch([]string{"a"}); e2.Version != 3 {
		t.Fatalf("next proposal version = %d, want 3", e2.Version)
	}
}

// TestMembershipRingMemo: every upload asks for the ring, and between
// membership changes it must be the same *Ring, not a rebuild; a death
// verdict and an epoch commit each build a new one, and the pending ring
// is memoised the same way.
func TestMembershipRingMemo(t *testing.T) {
	ms, advance := testMembership("self")
	ms.merge([]Member{
		{ID: "n1", Role: RoleNode, Incarnation: 1, Beat: 1},
		{ID: "n2", Role: RoleNode, Incarnation: 1, Beat: 1},
	})
	r := ms.ring()
	for i := 0; i < 3; i++ {
		if got := ms.ring(); got != r {
			t.Fatalf("ring rebuilt on call %d with the membership unchanged", i)
		}
	}
	advance(5 * time.Second) // suspects stay on the ring
	ms.merge([]Member{{ID: "n1", Role: RoleNode, Incarnation: 1, Beat: 2}})
	if got := ms.ring(); got != r {
		t.Fatal("ring rebuilt for a suspect")
	}
	advance(6 * time.Second) // n2 dead; n1 advanced 6s ago
	dead := ms.ring()
	if dead == r || !reflect.DeepEqual(dead.Nodes(), []string{"n1", "self"}) {
		t.Fatalf("after n2's death verdict: same ring %v, nodes %v", dead == r, dead.Nodes())
	}
	if ms.ring() != dead {
		t.Fatal("ring rebuilt again after the death verdict")
	}

	e := ms.proposeEpoch([]string{"n1", "self"})
	pending := ms.pendingRing()
	if pending == nil || ms.pendingRing() != pending {
		t.Fatal("pending ring not memoised")
	}
	if ms.ring() != dead {
		t.Fatal("a proposal rebuilt the current ring")
	}
	if _, ok := ms.commitEpoch(e.Version); !ok {
		t.Fatal("commit failed")
	}
	ms.merge([]Member{{ID: "n2", Role: RoleNode, Incarnation: 2, Beat: 1}}) // n2 reborn, outside the epoch
	committed := ms.ring()
	if !reflect.DeepEqual(committed.Nodes(), []string{"n1", "self"}) {
		t.Fatalf("epoch ring = %v", committed.Nodes())
	}
	ms.mergeEpochs(&RingEpoch{Version: 9, Committed: true, Nodes: []string{"n1", "n2", "self"}}, nil)
	if got := ms.ring(); got == committed || !reflect.DeepEqual(got.Nodes(), []string{"n1", "n2", "self"}) {
		t.Fatalf("after an epoch commit: same ring %v, nodes %v", got == committed, got.Nodes())
	}
	if ms.pendingRing() != nil {
		t.Fatal("pending ring outlived its commit")
	}
}
