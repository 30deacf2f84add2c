package raft

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

func newTestCluster(t *testing.T, n int, seed int64) *Cluster {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("cp-%c", 'a'+i)
	}
	c, err := NewCluster(ids, DefaultConfig(), seed, nil)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return c
}

// electLeader ticks until a leader emerges.
func electLeader(t *testing.T, c *Cluster) string {
	t.Helper()
	for i := 0; i < 400; i++ {
		if err := c.Tick(); err != nil {
			t.Fatalf("tick: %v", err)
		}
		if id := c.Leader(); id != "" {
			return id
		}
	}
	t.Fatalf("no leader elected in 400 ticks")
	return ""
}

// proposeAndCommit submits data through the leader and ticks until every
// running node has committed it.
func proposeAndCommit(t *testing.T, c *Cluster, leader string, data []byte) uint64 {
	t.Helper()
	idx, _, err := c.Propose(leader, data)
	if err != nil {
		t.Fatalf("propose: %v", err)
	}
	for i := 0; i < 200; i++ {
		if c.CommitIndex(leader) >= idx {
			return idx
		}
		if err := c.Tick(); err != nil {
			t.Fatalf("tick: %v", err)
		}
	}
	t.Fatalf("entry %d not committed in 200 ticks", idx)
	return 0
}

func TestElectionSingleLeader(t *testing.T) {
	c := newTestCluster(t, 3, 1)
	leader := electLeader(t, c)
	// Settle and confirm exactly one leader at a stable term.
	if err := c.TickN(50); err != nil {
		t.Fatal(err)
	}
	leaders := 0
	var term uint64
	for _, m := range c.Members() {
		if m.Role == "leader" {
			leaders++
			term = m.Term
		}
	}
	if leaders != 1 {
		t.Fatalf("want exactly 1 leader, got %d", leaders)
	}
	for _, m := range c.Members() {
		if m.Term != term {
			t.Fatalf("member %s at term %d, leader at %d", m.ID, m.Term, term)
		}
		if m.Leader != leader && m.Role != "leader" {
			t.Fatalf("member %s leader hint %q, want %q", m.ID, m.Leader, leader)
		}
	}
}

func TestReplicationCommitsEverywhere(t *testing.T) {
	c := newTestCluster(t, 5, 7)
	leader := electLeader(t, c)
	for i := 0; i < 20; i++ {
		proposeAndCommit(t, c, leader, []byte(fmt.Sprintf("op-%d", i)))
	}
	if err := c.TickN(20); err != nil { // let commit index propagate
		t.Fatal(err)
	}
	want := c.Entries(leader)
	if len(want) < 20 {
		t.Fatalf("leader committed %d entries, want >= 20", len(want))
	}
	for _, id := range c.IDs() {
		if got := c.Entries(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("member %s committed log diverges from leader", id)
		}
	}
}

func TestProposeOnFollowerRejected(t *testing.T) {
	c := newTestCluster(t, 3, 3)
	leader := electLeader(t, c)
	if err := c.TickN(10); err != nil {
		t.Fatal(err)
	}
	for _, id := range c.IDs() {
		if id == leader {
			continue
		}
		_, _, err := c.Propose(id, []byte("x"))
		var nl *NotLeaderError
		if !asNotLeader(err, &nl) {
			t.Fatalf("propose on follower %s: got %v, want NotLeaderError", id, err)
		}
		if nl.Leader != leader {
			t.Fatalf("leader hint %q, want %q", nl.Leader, leader)
		}
	}
}

func asNotLeader(err error, out **NotLeaderError) bool {
	if e, ok := err.(*NotLeaderError); ok {
		*out = e
		return true
	}
	return false
}

func TestLeaderFailoverPreservesCommitted(t *testing.T) {
	c := newTestCluster(t, 3, 11)
	leader := electLeader(t, c)
	for i := 0; i < 5; i++ {
		proposeAndCommit(t, c, leader, []byte(fmt.Sprintf("committed-%d", i)))
	}
	before := c.Entries(leader)

	c.Stop(leader)
	next := electLeader(t, c)
	if next == leader {
		t.Fatalf("stopped node %s re-elected", leader)
	}
	// New leader's no-op must commit, covering the inherited tail.
	for i := 0; i < 200 && c.CommitIndex(next) < uint64(len(before)); i++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	after := c.Entries(next)
	if len(after) < len(before) {
		t.Fatalf("new leader committed %d < %d entries from before failover", len(after), len(before))
	}
	if !reflect.DeepEqual(after[:len(before)], before) {
		t.Fatalf("committed prefix changed across failover")
	}
	proposeAndCommit(t, c, next, []byte("post-failover"))
}

func TestRestartRecoversFromStorage(t *testing.T) {
	c := newTestCluster(t, 3, 13)
	leader := electLeader(t, c)
	for i := 0; i < 4; i++ {
		proposeAndCommit(t, c, leader, []byte(fmt.Sprintf("v-%d", i)))
	}
	committed := c.Entries(leader)

	c.Stop(leader)
	next := electLeader(t, c)
	if err := c.Restart(leader); err != nil {
		t.Fatalf("restart: %v", err)
	}
	proposeAndCommit(t, c, next, []byte("after-restart"))
	// The restarted node catches up to the full committed log.
	var want []Entry
	for i := 0; i < 300; i++ {
		want = c.Entries(next)
		got := c.Entries(leader)
		if len(got) >= len(committed)+1 && reflect.DeepEqual(got, want[:len(got)]) && len(got) == len(want) {
			return
		}
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatalf("restarted node did not catch up: %d vs %d entries", len(c.Entries(leader)), len(want))
}

func TestMinorityPartitionStillCommits(t *testing.T) {
	c := newTestCluster(t, 3, 17)
	leader := electLeader(t, c)
	// Cut one follower off.
	var lag string
	for _, id := range c.IDs() {
		if id != leader {
			lag = id
			break
		}
	}
	c.Isolate(lag)
	for i := 0; i < 6; i++ {
		proposeAndCommit(t, c, leader, []byte(fmt.Sprintf("maj-%d", i)))
	}
	if got := c.CommitIndex(lag); got >= c.CommitIndex(leader) {
		t.Fatalf("isolated node commit %d should lag leader %d", got, c.CommitIndex(leader))
	}
	// Heal: the laggard catches up without disturbing the leader.
	c.HealAll()
	for i := 0; i < 300 && c.CommitIndex(lag) < c.CommitIndex(leader); i++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(c.Entries(lag), c.Entries(leader)) {
		t.Fatalf("healed follower log diverges")
	}
}

func TestSplitBrainStaleLeaderFenced(t *testing.T) {
	c := newTestCluster(t, 3, 19)
	old := electLeader(t, c)
	proposeAndCommit(t, c, old, []byte("pre-split"))

	// Isolate the leader: it keeps believing it leads, but nothing it
	// accepts can commit (quorum lost).
	c.Isolate(old)
	staleIdx, staleTerm, err := c.Propose(old, []byte("stale-uncommitted"))
	if err != nil {
		t.Fatalf("stale leader propose: %v", err)
	}
	commitBefore := c.CommitIndex(old)
	for i := 0; i < 100; i++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if c.CommitIndex(old) != commitBefore {
		t.Fatalf("isolated leader advanced commit without quorum")
	}

	// The majority side elects a new leader and commits real work.
	next := electLeader(t, c)
	if next == old {
		t.Fatalf("isolated node counted as cluster leader")
	}
	proposeAndCommit(t, c, next, []byte("majority-work"))

	// Heal: the stale leader steps down and its uncommitted entry is
	// truncated away in favor of the majority log.
	c.HealAll()
	for i := 0; i < 300; i++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		if c.Status(old).Role == "follower" && c.CommitIndex(old) == c.CommitIndex(next) {
			break
		}
	}
	st := c.Status(old)
	if st.Role != "follower" {
		t.Fatalf("stale leader role %s after heal, want follower", st.Role)
	}
	if !reflect.DeepEqual(c.Entries(old), c.Entries(next)) {
		t.Fatalf("logs diverge after heal")
	}
	for _, e := range c.Entries(old) {
		if string(e.Data) == "stale-uncommitted" {
			t.Fatalf("uncommitted stale entry survived the heal")
		}
	}
	// The proposer-side truncation detector: the entry now occupying the
	// stale proposal's index carries the majority's term, so a proposer
	// comparing TermAt against the term Propose returned sees the loss even
	// though the old node's commit index has advanced past that index.
	if c.CommitIndex(old) < staleIdx {
		t.Fatalf("commit %d did not pass stale index %d after heal", c.CommitIndex(old), staleIdx)
	}
	if at, ok := c.TermAt(old, staleIdx); !ok || at == staleTerm {
		t.Fatalf("TermAt(%d) = %d,%v — want the majority's term, not the stale proposal's %d", staleIdx, at, ok, staleTerm)
	}
}

func TestAsymmetricPartitionDropsOneDirection(t *testing.T) {
	c := newTestCluster(t, 3, 23)
	leader := electLeader(t, c)
	var peer string
	for _, id := range c.IDs() {
		if id != leader {
			peer = id
			break
		}
	}
	// Cut only leader->peer: the peer stops hearing heartbeats and will
	// eventually start elections with a higher term that DOES reach the
	// leader, deposing it — the classic asymmetric-partition churn.
	c.PartitionOneWay(leader, peer)
	deposed := false
	for i := 0; i < 200; i++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		if c.Status(leader).Role != "leader" {
			deposed = true
			break
		}
	}
	if !deposed {
		t.Fatalf("one-way cut never disturbed the leader; partition not asymmetric")
	}
	c.HealAll()
	next := electLeader(t, c)
	proposeAndCommit(t, c, next, []byte("stable-again"))
}

func TestDeterministicReplay(t *testing.T) {
	run := func() string {
		c := newTestCluster(t, 5, 42)
		leader := electLeader(t, c)
		for i := 0; i < 10; i++ {
			proposeAndCommit(t, c, leader, []byte(fmt.Sprintf("d-%d", i)))
		}
		c.Stop(leader)
		next := electLeader(t, c)
		proposeAndCommit(t, c, next, []byte("tail"))
		b, err := json.Marshal(struct {
			Members []MemberStatus
			Log     []Entry
			Changes uint64
			Dropped uint64
			Now     uint64
		}{c.Members(), c.Entries(next), c.LeaderChanges(), c.DroppedMessages(), c.Now()})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different runs:\n%s\n%s", a, b)
	}
}

func TestTakeCommittedDrainsOnce(t *testing.T) {
	c := newTestCluster(t, 3, 29)
	leader := electLeader(t, c)
	proposeAndCommit(t, c, leader, []byte("one"))
	proposeAndCommit(t, c, leader, []byte("two"))
	first := c.TakeCommitted(leader)
	if len(first) == 0 {
		t.Fatalf("no committed entries drained")
	}
	if got := c.TakeCommitted(leader); len(got) != 0 {
		t.Fatalf("second drain returned %d entries, want 0", len(got))
	}
	proposeAndCommit(t, c, leader, []byte("three"))
	more := c.TakeCommitted(leader)
	found := false
	for _, e := range more {
		if string(e.Data) == "three" {
			found = true
		}
	}
	if !found {
		t.Fatalf("entry committed after drain not returned by next drain")
	}
	st := c.Status(leader)
	if st.Applied != st.Commit {
		t.Fatalf("applied %d != commit %d after drain", st.Applied, st.Commit)
	}
}

func TestSingleNodeClusterCommitsAlone(t *testing.T) {
	c, err := NewCluster([]string{"solo"}, DefaultConfig(), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	leader := electLeader(t, c)
	if leader != "solo" {
		t.Fatalf("leader %q", leader)
	}
	proposeAndCommit(t, c, leader, []byte("only"))
}
