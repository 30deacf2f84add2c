package controlplane

import (
	"errors"
	"testing"

	"thymesisflow/internal/agent"
)

func newTestReplicaSet(t *testing.T, seed int64) (*ReplicaSet, string) {
	t.Helper()
	rs, err := NewReplicaSet([]string{"cp-a", "cp-b", "cp-c"}, seed)
	if err != nil {
		t.Fatal(err)
	}
	leader, err := rs.ElectLeader(400, "")
	if err != nil {
		t.Fatal(err)
	}
	return rs, leader
}

func TestReplicatedJournalQuorumAppend(t *testing.T) {
	rs, leader := newTestReplicaSet(t, 1)
	j := rs.Journal(leader)
	for i := uint64(1); i <= 5; i++ {
		if err := j.Append(JournalEntry{Seq: i, SagaID: "saga-1", Op: OpAttach, Event: EvIntent}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	got, err := j.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[0].Seq != 1 || got[4].Seq != 5 {
		t.Fatalf("leader entries = %+v", got)
	}
	// Commit index propagates with the next heartbeats; then every replica
	// sees the identical committed journal.
	rs.TickN(10)
	for _, id := range rs.IDs() {
		ents, err := rs.CommittedEntries(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 5 {
			t.Fatalf("replica %s sees %d committed entries, want 5", id, len(ents))
		}
	}
}

func TestReplicatedJournalRejectsFollower(t *testing.T) {
	rs, leader := newTestReplicaSet(t, 2)
	for _, id := range rs.IDs() {
		if id == leader {
			continue
		}
		err := rs.Journal(id).Append(JournalEntry{Seq: 1, SagaID: "saga-1", Op: OpAttach, Event: EvBegin})
		if !errors.Is(err, ErrNotLeader) {
			t.Fatalf("follower %s append: %v, want ErrNotLeader", id, err)
		}
		var nl *NotLeaderError
		if !errors.As(err, &nl) || nl.Leader != leader {
			t.Fatalf("follower %s leader hint: %v", id, err)
		}
	}
}

func TestReplicatedJournalQuorumLostIsCrash(t *testing.T) {
	rs, leader := newTestReplicaSet(t, 3)
	j := rs.Journal(leader)
	if err := j.Append(JournalEntry{Seq: 1, SagaID: "saga-1", Op: OpAttach, Event: EvBegin}); err != nil {
		t.Fatal(err)
	}
	// Fence the leader: isolated from both peers, its proposals can never
	// commit — the append must fail with ErrQuorumLost, which the saga
	// engine escalates to a crash (stale-leader fencing).
	rs.Isolate(leader)
	err := j.Append(JournalEntry{Seq: 2, SagaID: "saga-1", Op: OpAttach, Event: EvIntent})
	if !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("fenced append: %v, want ErrQuorumLost", err)
	}
}

// TestAsymmetricPartitionLostAppendNotAcked is the regression test for the
// overwritten-proposal ack bug: with the leader's outbound links cut but
// inbound links open, its proposal can never replicate, yet the peers'
// replacement leader replicates INTO it — truncating the proposed entry,
// writing its own no-op at the same index, and advancing the old node's
// commit index past that index. Acking on commit index alone would report
// durable success for a journal write that was lost; Append must instead
// detect the term mismatch at the proposed index and fail.
func TestAsymmetricPartitionLostAppendNotAcked(t *testing.T) {
	rs, leader := newTestReplicaSet(t, 7)
	j := rs.Journal(leader)
	if err := j.Append(JournalEntry{Seq: 1, SagaID: "saga-1", Op: OpAttach, Event: EvBegin}); err != nil {
		t.Fatal(err)
	}
	lastBefore := rs.Status(leader).LastIndex
	for _, id := range rs.IDs() {
		if id != leader {
			rs.PartitionOneWay(leader, id)
		}
	}
	err := j.Append(JournalEntry{Seq: 2, SagaID: "saga-1", Op: OpAttach, Event: EvIntent})
	if err == nil {
		t.Fatalf("append acked durable success for an entry overwritten by the new leader")
	}
	if !errors.Is(err, ErrNotLeader) {
		t.Fatalf("append: %v, want ErrNotLeader (deposed mid-pump)", err)
	}
	// Prove the dangerous path actually ran: the old node's commit index
	// advanced past the doomed entry's index via incoming AppendEntries,
	// which is exactly the state where a commit-index-only check acks.
	doomed := lastBefore + 1
	if st := rs.Status(leader); st.Commit < doomed {
		t.Fatalf("commit index %d never passed doomed index %d — scenario did not exercise the overwrite", st.Commit, doomed)
	}
	// The lost entry must not appear in any replica's committed journal.
	for _, id := range rs.IDs() {
		ents, err := rs.CommittedEntries(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.Seq == 2 {
				t.Fatalf("replica %s committed the lost entry %+v", id, e)
			}
		}
	}
}

// TestLeaderGateShedsBeforeSaga: a follower-bound service rejects mutations
// with ErrNotLeader before any saga (or journal entry) is created, exactly
// like the admission limiter.
func TestLeaderGateShedsBeforeSaga(t *testing.T) {
	rs, leader := newTestReplicaSet(t, 4)
	var follower string
	for _, id := range rs.IDs() {
		if id != leader {
			follower = id
			break
		}
	}
	svc, _ := testService(t)
	svc.SetJournal(rs.Journal(follower))
	svc.SetLeaderGate(rs.Gate(follower))

	_, err := svc.Attach(AttachRequest{ComputeHost: "node0", DonorHost: "node1", Bytes: 1 << 20, Channels: 1})
	if !errors.Is(err, ErrNotLeader) {
		t.Fatalf("attach on follower: %v, want ErrNotLeader", err)
	}
	var nl *NotLeaderError
	if !errors.As(err, &nl) || nl.Leader != leader {
		t.Fatalf("leader hint: %v", err)
	}
	if err := svc.Detach("whatever"); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("detach on follower: %v, want ErrNotLeader", err)
	}
	if n := len(svc.Sagas()); n != 0 {
		t.Fatalf("%d sagas created on follower", n)
	}
}

// TestLeaderBoundServiceCommitsThroughQuorum drives a full attach/detach
// through a leader-bound service with a replicated journal and confirms
// every replica converges on the same committed journal.
func TestLeaderBoundServiceCommitsThroughQuorum(t *testing.T) {
	rs, leader := newTestReplicaSet(t, 5)
	svc, _ := testService(t)
	svc.SetJournal(rs.Journal(leader))
	svc.SetLeaderGate(rs.Gate(leader))

	rec, err := svc.Attach(AttachRequest{ComputeHost: "node0", DonorHost: "node1", Bytes: 2 << 20, Channels: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Detach(rec.ID); err != nil {
		t.Fatal(err)
	}
	rs.TickN(10)
	want, err := rs.CommittedEntries(leader)
	if err != nil {
		t.Fatal(err)
	}
	// Attach and detach each journal begin + (intent,done) per step +
	// committed — a healthy run writes well past a dozen records.
	if len(want) < 10 {
		t.Fatalf("committed journal has only %d entries", len(want))
	}
	if last := want[len(want)-1]; last.Event != EvCommitted || last.Op != OpDetach {
		t.Fatalf("journal tail = %+v", last)
	}
	for _, id := range rs.IDs() {
		got, err := rs.CommittedEntries(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("replica %s has %d entries, leader %d", id, len(got), len(want))
		}
		for i := range got {
			if got[i].Seq != want[i].Seq || got[i].Event != want[i].Event {
				t.Fatalf("replica %s diverges at %d: %+v vs %+v", id, i, got[i], want[i])
			}
		}
	}
}

// TestFailoverRecoverOnNewLeader: commit an attach through the leader, kill
// it, elect a successor, and Recover() on the successor — the committed
// attachment must be rebuilt from the replicated journal alone.
func TestFailoverRecoverOnNewLeader(t *testing.T) {
	rs, leader := newTestReplicaSet(t, 6)
	svc, cluster := testService(t)
	svc.SetJournal(rs.Journal(leader))
	svc.SetLeaderGate(rs.Gate(leader))
	rec, err := svc.Attach(AttachRequest{ComputeHost: "node0", DonorHost: "node1", Bytes: 2 << 20, Channels: 1})
	if err != nil {
		t.Fatal(err)
	}

	rs.Stop(leader)
	next, err := rs.ElectLeader(800, "")
	if err != nil {
		t.Fatal(err)
	}
	if next == leader {
		t.Fatal("dead leader re-elected")
	}
	// Failover: a fresh Service instance bound to the new leader's replica
	// of the journal (same model/cluster — the shared world state).
	svc2 := NewService(svc.Model(), ClusterExecutor{Cluster: cluster}, testToken)
	svc2.SetJournal(rs.Journal(next))
	svc2.SetLeaderGate(rs.Gate(next))
	for _, n := range []string{"node0", "node1", "node2"} {
		svc2.RegisterAgent(agent.New(n, testToken))
	}
	rep, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 1 {
		t.Fatalf("recovery restored %d attachments, want 1: %+v", rep.Restored, rep)
	}
	got, ok := svc2.Attachment(rec.ID)
	if !ok || got.ComputeHost != "node0" || got.DonorHost != "node1" {
		t.Fatalf("attachment not restored on new leader: %+v ok=%v", got, ok)
	}
	// And the new leader accepts writes.
	if err := svc2.Detach(rec.ID); err != nil {
		t.Fatal(err)
	}
}

// TestFaultyTransportPartitions: per-peer-pair symmetric and asymmetric
// cuts, with source identity through WithSource.
func TestFaultyTransportPartitions(t *testing.T) {
	inner := NewDirectTransport()
	for _, n := range []string{"node0", "node1"} {
		inner.Register(agent.New(n, testToken))
	}
	ft := NewFaultyTransport(inner, TransportFaults{Seed: 1})

	// Symmetric cut between the default source and node0.
	ft.Partition(DefaultSource, "node0")
	if _, err := ft.Query("node0"); !IsTransient(err) {
		t.Fatalf("partitioned query: %v, want transient", err)
	}
	if _, err := ft.Query("node1"); err != nil {
		t.Fatalf("unrelated query: %v", err)
	}
	ft.HealPartition(DefaultSource, "node0")
	if _, err := ft.Query("node0"); err != nil {
		t.Fatalf("healed query: %v", err)
	}

	// Source-scoped one-way cut: cp-b is severed from node1, cp-a is not.
	cpA, cpB := ft.WithSource("cp-a"), ft.WithSource("cp-b")
	ft.PartitionOneWay("cp-b", "node1")
	if _, err := cpB.Query("node1"); !IsTransient(err) {
		t.Fatalf("cp-b query across cut: %v, want transient", err)
	}
	if _, err := cpA.Query("node1"); err != nil {
		t.Fatalf("cp-a query: %v", err)
	}
	st := ft.Stats()
	if st.PartitionDrops != 2 {
		t.Fatalf("PartitionDrops = %d, want 2", st.PartitionDrops)
	}
	ft.HealAllPartitions()
	if _, err := cpB.Query("node1"); err != nil {
		t.Fatalf("after HealAllPartitions: %v", err)
	}
}
