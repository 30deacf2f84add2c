package controlplane

import (
	"fmt"
	"testing"
)

// journalPrefix asserts that every entry committed before the leader died
// is still present, in order, in the new leader's committed journal — the
// "no committed saga progress is ever lost to failover" half of the HA
// crash-point property.
func journalPrefix(t *testing.T, before, after []JournalEntry) {
	t.Helper()
	if len(after) < len(before) {
		t.Fatalf("new leader lost committed entries: %d before kill, %d after failover", len(before), len(after))
	}
	for i := range before {
		b, a := before[i], after[i]
		if b.Seq != a.Seq || b.SagaID != a.SagaID || b.Event != a.Event || b.Step != a.Step {
			t.Fatalf("committed entry %d rewritten by failover: %+v -> %+v", i, b, a)
		}
	}
}

// TestLeaderKillCrashPointRecovery is the HA variant of
// TestCrashPointAttachRecovery: the control plane journals through a
// 3-node replicated journal, and the leader process is killed after every
// quorum-committed append (under a lossy agent transport). A successor is
// elected, a fresh control plane recovers from the successor's replica,
// reconciles, and must converge with zero committed sagas lost and zero
// orphaned donor memory.
func TestLeaderKillCrashPointRecovery(t *testing.T) {
	const seeds = 4
	const maxKillPoint = 12
	for seed := int64(1); seed <= seeds; seed++ {
		for kp := 0; kp <= maxKillPoint; kp++ {
			t.Run(fmt.Sprintf("seed%d/kill%d", seed, kp), func(t *testing.T) {
				env := newCrashEnv(t, 70000+seed*1000+int64(kp))
				rs, leader := newTestReplicaSet(t, seed*100+int64(kp))

				// The first control plane journals through the leader's
				// replica; the crash wrapper kills the "process" after kp
				// accepted (hence quorum-committed) appends.
				env.journal = NewCrashableJournal(rs.Journal(leader))
				svc1 := env.service(env.faulty)
				svc1.SetLeaderGate(rs.Gate(leader))
				env.journal.FailAfter(kp)
				_, attachErr := svc1.Attach(AttachRequest{
					ComputeHost: "node0", DonorHost: "node1", Bytes: 4 << 20, Channels: 1,
				})
				if attachErr != nil && !isCrash(attachErr) && !IsTransient(attachErr) && kp < 10 {
					t.Fatalf("attach failed for a non-crash reason before the kill point: %v", attachErr)
				}

				// Everything the dead leader quorum-committed is ground truth.
				before, err := rs.CommittedEntries(leader)
				if err != nil {
					t.Fatal(err)
				}

				// Kill the leader node itself and fail over.
				rs.Stop(leader)
				next, err := rs.ElectLeader(800, "")
				if err != nil {
					t.Fatal(err)
				}
				if next == leader {
					t.Fatal("dead leader re-elected")
				}

				// The successor control plane recovers from its own replica
				// of the journal, heals the transport, and reconciles.
				env.journal = NewCrashableJournal(rs.Journal(next))
				svc2 := restartAndHeal(t, env)
				svc2.SetLeaderGate(rs.Gate(next))
				assertConverged(t, env, svc2)

				after, err := rs.CommittedEntries(next)
				if err != nil {
					t.Fatal(err)
				}
				journalPrefix(t, before, after)
			})
		}
	}
}

// TestLeaderKillCrashPointDetach crashes the leader after every
// quorum-committed append of a detach saga. After failover + recovery +
// reconcile the attachment is fully gone (detach rolled forward) or fully
// present (detach never began) — never half-torn-down, never resurrected
// donor memory.
func TestLeaderKillCrashPointDetach(t *testing.T) {
	const seeds = 4
	const maxKillPoint = 12
	for seed := int64(1); seed <= seeds; seed++ {
		for kp := 0; kp <= maxKillPoint; kp++ {
			t.Run(fmt.Sprintf("seed%d/kill%d", seed, kp), func(t *testing.T) {
				env := newCrashEnv(t, 80000+seed*1000+int64(kp))
				rs, leader := newTestReplicaSet(t, 500+seed*100+int64(kp))

				// Setup attach over the reliable transport, fully committed.
				env.journal = NewCrashableJournal(rs.Journal(leader))
				setup := env.service(env.inner)
				setup.SetLeaderGate(rs.Gate(leader))
				rec, err := setup.Attach(AttachRequest{
					ComputeHost: "node0", DonorHost: "node1", Bytes: 4 << 20, Channels: 1,
				})
				if err != nil {
					t.Fatal(err)
				}

				// Detach under the lossy transport, leader killed after kp
				// further appends.
				env.journal.FailAfter(kp)
				detachErr := setup.Detach(rec.ID)

				before, err := rs.CommittedEntries(leader)
				if err != nil {
					t.Fatal(err)
				}
				rs.Stop(leader)
				next, err := rs.ElectLeader(800, "")
				if err != nil {
					t.Fatal(err)
				}

				env.journal = NewCrashableJournal(rs.Journal(next))
				svc2 := restartAndHeal(t, env)
				assertConverged(t, env, svc2)

				after, err := rs.CommittedEntries(next)
				if err != nil {
					t.Fatal(err)
				}
				journalPrefix(t, before, after)

				// Once the detach begin is quorum-committed (kp >= 1) or the
				// detach finished cleanly, recovery rolls it forward.
				if kp >= 1 || detachErr == nil {
					if _, ok := svc2.Attachment(rec.ID); ok {
						t.Fatal("detached attachment resurrected after failover")
					}
					if _, ok := env.cluster.Attachment(rec.ID); ok {
						t.Fatal("datapath attachment survived rolled-forward detach")
					}
				}
			})
		}
	}
}
