package controlplane

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// ackLog records every append its inner journal acknowledged: the saga
// progress the killed process was told is durable, kept apart from the
// journal file so the check never reads it back through the dead
// process's handle.
type ackLog struct {
	inner Journal
	acked []JournalEntry
}

func (a *ackLog) Append(e JournalEntry) error {
	if err := a.inner.Append(e); err != nil {
		return err
	}
	a.acked = append(a.acked, e)
	return nil
}

func (a *ackLog) Entries() ([]JournalEntry, error) { return a.inner.Entries() }

// openProcessJournal opens the journal file as one control-plane process
// does. The handle is closed only when the test ends, so a killed process
// never gets the clean Close a graceful shutdown would.
func openProcessJournal(t *testing.T, path string) *FileJournal {
	t.Helper()
	j, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() }) //nolint:errcheck
	return j
}

// killMidWrite models the kill landing inside the write of a record that
// was never acknowledged: the file ends in a torn record with no newline,
// which the successor's OpenFileJournal must cut away.
func killMidWrite(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// journalPrefix asserts that every entry the killed leader had
// acknowledged is still present, in order, in the journal its successor
// replayed, and that the journal holds nothing else but the successor's
// own appends — the "no committed saga progress is ever lost to a kill"
// half of the crash-point property.
func journalPrefix(t *testing.T, before, after []JournalEntry, successorAppends int) {
	t.Helper()
	if len(after) < len(before) {
		t.Fatalf("successor lost acknowledged entries: %d before kill, %d after recovery", len(before), len(after))
	}
	for i := range before {
		b, a := before[i], after[i]
		if b.Seq != a.Seq || b.SagaID != a.SagaID || b.Event != a.Event || b.Step != a.Step {
			t.Fatalf("acknowledged entry %d rewritten across the kill: %+v -> %+v", i, b, a)
		}
	}
	if want := len(before) + successorAppends; len(after) != want {
		t.Fatalf("journal holds %d entries after recovery, want %d acknowledged + %d successor appends", len(after), len(before), successorAppends)
	}
}

// TestLeaderKillCrashPointRecovery is the process-kill variant of
// TestCrashPointAttachRecovery over the durable journal: the leader (the
// one orchestrator process, journaling to a FileJournal) is killed after
// every acknowledged append of an attach saga run under a lossy agent
// transport, mid-write of the next record. A successor process reopens
// the journal file, recovers, heals the transport and reconciles, and must
// converge with no acknowledged saga progress lost and no orphaned donor
// memory.
func TestLeaderKillCrashPointRecovery(t *testing.T) {
	const seeds = 4
	const maxKillPoint = 12
	for seed := int64(1); seed <= seeds; seed++ {
		for kp := 0; kp <= maxKillPoint; kp++ {
			t.Run(fmt.Sprintf("seed%d/kill%d", seed, kp), func(t *testing.T) {
				env := newCrashEnv(t, 70000+seed*1000+int64(kp))
				path := filepath.Join(t.TempDir(), "tfd.journal")

				// The leader journals to the file; the crash wrapper kills
				// it after kp acknowledged appends.
				acks := &ackLog{inner: openProcessJournal(t, path)}
				env.journal = NewCrashableJournal(acks)
				svc1 := env.service(env.faulty)
				env.journal.FailAfter(kp)
				_, attachErr := svc1.Attach(AttachRequest{
					ComputeHost: "node0", DonorHost: "node1", Bytes: 4 << 20, Channels: 1,
				})
				if attachErr != nil && !isCrash(attachErr) && !IsTransient(attachErr) && kp < 10 {
					t.Fatalf("attach failed for a non-crash reason before the kill point: %v", attachErr)
				}
				killMidWrite(t, path)

				// The successor recovers from its own handle on the file.
				next := openProcessJournal(t, path)
				env.journal = NewCrashableJournal(next)
				svc2 := restartAndHeal(t, env)
				assertConverged(t, env, svc2)

				after, err := next.Entries()
				if err != nil {
					t.Fatal(err)
				}
				journalPrefix(t, acks.acked, after, env.journal.Appends())
			})
		}
	}
}

// TestLeaderKillCrashPointDetach kills the leader after every acknowledged
// append of a detach saga that follows, in the same process, the attach it
// tears down. After the successor reopens the journal, recovers and
// reconciles, the attachment is fully gone (detach rolled forward) or
// fully present (detach never began) — never half-torn-down, never
// resurrected donor memory.
func TestLeaderKillCrashPointDetach(t *testing.T) {
	const seeds = 4
	const maxKillPoint = 12
	for seed := int64(1); seed <= seeds; seed++ {
		for kp := 0; kp <= maxKillPoint; kp++ {
			t.Run(fmt.Sprintf("seed%d/kill%d", seed, kp), func(t *testing.T) {
				env := newCrashEnv(t, 80000+seed*1000+int64(kp))
				path := filepath.Join(t.TempDir(), "tfd.journal")

				// Setup attach over the reliable transport, fully committed.
				acks := &ackLog{inner: openProcessJournal(t, path)}
				env.journal = NewCrashableJournal(acks)
				leader := env.service(env.inner)
				rec, err := leader.Attach(AttachRequest{
					ComputeHost: "node0", DonorHost: "node1", Bytes: 4 << 20, Channels: 1,
				})
				if err != nil {
					t.Fatal(err)
				}

				// Detach under the lossy transport, leader killed after kp
				// further appends.
				leader.SetTransport(env.faulty)
				env.journal.FailAfter(kp)
				detachErr := leader.Detach(rec.ID)
				killMidWrite(t, path)

				next := openProcessJournal(t, path)
				env.journal = NewCrashableJournal(next)
				svc2 := restartAndHeal(t, env)
				assertConverged(t, env, svc2)

				after, err := next.Entries()
				if err != nil {
					t.Fatal(err)
				}
				journalPrefix(t, acks.acked, after, env.journal.Appends())

				// Once the detach begin is acknowledged (kp >= 1) or the
				// detach finished cleanly, recovery rolls it forward.
				if kp >= 1 || detachErr == nil {
					if _, ok := svc2.Attachment(rec.ID); ok {
						t.Fatal("detached attachment resurrected after the kill")
					}
					if _, ok := env.cluster.Attachment(rec.ID); ok {
						t.Fatal("datapath attachment survived rolled-forward detach")
					}
				}
			})
		}
	}
}
