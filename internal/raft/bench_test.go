package raft

import (
	"fmt"
	"testing"
)

// BenchmarkRaftQuorumAppend measures one quorum-committed append through a
// 3-node in-memory cluster: propose on the leader, pump ticks until the
// leader's commit index covers the entry. This is the replication cost the
// ReplicatedJournal adds on top of PR9's fsync group commit (5.6 µs/append
// at batch 64) — benchsnap.sh records it in the raft_append section.
func BenchmarkRaftQuorumAppend(b *testing.B) { benchQuorumAppend(b, 3) }

// BenchmarkRaftQuorumAppend5 is the 5-node variant (two extra replicas on
// the quorum path).
func BenchmarkRaftQuorumAppend5(b *testing.B) { benchQuorumAppend(b, 5) }

func benchQuorumAppend(b *testing.B, nodes int) {
	ids := make([]string, nodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("cp-%c", 'a'+i)
	}
	c, err := NewCluster(ids, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 400 && c.Leader() == ""; i++ {
		c.Tick()
	}
	leader := c.Leader()
	if leader == "" {
		b.Fatal("no leader")
	}
	payload := []byte(`{"seq":1,"saga":"sg-000001","op":"attach","event":"step-done"}`)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		idx, _, err := c.Propose(leader, payload)
		if err != nil {
			b.Fatal(err)
		}
		for c.CommitIndex(leader) < idx {
			c.Tick()
		}
	}
}
