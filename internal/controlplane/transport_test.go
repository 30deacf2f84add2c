package controlplane

import (
	"testing"

	"thymesisflow/internal/agent"
)

// TestReachMatchesQuery: Reach fails exactly when Query fails, with the
// same error, and moves the transport counters exactly as Query does, on
// the direct transport, a faulty transport and a WithSource view.
func TestReachMatchesQuery(t *testing.T) {
	newInner := func() *DirectTransport {
		inner := NewDirectTransport()
		for _, n := range []string{"node0", "node1"} {
			inner.Register(agent.New(n, testToken))
		}
		return inner
	}
	direct := newInner()
	faulty := NewFaultyTransport(newInner(), TransportFaults{Seed: 1})
	faulty.Partition(DefaultSource, "node0")
	viewed := NewFaultyTransport(newInner(), TransportFaults{Seed: 1})
	viewed.PartitionOneWay("cp-b", "node0")

	cases := []struct {
		name  string
		tr    Transport
		stats func() TransportStats
		cut   bool // node0 sits behind a partition cut
	}{
		{"direct", direct, func() TransportStats { return TransportStats{} }, false},
		{"faulty", faulty, faulty.Stats, true},
		{"with-source", viewed.WithSource("cp-b"), viewed.Stats, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, host := range []string{"ghost", "node0", "node1"} {
				before := tc.stats()
				_, qerr := tc.tr.Query(host)
				afterQuery := tc.stats()
				rerr := tc.tr.Reach(host)
				afterReach := tc.stats()

				if (qerr == nil) != (rerr == nil) {
					t.Fatalf("%s: Query err %v, Reach err %v", host, qerr, rerr)
				}
				if qerr != nil && (qerr.Error() != rerr.Error() || IsTransient(qerr) != IsTransient(rerr)) {
					t.Fatalf("%s: Query err %q, Reach err %q", host, qerr, rerr)
				}
				wantErr := host == "ghost" || (host == "node0" && tc.cut)
				if (rerr != nil) != wantErr {
					t.Fatalf("%s: Reach err %v, want error %v", host, rerr, wantErr)
				}
				dq := diffStats(afterQuery, before)
				if dr := diffStats(afterReach, afterQuery); dr != dq {
					t.Fatalf("%s: Reach moved stats by %+v, Query by %+v", host, dr, dq)
				}
				if tc.cut && host == "node0" && dq.PartitionDrops != 1 {
					t.Fatalf("%s: Query across the cut counted %d partition drops, want 1", host, dq.PartitionDrops)
				}
			}
		})
	}
}

func diffStats(a, b TransportStats) TransportStats {
	return TransportStats{
		Sends:          a.Sends - b.Sends,
		Drops:          a.Drops - b.Drops,
		Dups:           a.Dups - b.Dups,
		Ambiguous:      a.Ambiguous - b.Ambiguous,
		Crashes:        a.Crashes - b.Crashes,
		PartitionDrops: a.PartitionDrops - b.PartitionDrops,
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
