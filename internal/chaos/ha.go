// HA control-plane chaos: fault campaigns against a 3-node replicated
// control plane. The saga write-ahead journal rides an embedded Raft log
// (internal/raft) through controlplane.ReplicaSet, which embeds the
// raft.Cluster: scenarios cut links and read member status on it directly,
// and kill and revive nodes through cpworld. They kill leaders mid-saga,
// partition minorities and majorities, drive split-brain with a fenced
// stale leader, and lag a follower behind the commit frontier — then
// assert both the orchestration invariants (via verify) and the
// replication invariants (committed journals identical across replicas,
// no committed saga lost to failover).
//
// The Raft cluster advances virtual time only inside Append calls and
// explicit ticks, all driven from the scenario goroutine, so every report
// is byte-identical per seed like the rest of the catalogue.

package chaos

import (
	"thymesisflow/internal/controlplane"
	"thymesisflow/internal/cpworld"
)

// haReplicaIDs are the control-plane node names of every HA scenario.
var haReplicaIDs = []string{"cp-a", "cp-b", "cp-c"}

// settle heals and catches up the replica set, recording any failure.
func settle(w *cpworld.World, rep *CPScenarioReport) {
	if err := w.Settle(); err != nil {
		rep.fail("%v", err)
	}
}

// fillRaft writes the replication summary, with fenced stale-leader
// writes, and records every log-convergence violation.
func fillRaft(w *cpworld.World, rep *CPScenarioReport, fenced int) {
	sum, violations := w.Raft()
	sum.FencedWrites = fenced
	rep.Raft = sum
	rep.Failures = append(rep.Failures, violations...)
}

// follower returns the first replica (in ID order) that is not the leader.
func follower(w *cpworld.World) string {
	for _, id := range w.Replicas.IDs() {
		if id != w.Leader {
			return id
		}
	}
	return ""
}

// haCatalogue returns the HA control-plane scenario set.
func haCatalogue() []CPScenario {
	return []CPScenario{
		{
			Name: "cp-ha-leader-kill-midsaga",
			Description: "the raft leader process is killed after scripted journal appends mid-saga; " +
				"the next leader must recover every quorum-committed saga with no leaked state",
			run: runHALeaderKill,
		},
		{
			Name: "cp-ha-minority-partition",
			Description: "one follower (and one agent link) is partitioned away; the leader keeps " +
				"committing through the remaining quorum and the minority catches up after healing",
			run: runHAMinorityPartition,
		},
		{
			Name: "cp-ha-majority-partition",
			Description: "the leader is cut off from both followers mid-workload; its appends are " +
				"fenced by quorum loss and the majority side elects a successor that recovers the sagas",
			run: runHAMajorityPartition,
		},
		{
			Name: "cp-ha-split-brain-fencing",
			Description: "a stale leader keeps accepting writes in its own partition while the majority " +
				"elects a successor; fencing must discard every stale proposal and converge the logs",
			run: runHASplitBrain,
		},
		{
			Name: "cp-ha-follower-lag-catchup",
			Description: "a follower is down through the whole workload and restarts far behind the " +
				"commit frontier; log replication must replay it to an identical committed journal",
			run: runHAFollowerLag,
		},
	}
}

func runHALeaderKill(seed int64, rep *CPScenarioReport, obs *CPObserver) {
	w := newWorld(rep, obs, seed, controlplane.TransportFaults{
		DropProb: 0.05, DupProb: 0.10, AmbiguousProb: 0.10,
	}, true)
	if w == nil {
		return
	}
	// Operation 0 always kills the leader two appends into its attach.
	svc := crashWorkload(w, rep, w.Boot(w.Faulty), seed, 2)
	if svc == nil {
		return
	}
	settle(w, rep)
	svc = heal(w, rep, svc)
	verify(w, rep, svc)
	fillRaft(w, rep, 0)
	if rep.Crashes == 0 {
		rep.fail("no leader kill was exercised")
	}
	if rep.Raft.LeaderChanges == 0 {
		rep.fail("leader never changed despite kills")
	}
}

func runHAMinorityPartition(seed int64, rep *CPScenarioReport, obs *CPObserver) {
	w := newWorld(rep, obs, seed, controlplane.TransportFaults{
		DropProb: 0.05, DupProb: 0.10,
	}, true)
	if w == nil {
		return
	}
	svc := w.Boot(w.Faulty)

	// Cut one follower off from both peers: the leader still holds a 2/3
	// quorum, so commits must keep flowing.
	minority := follower(w)
	w.Replicas.Isolate(minority)
	// Also cut one control-plane -> agent link: partition drops surface in
	// the transport stats and the sagas touching that host retry into
	// failure and compensate cleanly.
	w.Faulty.Partition(controlplane.DefaultSource, "node2")

	var ids []string
	for i := 0; i < 6; i++ {
		id, err := attach(w, rep, svc, i)
		if err != nil {
			rep.AttachErrors++
			continue
		}
		ids = append(ids, id)
	}
	w.Faulty.HealAllPartitions()
	for i, id := range ids {
		if i%2 != 0 {
			continue
		}
		if err := svc.Detach(id); err != nil {
			rep.DetachErrors++
		} else {
			rep.Detaches++
		}
	}

	settle(w, rep)
	svc = heal(w, rep, svc)
	verify(w, rep, svc)
	fillRaft(w, rep, 0)
	if rep.Attaches == 0 {
		rep.fail("leader committed nothing despite holding a quorum")
	}
	if rep.Transport.PartitionDrops == 0 {
		rep.fail("agent partition never dropped a message")
	}
	if !rep.Raft.Converged {
		rep.fail("minority replica %s did not catch up", minority)
	}
}

func runHAMajorityPartition(seed int64, rep *CPScenarioReport, obs *CPObserver) {
	w := newWorld(rep, obs, seed, controlplane.TransportFaults{
		DropProb: 0.05, DupProb: 0.10,
	}, true)
	if w == nil {
		return
	}
	svc := w.Boot(w.Faulty)

	// Two clean sagas so the journal has committed history to protect.
	for i := 0; i < 2; i++ {
		if _, err := attach(w, rep, svc, i); err != nil {
			rep.AttachErrors++
		}
	}

	// Cut the leader off from both followers: the majority is on the other
	// side. The in-flight saga's next append can never commit — fenced.
	fenced := 0
	w.Replicas.Isolate(w.Leader)
	if _, err := attach(w, rep, svc, 2); err != nil {
		if !controlplane.IsCrash(err) {
			rep.fail("fenced append surfaced as %v, want a crash", err)
		}
		fenced++
	} else {
		rep.fail("attach committed through a leader with no quorum")
	}

	// Majority side elects a successor; a fresh control plane recovers the
	// half-finished saga from the committed log and the workload continues.
	if svc = restart(w, rep, svc, false); svc == nil {
		return
	}
	for i := 3; i < 6; i++ {
		if _, err := attach(w, rep, svc, i); err != nil {
			rep.AttachErrors++
		}
	}

	settle(w, rep)
	svc = heal(w, rep, svc)
	verify(w, rep, svc)
	fillRaft(w, rep, fenced)
	if fenced == 0 {
		rep.fail("quorum loss never fenced a write")
	}
	if rep.Raft.LeaderChanges == 0 {
		rep.fail("majority never elected a successor")
	}
}

func runHASplitBrain(seed int64, rep *CPScenarioReport, obs *CPObserver) {
	w := newWorld(rep, obs, seed, controlplane.TransportFaults{DupProb: 0.10}, true)
	if w == nil {
		return
	}
	staleSvc := w.Boot(w.Faulty)
	if _, err := attach(w, rep, staleSvc, 0); err != nil {
		rep.AttachErrors++
	}

	// Split: the old leader alone on one side, both followers on the other.
	// The stale side keeps accepting work — every write must die fenced.
	fenced := 0
	stale := w.Leader
	w.Replicas.Isolate(stale)
	if _, err := attach(w, rep, staleSvc, 1); err != nil && controlplane.IsCrash(err) {
		fenced++
	} else if err == nil {
		rep.fail("stale leader committed a write inside its own partition")
	}

	// Majority side: new leader, new control plane, new committed work —
	// while the stale leader still believes it leads.
	newSvc := restart(w, rep, staleSvc, false)
	if newSvc == nil {
		return
	}
	for i := 2; i < 4; i++ {
		if _, err := attach(w, rep, newSvc, i); err != nil {
			rep.AttachErrors++
		}
	}
	// Second stale-side write attempt mid-split: still fenced (the stale
	// leader cannot learn it was deposed until the partition heals).
	if _, err := attach(w, rep, staleSvc, 4); err != nil && controlplane.IsCrash(err) {
		fenced++
	} else if err == nil {
		rep.fail("stale leader committed a second write inside its partition")
	}
	rep.Counters.Add(staleSvc.Counters())

	// Heal: the stale leader must step down, discard its uncommitted
	// proposals, and converge on the majority's log.
	settle(w, rep)
	if st := w.Replicas.Status(stale); st.Role != "follower" {
		rep.fail("stale leader %s ended as %s, want follower", stale, st.Role)
	}
	newSvc = heal(w, rep, newSvc)
	verify(w, rep, newSvc)
	fillRaft(w, rep, fenced)
	if fenced < 2 {
		rep.fail("split-brain fenced %d writes, want 2", fenced)
	}
	if !rep.Raft.Converged {
		rep.fail("logs did not converge after the split healed")
	}
}

func runHAFollowerLag(seed int64, rep *CPScenarioReport, obs *CPObserver) {
	w := newWorld(rep, obs, seed, controlplane.TransportFaults{
		DropProb: 0.05, DupProb: 0.10,
	}, true)
	if w == nil {
		return
	}
	svc := w.Boot(w.Faulty)

	// One follower is down for the whole workload; the leader commits
	// through the remaining 2/3 quorum.
	lagger := follower(w)
	w.Kill(lagger)

	var ids []string
	for i := 0; i < 6; i++ {
		id, err := attach(w, rep, svc, i)
		if err != nil {
			rep.AttachErrors++
			continue
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		if i%2 != 0 {
			continue
		}
		if err := svc.Detach(id); err != nil {
			rep.DetachErrors++
		} else {
			rep.Detaches++
		}
	}

	commitBefore := w.Replicas.Status(w.Leader).Commit
	// Restart the lagger far behind the frontier; settle replays it.
	settle(w, rep)
	if st := w.Replicas.Status(lagger); st.Commit < commitBefore {
		rep.fail("lagging follower %s caught up only to %d of %d", lagger, st.Commit, commitBefore)
	}

	svc = heal(w, rep, svc)
	verify(w, rep, svc)
	fillRaft(w, rep, 0)
	if rep.Attaches == 0 {
		rep.fail("no saga committed while the follower lagged")
	}
	if !rep.Raft.Converged {
		rep.fail("lagging follower did not converge after restart")
	}
}
