package controlplane

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"thymesisflow/internal/agent"
	"thymesisflow/internal/core"
	"thymesisflow/internal/metrics"
)

// testFaultService wires the standard 3-node cluster behind a lossy
// transport (no probabilistic faults unless asked; scripted drops via
// FailNext) and a zero-backoff retry policy so tests run instantly.
func testFaultService(t *testing.T, faults TransportFaults) (*Service, *core.Cluster, *FaultyTransport) {
	t.Helper()
	svc, cluster := testService(t)
	ft := NewFaultyTransport(NewDirectTransport(), faults)
	for _, n := range []string{"node0", "node1", "node2"} {
		ft.Register(agent.New(n, testToken))
	}
	svc.SetTransport(ft)
	svc.SetRetryPolicy(RetryPolicy{MaxAttempts: 4})
	return svc, cluster, ft
}

func agentOf(t *testing.T, ft *FaultyTransport, host string) *agent.Agent {
	t.Helper()
	a, ok := ft.inner.Agent(host)
	if !ok {
		t.Fatalf("no agent for %s", host)
	}
	return a
}

// balancedLog asserts an agent's effective log pairs every steal/attach
// with a detach (no leaked donor memory or compute mappings).
func balancedLog(t *testing.T, a *agent.Agent) {
	t.Helper()
	open := make(map[string]int)
	for _, cmd := range a.Applied() {
		switch cmd.Kind {
		case agent.CmdStealMemory, agent.CmdAttachCompute:
			open[cmd.AttachmentID]++
		case agent.CmdDetach:
			open[cmd.AttachmentID] = 0
		}
	}
	for id, n := range open {
		if n != 0 {
			t.Fatalf("agent %s: attachment %s left %d unbalanced commands: %+v",
				a.Host(), id, n, a.Applied())
		}
	}
}

func TestAttachRetriesTransientDrops(t *testing.T) {
	svc, cluster, ft := testFaultService(t, TransportFaults{})
	ft.FailNext("node1", 2) // donor: first two steal deliveries dropped
	rec, err := svc.Attach(AttachRequest{
		ComputeHost: "node0", DonorHost: "node1", Bytes: 2 << 20, Channels: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cluster.Attachment(rec.ID); !ok {
		t.Fatal("attachment missing from cluster")
	}
	if c := svc.Counters(); c.SagaRetries < 2 {
		t.Fatalf("saga_retries = %d, want >= 2", c.SagaRetries)
	}
	donor := agentOf(t, ft, "node1")
	if st, ok := donor.Holds(rec.SagaID); !ok || st.StolenBytes != 2<<20 {
		t.Fatalf("donor state = %+v ok=%v", st, ok)
	}
}

// TestDonorRollbackOnComputeFailure is the donor-memory-leak regression
// test: when the compute-side push fails after the donor-side steal
// applied, the rollback must issue a compensating donor detach — the donor
// agent's applied log ends balanced and no reservation leaks.
func TestDonorRollbackOnComputeFailure(t *testing.T) {
	svc, cluster, ft := testFaultService(t, TransportFaults{})
	// All sends to the compute host fail: the attach-compute step exhausts
	// its 4 attempts and the compensating compute detach exhausts 4 more.
	ft.FailNext("node0", 100)
	_, err := svc.Attach(AttachRequest{
		ComputeHost: "node0", DonorHost: "node1", Bytes: 1 << 20, Channels: 1,
	})
	if err == nil {
		t.Fatal("attach through dead compute link succeeded")
	}
	donor := agentOf(t, ft, "node1")
	balancedLog(t, donor)
	if _, ok := donor.Holds("saga-1"); ok {
		t.Fatal("donor memory leaked after failed attach")
	}
	if free := svc.Model().FreeTransceivers("node0", LabelComputeEP); free != 2 {
		t.Fatalf("reservations leaked: free = %d", free)
	}
	if len(cluster.Attachments()) != 0 {
		t.Fatal("cluster attachment leaked")
	}
	c := svc.Counters()
	if c.SagaCompensations != 1 {
		t.Fatalf("saga_compensations = %d, want 1", c.SagaCompensations)
	}
	// The compute-side compensating detach could not be confirmed: the saga
	// parks for the reconciler rather than silently dropping it.
	if parked := svc.ParkedSagas(); len(parked) != 1 {
		t.Fatalf("parked = %v, want 1 saga", parked)
	}
	// Link heals; the reconciler confirms the compute agent never held the
	// attachment and drains the parked saga.
	ft.FailNext("node0", 0)
	rep := svc.Reconcile()
	if rep.ParkedDrained != 1 {
		t.Fatalf("reconcile report = %+v, want 1 parked drained", rep)
	}
	if parked := svc.ParkedSagas(); len(parked) != 0 {
		t.Fatalf("parked after reconcile = %v", parked)
	}
	if c := svc.Counters(); c.ReconcileRepairs < 1 {
		t.Fatalf("reconcile_repairs = %d", c.ReconcileRepairs)
	}
}

// TestExecutorFailureCompensatesAgents: a datapath failure after both
// agent pushes rolls both agents back (the pre-existing reservation
// rollback plus the new compensating detaches).
func TestExecutorFailureCompensatesAgents(t *testing.T) {
	svc, _, ft := testFaultService(t, TransportFaults{})
	if _, err := svc.Attach(AttachRequest{
		ComputeHost: "node0", DonorHost: "node1", Bytes: 1 << 50, Channels: 1,
	}); err == nil {
		t.Fatal("impossible attach succeeded")
	}
	balancedLog(t, agentOf(t, ft, "node0"))
	balancedLog(t, agentOf(t, ft, "node1"))
	if free := svc.Model().FreeTransceivers("node0", LabelComputeEP); free != 2 {
		t.Fatalf("reservations leaked: free = %d", free)
	}
	if parked := svc.ParkedSagas(); len(parked) != 0 {
		t.Fatalf("parked = %v", parked)
	}
}

// TestDetachAgentFailureParksAndReconciles: agent failures during detach
// are no longer swallowed — they are counted, the saga parks, and the
// reconciler finishes the teardown once the agent is reachable.
func TestDetachAgentFailureParksAndReconciles(t *testing.T) {
	svc, cluster, ft := testFaultService(t, TransportFaults{})
	rec, err := svc.Attach(AttachRequest{
		ComputeHost: "node0", DonorHost: "node1", Bytes: 1 << 20, Channels: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ft.FailNext("node1", 100) // donor unreachable for the detach
	if err := svc.Detach(rec.ID); err != nil {
		t.Fatalf("detach should succeed datapath-side: %v", err)
	}
	if len(cluster.Attachments()) != 0 {
		t.Fatal("datapath attachment survived detach")
	}
	c := svc.Counters()
	if c.DetachAgentFailures != 1 {
		t.Fatalf("detach_agent_failures = %d, want 1", c.DetachAgentFailures)
	}
	if parked := svc.ParkedSagas(); len(parked) != 1 {
		t.Fatalf("parked = %v", parked)
	}
	donor := agentOf(t, ft, "node1")
	if _, ok := donor.Holds(rec.SagaID); !ok {
		t.Fatal("donor should still hold the un-detached attachment")
	}
	ft.FailNext("node1", 0)
	rep := svc.Reconcile()
	if rep.ParkedDrained != 1 {
		t.Fatalf("reconcile report = %+v", rep)
	}
	if _, ok := donor.Holds(rec.SagaID); ok {
		t.Fatal("donor still holds attachment after reconcile")
	}
	balancedLog(t, donor)
	if parked := svc.ParkedSagas(); len(parked) != 0 {
		t.Fatalf("parked after reconcile = %v", parked)
	}
}

// TestDuplicateDeliveryIsIdempotent: with every command delivered twice,
// the agents' effective logs still record each configuration change once.
func TestDuplicateDeliveryIsIdempotent(t *testing.T) {
	svc, _, ft := testFaultService(t, TransportFaults{DupProb: 1.0, Seed: 42})
	rec, err := svc.Attach(AttachRequest{
		ComputeHost: "node0", DonorHost: "node1", Bytes: 1 << 20, Channels: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	donor, compute := agentOf(t, ft, "node1"), agentOf(t, ft, "node0")
	if got := len(donor.Applied()); got != 1 {
		t.Fatalf("donor applied %d commands, want 1", got)
	}
	if got := len(compute.Applied()); got != 1 {
		t.Fatalf("compute applied %d commands, want 1", got)
	}
	if donor.Deduped() == 0 || compute.Deduped() == 0 {
		t.Fatal("duplicates were not deduplicated")
	}
	if err := svc.Detach(rec.ID); err != nil {
		t.Fatal(err)
	}
	balancedLog(t, donor)
	balancedLog(t, compute)
}

// TestReconcileRepairsAgentFlap: a crash-restarted agent loses its
// volatile configuration; the reconciler detects the divergence and
// re-pushes the attachment state from the control-plane record.
func TestReconcileRepairsAgentFlap(t *testing.T) {
	svc, _, ft := testFaultService(t, TransportFaults{})
	rec, err := svc.Attach(AttachRequest{
		ComputeHost: "node0", DonorHost: "node1", Bytes: 3 << 20, Channels: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	donor := agentOf(t, ft, "node1")
	if err := ft.CrashAgent("node1"); err != nil {
		t.Fatal(err)
	}
	if donor.Incarnation() != 1 {
		t.Fatalf("incarnation = %d", donor.Incarnation())
	}
	if _, ok := donor.Holds(rec.SagaID); ok {
		t.Fatal("restart kept volatile state")
	}
	rep := svc.Reconcile()
	if rep.AgentRepushed != 1 {
		t.Fatalf("reconcile report = %+v, want 1 re-push", rep)
	}
	st, ok := donor.Holds(rec.SagaID)
	if !ok || st.StolenBytes != 3<<20 || st.NetworkID != rec.NetID {
		t.Fatalf("re-pushed state = %+v ok=%v", st, ok)
	}
	// A second sweep is a no-op.
	if rep := svc.Reconcile(); rep.Repairs() != 0 {
		t.Fatalf("second sweep repaired: %+v", rep)
	}
}

// TestReconcileDetachesOrphanExec: a datapath attachment with no
// control-plane record (attach crashed before journaling the exec ID) is
// torn down by the executor diff.
func TestReconcileDetachesOrphanExec(t *testing.T) {
	svc, cluster, _ := testFaultService(t, TransportFaults{})
	if _, err := cluster.Attach(core.AttachSpec{
		ComputeHost: "node0", DonorHost: "node1", Bytes: 1 << 20, Channels: 1,
	}); err != nil {
		t.Fatal(err)
	}
	rep := svc.Reconcile()
	if rep.OrphanExecDetached != 1 {
		t.Fatalf("reconcile report = %+v, want 1 orphan detached", rep)
	}
	if len(cluster.Attachments()) != 0 {
		t.Fatal("orphan exec attachment survived reconcile")
	}
}

// TestRecoverRestoresCommittedState: a fresh Service over the old journal
// rebuilds records, reservations, and counters, and new sagas do not
// collide with recovered ones.
func TestRecoverRestoresCommittedState(t *testing.T) {
	svc, cluster := testService(t)
	journal := NewMemJournal()
	svc.SetJournal(journal)
	rec1, err := svc.Attach(AttachRequest{
		ComputeHost: "node0", DonorHost: "node1", Bytes: 1 << 20, Channels: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := svc.Attach(AttachRequest{
		ComputeHost: "node2", DonorHost: "node1", Bytes: 2 << 20, Channels: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Detach(rec1.ID); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh Service over the same model/cluster and journal.
	svc2 := NewService(svc.Model(), ClusterExecutor{Cluster: cluster}, testToken)
	svc2.SetJournal(journal)
	for _, n := range []string{"node0", "node1", "node2"} {
		svc2.RegisterAgent(agent.New(n, testToken))
	}
	rep, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SagasSeen != 3 || rep.Restored != 1 {
		t.Fatalf("recovery report = %+v", rep)
	}
	recs := svc2.Attachments()
	if len(recs) != 1 || recs[0].ID != rec2.ID || recs[0].Bytes != 2<<20 {
		t.Fatalf("recovered records = %+v", recs)
	}
	if recs[0].NetID != rec2.NetID || recs[0].SagaID != rec2.SagaID {
		t.Fatalf("recovered record lost identity: %+v vs %+v", recs[0], rec2)
	}
	// The surviving attachment's reservations are intact: node0's detach
	// freed its transceivers, node2's attach still holds one.
	if free := svc2.Model().FreeTransceivers("node2", LabelComputeEP); free != 1 {
		t.Fatalf("free node2 compute transceivers = %d, want 1", free)
	}
	// New sagas continue the sequence past recovered ones.
	rec3, err := svc2.Attach(AttachRequest{
		ComputeHost: "node0", DonorHost: "node2", Bytes: 1 << 20, Channels: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec3.SagaID == rec1.SagaID || rec3.SagaID == rec2.SagaID {
		t.Fatalf("saga ID collision after recovery: %s", rec3.SagaID)
	}
	if err := svc2.Detach(rec2.ID); err != nil {
		t.Fatal(err)
	}
	if err := svc2.Detach(rec3.ID); err != nil {
		t.Fatal(err)
	}
	if n := len(cluster.Attachments()); n != 0 {
		t.Fatalf("cluster attachments after full teardown = %d", n)
	}
}

func TestFileJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "saga.journal")
	j, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []JournalEntry{
		{Seq: 1, SagaID: "saga-1", Op: OpAttach, Event: EvBegin, Compute: "a", Donor: "b", Bytes: 42},
		{Seq: 2, SagaID: "saga-1", Op: OpAttach, Event: EvDone, Step: StepPlanPaths, NetID: 7, Paths: [][]int64{{1, 2}}},
	}
	for _, e := range want {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// A torn final line (crash mid-write) is dropped, not fatal.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":3,"saga_id":"sa`); err != nil {
		t.Fatal(err)
	}
	f.Close() //nolint:errcheck

	j2, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close() //nolint:errcheck
	got, err := j2.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("entries = %d, want 2 (torn tail dropped)", len(got))
	}
	if got[0].Compute != "a" || got[1].NetID != 7 || len(got[1].Paths) != 1 {
		t.Fatalf("round trip mangled entries: %+v", got)
	}
}

// TestFileJournalServiceRecovery: the durable-journal path end to end —
// attach over a file journal, reopen it in a fresh service, recover, and
// detach the recovered attachment.
func TestFileJournalServiceRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tfd.journal")
	svc, cluster := testService(t)
	j, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	svc.SetJournal(j)
	rec, err := svc.Attach(AttachRequest{
		ComputeHost: "node0", DonorHost: "node1", Bytes: 1 << 20, Channels: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenFileJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close() //nolint:errcheck
	svc2 := NewService(svc.Model(), ClusterExecutor{Cluster: cluster}, testToken)
	svc2.SetJournal(j2)
	for _, n := range []string{"node0", "node1", "node2"} {
		svc2.RegisterAgent(agent.New(n, testToken))
	}
	if _, err := svc2.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, ok := svc2.Attachment(rec.ID); !ok {
		t.Fatal("attachment not recovered from file journal")
	}
	if err := svc2.Detach(rec.ID); err != nil {
		t.Fatal(err)
	}
}

func TestSagaCountersInMetrics(t *testing.T) {
	svc, _, ft := testFaultService(t, TransportFaults{})
	reg := metrics.NewRegistry()
	svc.SetTelemetry(reg, nil)
	ft.FailNext("node1", 1)
	if _, err := svc.Attach(AttachRequest{
		ComputeHost: "node0", DonorHost: "node1", Bytes: 1 << 20, Channels: 1,
	}); err != nil {
		t.Fatal(err)
	}
	snap, ok := svc.MetricsSnapshot()
	if !ok {
		t.Fatal("no metrics snapshot")
	}
	for _, name := range []string{"cp.saga_retries", "cp.saga_compensations", "cp.recovery_replays", "cp.reconcile_repairs"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Fatalf("metrics missing %q: %v", name, snap.Counters)
		}
	}
	if snap.Counters["cp.saga_retries"] < 1 {
		t.Fatalf("cp.saga_retries = %d", snap.Counters["cp.saga_retries"])
	}
	if _, ok := snap.Gauges["cp.saga_inflight"]; !ok {
		t.Fatalf("metrics missing cp.saga_inflight: %v", snap.Gauges)
	}
}

func TestRESTSagas(t *testing.T) {
	api, svc := restAPI(t)
	if _, err := svc.Attach(AttachRequest{
		ComputeHost: "node0", DonorHost: "node1", Bytes: 1 << 20, Channels: 1,
	}); err != nil {
		t.Fatal(err)
	}
	w := doReq(t, api, http.MethodGet, "/v1/sagas", "reader-tok", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("sagas status = %d body=%s", w.Code, w.Body.String())
	}
	var view sagasView
	if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Sagas) != 1 || view.Sagas[0].State != "committed" || view.Sagas[0].Op != OpAttach {
		t.Fatalf("sagas = %+v", view.Sagas)
	}
	if w := doReq(t, api, http.MethodGet, "/v1/sagas", "", nil); w.Code != http.StatusUnauthorized {
		t.Fatalf("unauthorized sagas status = %d", w.Code)
	}
}
