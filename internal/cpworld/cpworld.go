// Package cpworld builds the control-plane world that the churn replay
// (internal/bench) and the control-plane chaos campaigns (internal/chaos)
// drive: a simulated rack with its topology model and node agents, a
// direct and a seeded faulty agent transport, a crashable write-ahead
// journal, a world-scoped saga event log on a deterministic step clock,
// and optionally a Raft replica set carrying the journal.
//
// Everything in a World outlives a control-plane process. A crash drops
// only the Service; Boot starts a fresh one over the same world, which
// recovers from the journal. With a replica set, the Service is bound to
// the current Raft leader, and Failover moves that binding to a freshly
// elected successor. Every step is a pure function of the configuration,
// so a world driven by the same call sequence reproduces byte-identically.
package cpworld

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"thymesisflow/internal/agent"
	"thymesisflow/internal/controlplane"
	"thymesisflow/internal/core"
	"thymesisflow/internal/trace"
)

// electTicks bounds every election and settle loop on the replica set.
const electTicks = 800

// Config describes a world.
type Config struct {
	// Hosts names the rack's hosts; the model cables them as a full mesh.
	Hosts []string
	// Host returns the simulated host configuration for a host name.
	Host              func(name string) core.HostConfig
	TransceiversPerEP int
	// Token authenticates the control plane toward the node agents.
	Token  string
	Faults controlplane.TransportFaults
	// Events is the capacity of the saga event log.
	Events int
	// MaxInflightSagas is forwarded to Service.SetMaxInflightSagas.
	MaxInflightSagas int

	// WrapClock, when set, wraps the world's step clock (a sampling tap).
	WrapClock func(trace.WallClock) trace.WallClock
	// OnBoot, when set, sees every Service that Boot starts.
	OnBoot func(*controlplane.Service)

	// Replicas, when non-empty, replicates the journal across a Raft
	// replica set with these member IDs; Seed seeds its election timers.
	Replicas []string
	Seed     int64
}

// World is the durable state a control plane crashes and restarts over.
type World struct {
	Hosts []string
	// Direct is the reliable transport holding the agents; Faulty wraps it
	// with the configured seeded faults.
	Direct *controlplane.DirectTransport
	Faulty *controlplane.FaultyTransport
	// Events is the world-scoped saga event log, on a step clock that also
	// outlives every process: a saga that spans a crash keeps one coherent
	// timeline across processes.
	Events *trace.EventLog

	// Journal is the crash-injection wrapper of the most recently booted
	// process; FailAfter on it kills that process mid-saga.
	Journal *controlplane.CrashableJournal

	// Replicas is the Raft replica set (nil for a single node) and Leader
	// the member the next Boot binds to.
	Replicas *controlplane.ReplicaSet
	Leader   string

	cfg     Config
	cluster *core.Cluster
	model   *controlplane.Model
	clock   trace.WallClock
	mem     controlplane.Journal // single-node journal
	counted []*controlplane.CountingJournal
	down    string // the killed replica; at most one is down at a time
}

// New builds the world and, with replicas, elects the first leader.
func New(cfg Config) (*World, error) {
	w := &World{
		Hosts:   cfg.Hosts,
		Direct:  controlplane.NewDirectTransport(),
		Events:  trace.NewEventLog(cfg.Events),
		cfg:     cfg,
		cluster: core.NewCluster(),
		model:   controlplane.NewModel(),
		clock:   trace.StepClock(0, 25),
	}
	for _, h := range cfg.Hosts {
		if _, err := w.cluster.AddHost(cfg.Host(h)); err != nil {
			return nil, fmt.Errorf("cpworld: add host %s: %w", h, err)
		}
		if err := w.model.AddHost(h, cfg.TransceiversPerEP); err != nil {
			return nil, fmt.Errorf("cpworld: model host %s: %w", h, err)
		}
		w.Direct.Register(agent.New(h, cfg.Token))
	}
	if err := w.model.CableFullMesh(); err != nil {
		return nil, err
	}
	w.Faulty = controlplane.NewFaultyTransport(w.Direct, cfg.Faults)
	if cfg.WrapClock != nil {
		w.clock = cfg.WrapClock(w.clock)
	}
	if len(cfg.Replicas) == 0 {
		w.mem = controlplane.NewMemJournal()
		return w, nil
	}
	rs, err := controlplane.NewReplicaSet(cfg.Replicas, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("cpworld: replica set: %w", err)
	}
	w.Replicas = rs
	if w.Leader, err = rs.ElectLeader(electTicks, ""); err != nil {
		return nil, fmt.Errorf("cpworld: initial election: %w", err)
	}
	return w, nil
}

// Boot starts a control-plane process over the world, talking to the
// agents through tr. It gets a fresh, disarmed journal chain (crash
// injection over append counting) on the single-node journal or on the
// current leader's replicated journal, behind that leader's gate.
// Retries are zero-backoff: harnesses measure in counters, not wall time.
func (w *World) Boot(tr controlplane.Transport) *controlplane.Service {
	base := w.mem
	if w.Replicas != nil {
		base = w.Replicas.Journal(w.Leader)
	}
	counting := controlplane.NewCountingJournal(base)
	w.counted = append(w.counted, counting)
	w.Journal = controlplane.NewCrashableJournal(counting)

	svc := controlplane.NewService(w.model, controlplane.ClusterExecutor{Cluster: w.cluster}, w.cfg.Token)
	svc.SetJournal(w.Journal)
	// Transport before tracing, so SetSagaTracing wires the agents.
	svc.SetTransport(tr)
	svc.SetRetryPolicy(controlplane.RetryPolicy{MaxAttempts: 6})
	svc.SetMaxInflightSagas(w.cfg.MaxInflightSagas)
	svc.SetSagaTracing(w.Events, w.clock)
	if w.Replicas != nil {
		svc.SetLeaderGate(w.Replicas.Gate(w.Leader))
	}
	if w.cfg.OnBoot != nil {
		w.cfg.OnBoot(svc)
	}
	return svc
}

// JournalStats sums the appends every booted process's journal accepted,
// and their encoded size.
func (w *World) JournalStats() (entries, bytes int64) {
	for _, c := range w.counted {
		e, b := c.Stats()
		entries += e
		bytes += b
	}
	return entries, bytes
}

// Failover moves the world to a new leader after the current one died or
// was fenced. With kill, the old leader's node is stopped (a process
// kill); without it the old leader keeps running, as in a partition. The
// next Boot binds to the successor.
func (w *World) Failover(kill bool) error {
	old := w.Leader
	if kill {
		if err := w.Kill(old); err != nil {
			return err
		}
	}
	next, err := w.Replicas.ElectLeader(electTicks, old)
	if err != nil {
		return fmt.Errorf("cpworld: failover from %s: %w", old, err)
	}
	w.Leader = next
	return nil
}

// Kill stops replica id's node, after reviving any previously killed one
// so the quorum never shrinks below a majority. Settle revives it.
func (w *World) Kill(id string) error {
	if err := w.revive(); err != nil {
		return err
	}
	w.Replicas.Stop(id)
	w.down = id
	return nil
}

func (w *World) revive() error {
	if w.down == "" {
		return nil
	}
	if err := w.Replicas.Restart(w.down); err != nil {
		return fmt.Errorf("cpworld: restart %s: %w", w.down, err)
	}
	w.down = ""
	return nil
}

// Settle heals every Raft partition, revives the killed replica, and
// ticks until every replica has caught up to the leader's log; Leader
// then names the settled leader.
func (w *World) Settle() error {
	w.Replicas.HealAll()
	if err := w.revive(); err != nil {
		return err
	}
	for i := 0; i < electTicks && !w.caughtUp(); i++ {
		if err := w.Replicas.Tick(1); err != nil {
			return fmt.Errorf("cpworld: settle tick: %w", err)
		}
	}
	if !w.caughtUp() {
		return errors.New("cpworld: replicas never caught up to the leader's log")
	}
	w.Leader = w.Replicas.Leader()
	return nil
}

func (w *World) caughtUp() bool {
	lead := w.Replicas.Leader()
	if lead == "" {
		return false
	}
	st := w.Replicas.Status(lead)
	if st.Commit != st.LastIndex {
		return false
	}
	for _, m := range w.Replicas.Members() {
		if !m.Stopped && (m.Commit != st.Commit || m.LastIndex != st.LastIndex) {
			return false
		}
	}
	return true
}

// RaftSummary is the deterministic roll-up of the replica set at the end
// of a run.
type RaftSummary struct {
	Nodes           int    `json:"nodes"`
	FinalLeader     string `json:"final_leader,omitempty"`
	FinalTerm       uint64 `json:"final_term"`
	FinalCommit     uint64 `json:"final_commit"`
	LeaderChanges   uint64 `json:"leader_changes"`
	DroppedMessages uint64 `json:"dropped_messages"`
	// FencedWrites counts journal appends that died with ErrQuorumLost on a
	// leader cut off from its quorum (chaos scenarios only).
	FencedWrites int `json:"fenced_writes,omitempty"`
	// Converged: every running replica holds the identical committed
	// journal, so no committed saga was lost to a failover.
	Converged bool `json:"converged"`
}

// Raft summarizes the replica set and checks log convergence against the
// leader's committed journal; violations lists every divergence.
func (w *World) Raft() (sum *RaftSummary, violations []string) {
	rs := w.Replicas
	st := rs.Status(w.Leader)
	sum = &RaftSummary{
		Nodes:           len(rs.IDs()),
		FinalLeader:     w.Leader,
		FinalTerm:       st.Term,
		FinalCommit:     st.Commit,
		LeaderChanges:   rs.LeaderChanges(),
		DroppedMessages: rs.DroppedMessages(),
		Converged:       true,
	}
	bad := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
		sum.Converged = false
	}
	want, err := rs.CommittedEntries(w.Leader)
	if err != nil {
		bad("leader %s committed entries: %v", w.Leader, err)
	}
	wantJSON, _ := json.Marshal(want)
	for _, m := range rs.Members() {
		if m.Stopped || m.ID == w.Leader {
			continue
		}
		got, err := rs.CommittedEntries(m.ID)
		if err != nil {
			bad("replica %s committed entries: %v", m.ID, err)
			continue
		}
		if gotJSON, _ := json.Marshal(got); !bytes.Equal(gotJSON, wantJSON) {
			bad("replica %s committed journal diverges from leader %s (%d vs %d entries)",
				m.ID, w.Leader, len(got), len(want))
		}
	}
	return sum, violations
}

// AttachmentCount is one (compute, donor, bytes) multiset entry of the
// final attachment state. Executor IDs are deliberately excluded: a crashed
// and recovered run re-issues sagas under fresh IDs, but must converge to
// the same multiset.
type AttachmentCount struct {
	Compute string `json:"compute"`
	Donor   string `json:"donor"`
	Bytes   int64  `json:"bytes"`
	Count   int    `json:"count"`
}

// FinalState is the ID-free summary of a converged world.
type FinalState struct {
	Attachments      []AttachmentCount `json:"attachments"`
	Count            int               `json:"count"`
	TotalBytes       int64             `json:"total_bytes"`
	ReservedVertices int               `json:"reserved_vertices"`
	AgentHeld        int               `json:"agent_held"`
	ParkedSagas      int               `json:"parked_sagas"`
}

// Result is the outcome of Check.
type Result struct {
	State FinalState
	// Traces are the saga timelines rebuilt from the world's event log.
	Traces []trace.SagaTrace
	// Violations lists every end-state invariant svc breaks.
	Violations []string
}

// Check summarizes the world's end state under svc and asserts the
// orchestration invariants against ground truth: records match the
// executor's datapaths, fabric reservations match the record paths, every
// agent holds exactly the state the records imply (no orphaned donor
// memory, no half-configured agent), no saga is parked or still admitted,
// and every saga trace's stage durations tile its wall time.
func (w *World) Check(svc *controlplane.Service) Result {
	var r Result
	bad := func(format string, args ...any) {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
	recs := svc.Attachments()
	r.State = summarize(recs)
	r.State.ReservedVertices = len(w.model.ReservedIDs())
	r.State.ParkedSagas = len(svc.ParkedSagas())

	// Executor diff: records == live datapath attachments.
	recIDs := make(map[string]bool, len(recs))
	pathVertices := 0
	recBySaga := make(map[string]*controlplane.AttachmentRecord, len(recs))
	for _, rec := range recs {
		recIDs[rec.ID] = true
		for _, n := range rec.PathLen {
			pathVertices += n
		}
		recBySaga[rec.SagaID] = rec
	}
	clusterAtts := w.cluster.Attachments()
	clusterIDs := make(map[string]bool, len(clusterAtts))
	for _, a := range clusterAtts {
		clusterIDs[a.ID] = true
		if !recIDs[a.ID] {
			bad("orphaned datapath attachment %s", a.ID)
		}
	}
	if len(clusterAtts) != len(recs) {
		bad("executor holds %d attachments, records hold %d", len(clusterAtts), len(recs))
	}
	for _, rec := range recs {
		if !clusterIDs[rec.ID] {
			bad("record %s has no datapath attachment", rec.ID)
		}
	}

	// Reservation diff: planned paths are vertex-disjoint, so the reserved
	// set is exactly the sum of the record path lengths.
	if r.State.ReservedVertices != pathVertices {
		bad("%d vertices reserved, records imply %d", r.State.ReservedVertices, pathVertices)
	}

	// Agent diff: every held attachment belongs to a record with this host
	// on a fully configured side, and every record is held on both sides.
	held := make(map[string]map[string]bool, len(w.Hosts))
	for _, h := range w.Hosts {
		st, err := w.Direct.Query(h)
		if err != nil {
			bad("query %s: %v", h, err)
			continue
		}
		held[h] = make(map[string]bool, len(st.Attachments))
		for _, att := range st.Attachments {
			r.State.AgentHeld++
			held[h][att.ID] = true
			rec, ok := recBySaga[att.ID]
			switch {
			case !ok:
				bad("agent %s holds orphaned attachment %s", h, att.ID)
			case h == rec.ComputeHost:
				if !att.ComputeAttached {
					bad("agent %s half-configured (compute) for %s", h, att.ID)
				}
			case h == rec.DonorHost:
				if att.StolenBytes == 0 {
					bad("agent %s half-configured (donor) for %s", h, att.ID)
				}
			default:
				bad("agent %s holds %s but is neither side", h, att.ID)
			}
		}
	}
	for _, rec := range recs {
		for _, h := range []string{rec.ComputeHost, rec.DonorHost} {
			if !held[h][rec.SagaID] {
				bad("agent %s missing desired attachment %s", h, rec.SagaID)
			}
		}
	}

	if r.State.ParkedSagas != 0 {
		bad("%d sagas still parked after the final reconcile: %v", r.State.ParkedSagas, svc.ParkedSagas())
	}
	if n := svc.InflightSagas(); n != 0 {
		bad("%d sagas still admitted at the end", n)
	}

	// Tiling: the stage durations of every reconstructed trace (sagas and
	// reconcile/recovery passes alike) sum exactly to its wall time — the
	// event timeline has no gaps and no double counting.
	r.Traces = trace.BuildSagaTraces(w.Events.Snapshot())
	if len(r.Traces) == 0 {
		bad("tracing recorded no saga traces")
	}
	for _, t := range r.Traces {
		var sum int64
		for _, st := range t.Stages {
			sum += st.DurNS
		}
		if sum != t.TotalNS {
			bad("trace %d (saga %q): stages sum to %dns, wall time is %dns", t.Trace, t.Saga, sum, t.TotalNS)
		}
	}
	return r
}

// summarize folds records into the sorted (compute, donor, bytes) multiset.
func summarize(recs []*controlplane.AttachmentRecord) FinalState {
	s := FinalState{Count: len(recs)}
	counts := make(map[AttachmentCount]int)
	for _, rec := range recs {
		counts[AttachmentCount{Compute: rec.ComputeHost, Donor: rec.DonorHost, Bytes: rec.Bytes}]++
		s.TotalBytes += rec.Bytes
	}
	for k, n := range counts {
		k.Count = n
		s.Attachments = append(s.Attachments, k)
	}
	sort.Slice(s.Attachments, func(i, j int) bool {
		a, b := s.Attachments[i], s.Attachments[j]
		if a.Compute != b.Compute {
			return a.Compute < b.Compute
		}
		if a.Donor != b.Donor {
			return a.Donor < b.Donor
		}
		return a.Bytes < b.Bytes
	})
	return s
}
