// Package cpworld builds the control-plane world that the churn replay
// (internal/bench) and the control-plane chaos campaigns (internal/chaos)
// drive: a simulated rack with its topology model and node agents, a
// direct and a seeded faulty agent transport, a crashable write-ahead
// journal, and a world-scoped saga event log on a deterministic step
// clock.
//
// Everything in a World outlives a control-plane process. A crash drops
// only the Service; Boot starts a fresh one over the same world, which
// recovers from the journal. Every step is a pure function of the
// configuration, so a world driven by the same call sequence reproduces
// byte-identically.
package cpworld

import (
	"fmt"
	"sort"

	"thymesisflow/internal/agent"
	"thymesisflow/internal/controlplane"
	"thymesisflow/internal/core"
	"thymesisflow/internal/trace"
)

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

	cfg     Config
	cluster *core.Cluster
	model   *controlplane.Model
	clock   trace.WallClock
	mem     controlplane.Journal // the journal every booted process appends to
	counted []*controlplane.CountingJournal
}

// New builds the world.
func New(cfg Config) (*World, error) {
	w := &World{
		Hosts:   cfg.Hosts,
		Direct:  controlplane.NewDirectTransport(),
		Events:  trace.NewEventLog(cfg.Events),
		cfg:     cfg,
		cluster: core.NewCluster(),
		model:   controlplane.NewModel(),
		clock:   trace.StepClock(0, 25),
		mem:     controlplane.NewMemJournal(),
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
	return w, nil
}

// Boot starts a control-plane process over the world, talking to the
// agents through tr. It gets a fresh, disarmed journal chain (crash
// injection over append counting) on the world's journal.
// Retries are zero-backoff: harnesses measure in counters, not wall time.
func (w *World) Boot(tr controlplane.Transport) *controlplane.Service {
	counting := controlplane.NewCountingJournal(w.mem)
	w.counted = append(w.counted, counting)
	w.Journal = controlplane.NewCrashableJournal(counting)

	svc := controlplane.NewService(w.model, controlplane.ClusterExecutor{Cluster: w.cluster}, w.cfg.Token)
	svc.SetJournal(w.Journal)
	// Transport before tracing, so SetSagaTracing wires the agents.
	svc.SetTransport(tr)
	svc.SetRetryPolicy(controlplane.RetryPolicy{MaxAttempts: 6})
	svc.SetMaxInflightSagas(w.cfg.MaxInflightSagas)
	svc.SetSagaTracing(w.Events, w.clock)
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
