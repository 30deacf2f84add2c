package controlplane

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"thymesisflow/internal/agent"
	"thymesisflow/internal/core"
	"thymesisflow/internal/mem"
	"thymesisflow/internal/metrics"
	"thymesisflow/internal/timeseries"
	"thymesisflow/internal/timeseries/detect"
	"thymesisflow/internal/trace"
)

// Executor carries out planned attachments on the physical (simulated)
// cluster. *core.Cluster satisfies it through ClusterExecutor.
type Executor interface {
	Attach(computeHost, donorHost string, bytes int64, channels int) (id string, node mem.NodeID, err error)
	Detach(id string) error
}

// ClusterExecutor adapts core.Cluster to the Executor interface.
type ClusterExecutor struct {
	Cluster *core.Cluster
}

// Attach implements Executor.
func (ce ClusterExecutor) Attach(computeHost, donorHost string, bytes int64, channels int) (string, mem.NodeID, error) {
	att, err := ce.Cluster.Attach(core.AttachSpec{
		ComputeHost: computeHost,
		DonorHost:   donorHost,
		Bytes:       bytes,
		Channels:    channels,
	})
	if err != nil {
		return "", 0, err
	}
	return att.ID, att.Node, nil
}

// Detach implements Executor.
func (ce ClusterExecutor) Detach(id string) error { return ce.Cluster.Detach(id) }

// ExecInspector is optionally implemented by executors that can report
// whether an attachment is still live — the ground-truth query crash
// recovery uses to decide between rolling a saga forward and compensating.
type ExecInspector interface {
	HasAttachment(id string) bool
}

// HasAttachment implements ExecInspector.
func (ce ClusterExecutor) HasAttachment(id string) bool {
	_, ok := ce.Cluster.Attachment(id)
	return ok
}

// ExecLister is optionally implemented by executors that can enumerate
// live attachments; the reconciliation loop diffs the list against the
// control plane's records to find orphans (e.g. an attach that crashed
// between the executor call and its journal record).
type ExecLister interface {
	AttachmentIDs() []string
}

// AttachmentIDs implements ExecLister, sorted for deterministic sweeps.
func (ce ClusterExecutor) AttachmentIDs() []string {
	atts := ce.Cluster.Attachments()
	out := make([]string, 0, len(atts))
	for _, a := range atts {
		out = append(out, a.ID)
	}
	sort.Strings(out)
	return out
}

// TrafficReporter is optionally implemented by executors that can report
// per-attachment datapath counters; the REST layer exposes them under
// GET /v1/attachments/{id}/stats.
type TrafficReporter interface {
	Traffic(id string) (core.TrafficStats, bool)
}

// Traffic implements TrafficReporter.
func (ce ClusterExecutor) Traffic(id string) (core.TrafficStats, bool) {
	att, ok := ce.Cluster.Attachment(id)
	if !ok {
		return core.TrafficStats{}, false
	}
	return att.Traffic(), true
}

// StateReporter is optionally implemented by executors that can report an
// attachment's lifecycle state (active / draining / link-down); the REST
// layer exposes it under GET /v1/attachments/{id}/state so operators can
// observe degraded-mode recovery and detach-under-load progress.
type StateReporter interface {
	AttachmentState(id string) (string, bool)
}

// AttachmentState implements StateReporter.
func (ce ClusterExecutor) AttachmentState(id string) (string, bool) {
	att, ok := ce.Cluster.Attachment(id)
	if !ok {
		return "", false
	}
	return att.State().String(), true
}

// AttachmentState returns the lifecycle state of an attachment when the
// executor supports state reporting. Attachments the control plane knows
// about but the executor no longer holds (torn down underneath it) read as
// detached.
func (s *Service) AttachmentState(id string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, known := s.attachments[id]; !known {
		return "", false
	}
	sr, ok := s.exec.(StateReporter)
	if !ok {
		return "", false
	}
	if st, ok := sr.AttachmentState(id); ok {
		return st, true
	}
	return core.StateDetached.String(), true
}

// Traffic returns datapath counters for an attachment when the executor
// supports reporting.
func (s *Service) Traffic(id string) (core.TrafficStats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, known := s.attachments[id]; !known {
		return core.TrafficStats{}, false
	}
	tr, ok := s.exec.(TrafficReporter)
	if !ok {
		return core.TrafficStats{}, false
	}
	return tr.Traffic(id)
}

// AttachmentRecord is the control plane's book-keeping for one attachment.
type AttachmentRecord struct {
	ID          string `json:"id"`
	SagaID      string `json:"saga_id"` // agent-side correlation ID
	ComputeHost string `json:"compute_host"`
	DonorHost   string `json:"donor_host"`
	Bytes       int64  `json:"bytes"`
	Channels    int    `json:"channels"`
	NUMANode    int    `json:"numa_node"`
	NetID       uint16 `json:"network_id"`
	PathLen     []int  `json:"path_len"`
	paths       []Path
}

// RetryPolicy bounds the per-step retries of a saga. Transient transport
// failures are retried with exponential backoff plus jitter; permanent
// failures (agent rejections, executor errors) fail the step immediately.
type RetryPolicy struct {
	// MaxAttempts is the per-step attempt budget (the step deadline):
	// attempts beyond it fail the step and trigger compensation or
	// parking. Minimum 1.
	MaxAttempts int
	// BaseBackoff is the delay after the first failed attempt; it doubles
	// per attempt up to MaxBackoff, with +/-50% jitter.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
}

// DefaultRetryPolicy is the production policy: four attempts per step,
// 5ms..80ms backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 80 * time.Millisecond}
}

// SagaCounters is a snapshot of the control plane's fault-handling
// counters (also exported through the metrics registry under the same
// names, and from there via GET /v1/metrics).
type SagaCounters struct {
	SagaRetries         int64 `json:"saga_retries"`
	SagaCompensations   int64 `json:"saga_compensations"`
	RecoveryReplays     int64 `json:"recovery_replays"`
	ReconcileRepairs    int64 `json:"reconcile_repairs"`
	DetachAgentFailures int64 `json:"detach_agent_failures"`
	SagasParked         int64 `json:"sagas_parked"`
	SagasRejected       int64 `json:"sagas_rejected"`
}

// Add folds o into c. Counters are per-process, so a harness that
// crash-restarts the control plane banks each incarnation's counters with
// Add before dropping it.
func (c *SagaCounters) Add(o SagaCounters) {
	c.SagaRetries += o.SagaRetries
	c.SagaCompensations += o.SagaCompensations
	c.RecoveryReplays += o.RecoveryReplays
	c.ReconcileRepairs += o.ReconcileRepairs
	c.DetachAgentFailures += o.DetachAgentFailures
	c.SagasParked += o.SagasParked
	c.SagasRejected += o.SagasRejected
}

// SagaStatus is the externally visible progress of one saga, served under
// GET /v1/sagas.
type SagaStatus struct {
	ID     string        `json:"id"`
	Op     string        `json:"op"`
	State  string        `json:"state"` // running | committed | aborted | parked | crashed
	ExecID string        `json:"exec_id,omitempty"`
	Err    string        `json:"err,omitempty"`
	Trace  trace.TraceID `json:"trace,omitempty"` // saga trace ID when tracing is on
}

// Service is the control plane: topology model, agent transport, executor,
// write-ahead saga journal, and attachment state.
type Service struct {
	mu        sync.Mutex
	model     *Model
	exec      Executor
	transport Transport
	journal   Journal
	policy    RetryPolicy
	sleep     func(time.Duration)
	jitter    *rand.Rand
	token     string // the control plane's trusted token

	attachments map[string]*AttachmentRecord
	parked      map[string]*parkedSaga
	sagas       map[string]*SagaStatus
	sagaOrder   []string
	nextNetID   uint16
	sagaSeq     uint64
	epoch       uint64
	jseq        uint64

	ctrRetries         atomic.Int64
	ctrCompensations   atomic.Int64
	ctrRecoveryReplays atomic.Int64
	ctrReconcileFixes  atomic.Int64
	ctrDetachFailures  atomic.Int64
	ctrParked          atomic.Int64
	ctrRejected        atomic.Int64

	// Saga admission control (SetMaxInflightSagas). maxInflight == 0 means
	// unlimited; inflight counts Attach/Detach sagas between admission and
	// return. Checked before s.mu so overload rejection is immediate even
	// while a saga holds the lock.
	maxInflight atomic.Int64
	inflight    atomic.Int64

	// metrics and ring back the read-only telemetry endpoints; nil until
	// SetTelemetry is called.
	metrics *metrics.Registry
	ring    *trace.Ring
	latRep  LatencyReporter

	// Saga tracing (sagatrace.go). elog == nil means disabled — the
	// production default, and every emission site is nil-guarded so the
	// disabled saga hot path stays allocation-free. cur is the span context
	// of the work currently executing under s.mu.
	elog     *trace.EventLog
	wall     trace.WallClock
	cur      trace.SpanContext
	traceSeq uint64
	spanSeq  uint64
	// elogShared mirrors elog for readers that must not take s.mu (the
	// metrics collector runs inside Registry.Snapshot, which MetricsSnapshot
	// already calls under the lock).
	elogShared atomic.Pointer[trace.EventLog]

	// Readiness state (health.go): sticky last journal append error and
	// reconciler liveness (0 disabled, 1 running, 2 stopped).
	lastJournalErr string
	reconState     atomic.Int32

	// Flight-recorder telemetry (flight.go): nil until SetFlightRecorder.
	// Atomics, not s.mu — samplers tick these from clock taps and timer
	// goroutines that must never contend with the saga engine.
	flightRec atomic.Pointer[timeseries.Recorder]
	flightDet atomic.Pointer[detect.Detector]

	// HA replication (replicated.go): leaderGate rejects mutations on
	// non-leader replicas before the saga mutex (mirroring admit). nil on a
	// single-node control plane.
	leaderGate atomic.Pointer[func() error]
}

// parkedSaga is a saga whose datapath work is finished but whose agent
// acknowledgements could not be confirmed; the reconciliation loop keeps
// retrying the pending steps until the agents confirm.
type parkedSaga struct {
	sagaID  string
	op      string
	attID   string            // agent-side correlation ID
	pending map[string]string // step -> host still owing a detach
}

// NewService builds a control plane over the given model and executor with
// a reliable in-process transport and an in-memory journal. The token
// authenticates the control plane toward node agents. Use SetTransport /
// SetJournal / SetRetryPolicy before serving traffic to swap in a lossy
// transport, a durable journal, or a different retry budget.
func NewService(model *Model, exec Executor, token string) *Service {
	return &Service{
		model:       model,
		exec:        exec,
		transport:   NewDirectTransport(),
		journal:     NewMemJournal(),
		policy:      DefaultRetryPolicy(),
		sleep:       time.Sleep,
		jitter:      rand.New(rand.NewSource(1)),
		token:       token,
		attachments: make(map[string]*AttachmentRecord),
		parked:      make(map[string]*parkedSaga),
		sagas:       make(map[string]*SagaStatus),
		nextNetID:   1,
	}
}

// SetTransport replaces the agent transport (e.g. with a FaultyTransport
// for chaos campaigns). Agents already registered on the old transport are
// not migrated.
func (s *Service) SetTransport(t Transport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.transport = t
}

// SetJournal replaces the saga journal. Call before any saga runs (or
// right before Recover when restarting over a durable journal).
func (s *Service) SetJournal(j Journal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = j
}

// SetRetryPolicy replaces the per-step retry budget.
func (s *Service) SetRetryPolicy(p RetryPolicy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	s.policy = p
}

// ErrOverloaded is returned by Attach/Detach when the in-flight saga limit
// set by SetMaxInflightSagas is reached. The request had no effect; callers
// shed or retry later.
var ErrOverloaded = errors.New("controlplane: saga admission limit reached")

// SetMaxInflightSagas bounds the number of concurrently executing
// Attach/Detach sagas; further requests fail fast with ErrOverloaded and
// count as SagasRejected. n <= 0 removes the bound (the default). This is
// the concurrency-limit knob sustained replay load exposed: without it, a
// burst of arrivals queues on the saga mutex and every request pays the
// full queue's latency instead of the overload being visible at admission.
func (s *Service) SetMaxInflightSagas(n int) {
	if n < 0 {
		n = 0
	}
	s.maxInflight.Store(int64(n))
}

// InflightSagas returns the number of currently admitted sagas.
func (s *Service) InflightSagas() int { return int(s.inflight.Load()) }

// admit reserves an in-flight saga slot, or rejects with ErrOverloaded.
func (s *Service) admit() error {
	max := s.maxInflight.Load()
	n := s.inflight.Add(1)
	if max > 0 && n > max {
		s.inflight.Add(-1)
		s.ctrRejected.Add(1)
		return ErrOverloaded
	}
	return nil
}

// release frees an admitted slot.
func (s *Service) release() { s.inflight.Add(-1) }

// SetLeaderGate installs the HA leader gate: a func returning nil when
// this replica may accept mutations and *NotLeaderError otherwise
// (ReplicaSet.Gate builds one). Like the admission limit it is checked
// before s.mu, so followers shed misdirected writes immediately even while
// the leader gate-keeps a long saga. nil removes the gate.
func (s *Service) SetLeaderGate(gate func() error) {
	if gate == nil {
		s.leaderGate.Store(nil)
		return
	}
	s.leaderGate.Store(&gate)
}

// checkLeader applies the leader gate (nil when unset or leading).
func (s *Service) checkLeader() error {
	g := s.leaderGate.Load()
	if g == nil {
		return nil
	}
	return (*g)()
}

// RegisterAgent attaches a node agent for a host (delegating to the
// transport's registry when it has one).
func (s *Service) RegisterAgent(a *agent.Agent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if reg, ok := s.transport.(interface{ Register(*agent.Agent) }); ok {
		reg.Register(a)
	}
	if s.elog != nil {
		a.SetEventLog(s.elog, s.wall)
	}
}

// Model returns the topology model.
func (s *Service) Model() *Model { return s.model }

// Counters snapshots the fault-handling counters.
func (s *Service) Counters() SagaCounters {
	return SagaCounters{
		SagaRetries:         s.ctrRetries.Load(),
		SagaCompensations:   s.ctrCompensations.Load(),
		RecoveryReplays:     s.ctrRecoveryReplays.Load(),
		ReconcileRepairs:    s.ctrReconcileFixes.Load(),
		DetachAgentFailures: s.ctrDetachFailures.Load(),
		SagasParked:         s.ctrParked.Load(),
		SagasRejected:       s.ctrRejected.Load(),
	}
}

// Sagas lists saga statuses in start order.
func (s *Service) Sagas() []SagaStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SagaStatus, 0, len(s.sagaOrder))
	for _, id := range s.sagaOrder {
		if st, ok := s.sagas[id]; ok {
			out = append(out, *st)
		}
	}
	return out
}

// ParkedSagas returns the IDs of sagas awaiting reconciliation.
func (s *Service) ParkedSagas() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.parked))
	for id := range s.parked {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// AttachRequest is the external API request body.
type AttachRequest struct {
	ComputeHost string `json:"compute_host"`
	DonorHost   string `json:"donor_host"`
	Bytes       int64  `json:"bytes"`
	Channels    int    `json:"channels"`
}

// Attach plans, reserves, configures, and executes one attachment as an
// idempotent saga: every step is journaled write-ahead, agent commands
// carry (AttachmentID, Epoch) so retries deduplicate, transient transport
// failures are retried with backoff, and a failed step triggers
// *compensating* rollback — a failed compute-side push issues a donor-side
// detach (not just a path release), so no donor memory leaks.
func (s *Service) Attach(req AttachRequest) (*AttachmentRecord, error) {
	if err := s.checkLeader(); err != nil {
		return nil, err
	}
	if err := s.admit(); err != nil {
		return nil, err
	}
	defer s.release()
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.Channels <= 0 {
		req.Channels = 1
	}
	if req.Bytes <= 0 {
		return nil, fmt.Errorf("controlplane: attach of %d bytes", req.Bytes)
	}
	for _, h := range []string{req.ComputeHost, req.DonorHost} {
		if _, err := s.transport.Query(h); err != nil {
			return nil, fmt.Errorf("controlplane: no agent registered for host %q", h)
		}
	}

	sg := s.newSaga(OpAttach)
	if err := s.append(JournalEntry{
		SagaID: sg.id, Op: OpAttach, Event: EvBegin,
		Compute: req.ComputeHost, Donor: req.DonorHost,
		Bytes: req.Bytes, Channels: req.Channels,
	}); err != nil {
		return nil, s.crash(sg, err)
	}

	// 1. Find and reserve fabric paths.
	var paths []Path
	var netID uint16
	err := s.step(sg, StepPlanPaths, 0, func() error {
		p, err := s.model.PlanChannels(req.ComputeHost, req.DonorHost, req.Channels)
		if err != nil {
			return err
		}
		paths = p
		netID = s.nextNetID
		s.nextNetID++
		return nil
	}, func(e *JournalEntry) {
		e.NetID = netID
		e.Paths = pathsToWire(paths)
	})
	if err != nil {
		return nil, s.failAttach(sg, req, paths, netID, "", err)
	}

	// 2. Push configuration to the agents (donor first: memory must be
	// pinned before the compute side can forward to it).
	stealEpoch := s.nextEpoch()
	err = s.step(sg, StepStealMemory, stealEpoch, func() error {
		return s.send(req.DonorHost, agent.Command{
			Kind: agent.CmdStealMemory, AttachmentID: sg.id, Epoch: stealEpoch,
			Bytes: req.Bytes, NetworkID: netID,
		})
	}, nil)
	if err != nil {
		return nil, s.failAttach(sg, req, paths, netID, "", err)
	}

	attachEpoch := s.nextEpoch()
	err = s.step(sg, StepAttachCompute, attachEpoch, func() error {
		return s.send(req.ComputeHost, agent.Command{
			Kind: agent.CmdAttachCompute, AttachmentID: sg.id, Epoch: attachEpoch,
			Bytes: req.Bytes, Channels: req.Channels, NetworkID: netID,
		})
	}, nil)
	if err != nil {
		return nil, s.failAttach(sg, req, paths, netID, "", err)
	}

	// 3. Execute on the datapath.
	var execID string
	var node mem.NodeID
	err = s.step(sg, StepExecAttach, 0, func() error {
		id, n, err := s.exec.Attach(req.ComputeHost, req.DonorHost, req.Bytes, req.Channels)
		if err != nil {
			return err
		}
		execID, node = id, n
		return nil
	}, func(e *JournalEntry) {
		e.ExecID = execID
		e.NUMA = int(node)
	})
	if err != nil {
		return nil, s.failAttach(sg, req, paths, netID, execID, err)
	}

	// 4. Commit: the committed entry carries the whole record, so a
	// restarted control plane rebuilds it from the journal alone.
	rec := &AttachmentRecord{
		ID:          execID,
		SagaID:      sg.id,
		ComputeHost: req.ComputeHost,
		DonorHost:   req.DonorHost,
		Bytes:       req.Bytes,
		Channels:    req.Channels,
		NUMANode:    int(node),
		NetID:       netID,
		paths:       paths,
	}
	for _, p := range paths {
		rec.PathLen = append(rec.PathLen, len(p.Vertices))
	}
	if err := s.append(JournalEntry{
		SagaID: sg.id, Op: OpAttach, Event: EvCommitted,
		Compute: req.ComputeHost, Donor: req.DonorHost,
		Bytes: req.Bytes, Channels: req.Channels,
		NetID: netID, Paths: pathsToWire(paths), ExecID: execID, NUMA: int(node),
	}); err != nil {
		// Crash after the datapath attach succeeded: the attachment is
		// live but unrecorded. Recovery rolls this saga forward from the
		// exec-attach done entry.
		return nil, s.crash(sg, err)
	}
	s.attachments[execID] = rec
	s.finishSaga(sg, "committed", execID, "")
	return rec, nil
}

// failAttach compensates a failed attach saga in reverse step order:
// datapath detach if the executor ran, compensating agent detaches for
// every step whose command may have reached an agent (intent written), and
// path release. Un-confirmable agent detaches park the saga for the
// reconciliation loop.
func (s *Service) failAttach(sg *saga, req AttachRequest, paths []Path, netID uint16, execID string, cause error) error {
	if isCrash(cause) {
		return s.crash(sg, cause)
	}
	s.ctrCompensations.Add(1)
	pending := make(map[string]string)

	if execID != "" {
		if err := s.exec.Detach(execID); err == nil {
			s.logCompensated(sg, StepExecAttach, "")
		}
	}
	// Compensating detaches cover intents, not just completed steps: an
	// ambiguous transport failure may have applied the command, and the
	// agent-side detach is idempotent either way.
	if sg.intents[StepAttachCompute] {
		s.compensateAgent(sg, StepAttachCompute, req.ComputeHost, pending)
	}
	if sg.intents[StepStealMemory] {
		s.compensateAgent(sg, StepStealMemory, req.DonorHost, pending)
	}
	if sg.dones[StepPlanPaths] {
		s.model.ReleasePaths(paths)
		s.logCompensated(sg, StepPlanPaths, "")
	}

	if len(pending) > 0 {
		s.park(sg, sg.id, pending)
	} else {
		s.append(JournalEntry{SagaID: sg.id, Op: sg.op, Event: EvAborted, Err: cause.Error()}) //nolint:errcheck // best-effort terminal entry
		s.finishSaga(sg, "aborted", execID, cause.Error())
	}
	return cause
}

// compensateAgent sends an idempotent detach for a (possibly) applied
// command; exhausted retries land the step in pending for the reconciler.
func (s *Service) compensateAgent(sg *saga, step, host string, pending map[string]string) {
	err := s.retrySaga(sg, func() error {
		return s.send(host, agent.Command{
			Kind: agent.CmdDetach, AttachmentID: sg.id, Epoch: s.nextEpoch(),
		})
	})
	if err != nil {
		pending[compensationStep(step)] = host
		return
	}
	s.logCompensated(sg, step, host)
}

// compensationStep maps an attach step to the detach step the reconciler
// must finish.
func compensationStep(step string) string {
	if step == StepStealMemory {
		return StepDetachDonor
	}
	return StepDetachCompute
}

// Detach tears an attachment down as a saga: datapath first, then
// compensable agent detaches, then path release. Agent failures are no
// longer swallowed: transient failures are retried, and un-confirmable
// detaches are parked for the reconciliation loop (counted in
// detach_agent_failures) instead of silently dropped.
func (s *Service) Detach(id string) error {
	if err := s.checkLeader(); err != nil {
		return err
	}
	if err := s.admit(); err != nil {
		return err
	}
	defer s.release()
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.attachments[id]
	if !ok {
		return fmt.Errorf("controlplane: unknown attachment %q", id)
	}

	sg := s.newSaga(OpDetach)
	if err := s.append(JournalEntry{
		SagaID: sg.id, Op: OpDetach, Event: EvBegin,
		AttID: rec.SagaID, ExecID: rec.ID,
		Compute: rec.ComputeHost, Donor: rec.DonorHost,
		Paths: pathsToWire(rec.paths),
	}); err != nil {
		return s.crash(sg, err)
	}

	// 1. Tear down the datapath. A failure here aborts the saga with the
	// attachment intact (nothing to compensate yet).
	err := s.step(sg, StepExecDetach, 0, func() error {
		return s.exec.Detach(id)
	}, nil)
	if err != nil {
		if isCrash(err) {
			return s.crash(sg, err)
		}
		s.append(JournalEntry{SagaID: sg.id, Op: sg.op, Event: EvAborted, Err: err.Error()}) //nolint:errcheck
		s.finishSaga(sg, "aborted", id, err.Error())
		return err
	}

	// 2+3. Agent-side detaches. The datapath is already gone, so these
	// must eventually happen; failures park the saga for the reconciler
	// rather than failing the API call.
	pending := make(map[string]string)
	for _, st := range []struct{ step, host string }{
		{StepDetachCompute, rec.ComputeHost},
		{StepDetachDonor, rec.DonorHost},
	} {
		st := st
		epoch := s.nextEpoch()
		err := s.step(sg, st.step, epoch, func() error {
			return s.send(st.host, agent.Command{
				Kind: agent.CmdDetach, AttachmentID: rec.SagaID, Epoch: epoch,
			})
		}, nil)
		if err != nil {
			if isCrash(err) {
				return s.crash(sg, err)
			}
			s.ctrDetachFailures.Add(1)
			pending[st.step] = st.host
		}
	}

	// 4. Release fabric reservations and drop the record.
	err = s.step(sg, StepReleasePaths, 0, func() error {
		s.model.ReleasePaths(rec.paths)
		return nil
	}, nil)
	if err != nil {
		return s.crash(sg, err)
	}
	delete(s.attachments, id)

	if len(pending) > 0 {
		s.park(sg, rec.SagaID, pending)
		return nil
	}
	if err := s.append(JournalEntry{SagaID: sg.id, Op: OpDetach, Event: EvCommitted, ExecID: id}); err != nil {
		return s.crash(sg, err)
	}
	s.finishSaga(sg, "committed", id, "")
	return nil
}

// Attachments lists records sorted by ID.
func (s *Service) Attachments() []*AttachmentRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*AttachmentRecord, 0, len(s.attachments))
	for _, r := range s.attachments {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Attachment returns one record.
func (s *Service) Attachment(id string) (*AttachmentRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.attachments[id]
	return r, ok
}
