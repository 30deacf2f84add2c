package controlplane

import (
	"sort"
	"time"

	"thymesisflow/internal/agent"
	"thymesisflow/internal/graphdb"
	"thymesisflow/internal/trace"
)

// ReconcileReport summarizes one reconciliation sweep: what the diff of
// control-plane records against executor, agent, and fabric ground truth
// found, and how much of it was repaired.
type ReconcileReport struct {
	// ParkedDrained counts parked sagas whose pending agent detaches were
	// finally confirmed.
	ParkedDrained int `json:"parked_drained"`
	// OrphanExecDetached counts executor attachments with no control-plane
	// record that were torn down.
	OrphanExecDetached int `json:"orphan_exec_detached"`
	// RecordsTornDown counts records whose executor attachment vanished
	// underneath the control plane (cleaned up: agents detached, paths
	// released, record dropped).
	RecordsTornDown int `json:"records_torn_down"`
	// AgentRepushed counts desired agent configurations re-pushed to agents
	// that lost them (crash-restarted incarnations).
	AgentRepushed int `json:"agent_repushed"`
	// AgentDetached counts undesired agent configurations detached (stale
	// state on resurrected or bypassed agents).
	AgentDetached int `json:"agent_detached"`
	// ReservationsReleased / ReservationsReasserted count fabric vertices
	// whose reserved flag disagreed with the record set.
	ReservationsReleased   int `json:"reservations_released"`
	ReservationsReasserted int `json:"reservations_reasserted"`
	// Unrepaired counts repairs that failed (agent unreachable after
	// retries); they stay pending for the next sweep.
	Unrepaired int `json:"unrepaired"`
}

// Repairs is the total number of successful repairs in the sweep.
func (r ReconcileReport) Repairs() int {
	return r.ParkedDrained + r.OrphanExecDetached + r.RecordsTornDown +
		r.AgentRepushed + r.AgentDetached +
		r.ReservationsReleased + r.ReservationsReasserted
}

// Reconcile runs one reconciliation sweep, diffing the control plane's
// records against executor, agent, and fabric-reservation ground truth and
// repairing every divergence it can:
//
//   - parked sagas: re-send the pending idempotent detaches until agents
//     confirm;
//   - executor diff: orphaned datapath attachments (no record) are
//     detached, records whose datapath vanished are fully torn down;
//   - agent diff: attachment state an agent holds but no record wants is
//     detached; desired configuration an agent lost (crash-restart) is
//     re-pushed with fresh epochs;
//   - reservation diff: reserved fabric vertices outside the union of all
//     record paths are released, record paths that lost their reservation
//     are re-asserted.
//
// Every successful repair increments the reconcile_repairs counter.
func (s *Service) Reconcile() ReconcileReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep ReconcileReport
	if s.elog != nil {
		s.cur = s.newTraceCtx()
		s.emit(trace.LogEvent{Source: "reconcile", Kind: trace.KindReconcileBegin})
	}
	s.drainParked(&rep)
	s.reconcileExecutor(&rep)
	s.reconcileAgents(&rep)
	s.reconcileReservations(&rep)
	s.ctrReconcileFixes.Add(int64(rep.Repairs()))
	if s.elog != nil {
		s.emit(trace.LogEvent{Source: "reconcile", Kind: trace.KindReconcileEnd, Attempt: rep.Repairs()})
		s.cur = trace.SpanContext{}
	}
	return rep
}

// repaired emits one reconcile_repair event when tracing is on.
func (s *Service) repaired(what, saga, host string) {
	if s.elog != nil {
		s.emit(trace.LogEvent{Source: "reconcile", Kind: trace.KindReconcileRepair, Step: what, Saga: saga, Host: host})
	}
}

// ReconcileUntilClean sweeps until a pass finds nothing to repair and
// nothing unrepaired, or maxPasses is exhausted. It returns the number of
// passes run and whether the final pass was clean — the "convergence time
// after a flap storm" number the replay report and the reconciler
// convergence property test measure.
func (s *Service) ReconcileUntilClean(maxPasses int) (passes int, clean bool) {
	for passes < maxPasses {
		rep := s.Reconcile()
		passes++
		if rep.Repairs() == 0 && rep.Unrepaired == 0 {
			return passes, true
		}
	}
	return passes, false
}

// StartReconciler runs Reconcile every interval until the returned stop
// function is called. The running/stopped state feeds GET /v1/readyz.
func (s *Service) StartReconciler(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	s.reconState.Store(reconRunning)
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				s.Reconcile()
			}
		}
	}()
	var once bool
	return func() {
		if !once {
			once = true
			s.reconState.Store(reconStopped)
			close(done)
		}
	}
}

// drainParked retries the pending agent detaches of parked sagas. A step
// is confirmed done either by a successful send or by the agent's status
// no longer holding the attachment.
func (s *Service) drainParked(rep *ReconcileReport) {
	ids := make([]string, 0, len(s.parked))
	for id := range s.parked {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		p := s.parked[id]
		// Sorted step order: retry sends draw from the (seeded) faulty
		// transport's RNG, so map-order iteration here would make replay
		// runs diverge between executions of the same seed.
		steps := make([]string, 0, len(p.pending))
		for step := range p.pending {
			steps = append(steps, step)
		}
		sort.Strings(steps)
		for _, step := range steps {
			host := p.pending[step]
			if !s.agentMayHold(host, p.attID) {
				delete(p.pending, step)
				continue
			}
			err := s.retry(func() error {
				return s.send(host, agent.Command{
					Kind: agent.CmdDetach, AttachmentID: p.attID, Epoch: s.nextEpoch(),
				})
			})
			if err != nil {
				rep.Unrepaired++
				continue
			}
			delete(p.pending, step)
		}
		if len(p.pending) == 0 {
			delete(s.parked, id)
			s.ctrParked.Add(-1)
			rep.ParkedDrained++
			s.repaired("parked-drained", p.sagaID, "")
			s.append(JournalEntry{SagaID: p.sagaID, Op: p.op, Event: EvCommitted, AttID: p.attID, Err: "reconciled"}) //nolint:errcheck
			if st, ok := s.sagas[p.sagaID]; ok {
				st.State = "committed"
				st.Err = ""
			}
		}
	}
}

// reconcileExecutor diffs datapath attachments against records.
func (s *Service) reconcileExecutor(rep *ReconcileReport) {
	live := make(map[string]bool)
	for _, id := range s.exec.AttachmentIDs() {
		live[id] = true
		if _, recorded := s.attachments[id]; !recorded {
			// Orphaned datapath attachment: an attach that crashed between
			// the executor call and its journal entry. Tear it down.
			if err := s.exec.Detach(id); err == nil {
				rep.OrphanExecDetached++
				s.repaired("orphan-exec-detached", id, "")
			} else {
				rep.Unrepaired++
			}
		}
	}
	ids := make([]string, 0, len(s.attachments))
	for id := range s.attachments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if live[id] {
			continue
		}
		// The datapath vanished underneath the record (e.g. torn down by a
		// lower layer): finish the teardown the record still implies.
		rec := s.attachments[id]
		for _, host := range []string{rec.ComputeHost, rec.DonorHost} {
			if !s.agentMayHold(host, rec.SagaID) {
				continue
			}
			s.retry(func() error { //nolint:errcheck // next sweep retries
				return s.send(host, agent.Command{
					Kind: agent.CmdDetach, AttachmentID: rec.SagaID, Epoch: s.nextEpoch(),
				})
			})
		}
		s.model.ReleasePaths(rec.paths)
		delete(s.attachments, id)
		rep.RecordsTornDown++
		s.repaired("record-torn-down", rec.SagaID, "")
	}
}

// reconcileAgents diffs agent-held attachment state against records:
// undesired state is detached, missing desired state is re-pushed.
func (s *Service) reconcileAgents(rep *ReconcileReport) {
	// Desired state per host, keyed by agent-side correlation ID.
	type want struct {
		rec     *AttachmentRecord
		compute bool // this host is the compute side (else donor)
	}
	desired := make(map[string]map[string]want)
	for _, rec := range s.attachments {
		if desired[rec.ComputeHost] == nil {
			desired[rec.ComputeHost] = make(map[string]want)
		}
		desired[rec.ComputeHost][rec.SagaID] = want{rec: rec, compute: true}
		if desired[rec.DonorHost] == nil {
			desired[rec.DonorHost] = make(map[string]want)
		}
		desired[rec.DonorHost][rec.SagaID] = want{rec: rec, compute: false}
	}

	for _, host := range s.transport.Hosts() {
		st, err := s.transport.Query(host)
		if err != nil {
			rep.Unrepaired++
			continue
		}
		held := make(map[string]agent.AttachmentStatus, len(st.Attachments))
		for _, a := range st.Attachments {
			held[a.ID] = a
		}
		// Stale state: held but not desired (includes resurrected agents
		// that somehow kept state, or sagas compensated while unreachable).
		for _, a := range st.Attachments {
			if _, ok := desired[host][a.ID]; ok {
				continue
			}
			err := s.retry(func() error {
				return s.send(host, agent.Command{
					Kind: agent.CmdDetach, AttachmentID: a.ID, Epoch: s.nextEpoch(),
				})
			})
			if err != nil {
				rep.Unrepaired++
				continue
			}
			rep.AgentDetached++
			s.repaired("agent-detached", a.ID, host)
		}
		// Lost state: desired but not held (crash-restarted agent lost its
		// volatile configuration). Re-push from the record.
		wantIDs := make([]string, 0, len(desired[host]))
		for id := range desired[host] {
			wantIDs = append(wantIDs, id)
		}
		sort.Strings(wantIDs)
		for _, id := range wantIDs {
			w := desired[host][id]
			h, ok := held[id]
			if ok && (w.compute && h.ComputeAttached || !w.compute && h.StolenBytes > 0) {
				continue
			}
			cmd := agent.Command{
				AttachmentID: id, Epoch: s.nextEpoch(),
				Bytes: w.rec.Bytes, NetworkID: w.rec.NetID,
			}
			if w.compute {
				cmd.Kind = agent.CmdAttachCompute
				cmd.Channels = w.rec.Channels
			} else {
				cmd.Kind = agent.CmdStealMemory
			}
			err := s.retry(func() error { return s.send(host, cmd) })
			if err != nil {
				rep.Unrepaired++
				continue
			}
			rep.AgentRepushed++
			s.repaired("agent-repushed", id, host)
		}
	}
}

// reconcileReservations diffs the fabric's reserved flags against the
// union of all record paths.
func (s *Service) reconcileReservations(rep *ReconcileReport) {
	want := make(map[graphdb.ID]bool)
	for _, rec := range s.attachments {
		for _, p := range rec.paths {
			for _, v := range p.Vertices {
				want[v] = true
			}
		}
	}
	have := make(map[graphdb.ID]bool)
	for _, id := range s.model.ReservedIDs() {
		have[id] = true
		if !want[id] {
			// Orphaned reservation (e.g. a crashed plan step that never
			// reached its saga's compensation).
			s.model.ReleasePaths([]Path{{Vertices: []graphdb.ID{id}}})
			rep.ReservationsReleased++
		}
	}
	missing := make([]graphdb.ID, 0)
	for id := range want {
		if !have[id] {
			missing = append(missing, id)
		}
	}
	if len(missing) > 0 {
		sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
		s.model.ReservePaths([]Path{{Vertices: missing}})
		rep.ReservationsReasserted += len(missing)
	}
}
