package controlplane

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"thymesisflow/internal/agent"
	"thymesisflow/internal/graphdb"
	"thymesisflow/internal/trace"
)

// saga is the in-memory execution state of one attach/detach state
// machine. The journal is the durable twin; intents/dones mirror what has
// been logged so compensation knows which side effects may exist.
type saga struct {
	id      string
	op      string
	intents map[string]bool
	dones   map[string]bool
	ctx     trace.SpanContext // root span; zero when tracing is off
	// rng drives this saga's backoff jitter, seeded from the saga ID so
	// the jitter sequence is a function of the saga alone — the same saga
	// re-run after a recovery (or by a crash-point test) sleeps
	// identically regardless of how other sagas interleave. Lazily created
	// on the first backoff so the retry-free happy path allocates nothing.
	rng *rand.Rand
}

// sagaJitterSeed hashes a saga ID to its jitter seed (inline FNV-1a, no
// allocation).
func sagaJitterSeed(id string) int64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return int64(h)
}

// jitterRNG returns the saga's lazily-created backoff RNG.
func (sg *saga) jitterRNG() *rand.Rand {
	if sg.rng == nil {
		sg.rng = rand.New(rand.NewSource(sagaJitterSeed(sg.id)))
	}
	return sg.rng
}

// newSaga allocates the next saga ID and registers its status.
func (s *Service) newSaga(op string) *saga {
	s.sagaSeq++
	sg := &saga{
		id:      fmt.Sprintf("saga-%d", s.sagaSeq),
		op:      op,
		intents: make(map[string]bool),
		dones:   make(map[string]bool),
	}
	st := &SagaStatus{ID: sg.id, Op: op, State: "running"}
	s.sagas[sg.id] = st
	s.sagaOrder = append(s.sagaOrder, sg.id)
	if s.elog != nil {
		sg.ctx = s.newTraceCtx()
		s.cur = sg.ctx
		st.Trace = sg.ctx.Trace
		s.emit(trace.LogEvent{Source: "saga", Kind: trace.KindSagaBegin, Saga: sg.id, Op: op})
	}
	return sg
}

// append stamps the global sequence number and writes one journal entry.
// Any journal failure is treated as a control-plane crash by the callers.
// With tracing on, the append (including a FileJournal's fsync) is recorded
// as a journal event so fsync cost shows up in saga stage breakdowns; the
// sticky lastJournalErr feeds GET /v1/readyz.
func (s *Service) append(e JournalEntry) error {
	var t0 int64
	if s.elog != nil {
		t0 = s.wall()
	}
	e.Seq = s.jseq + 1
	err := s.journal.Append(e)
	if s.elog != nil {
		ev := trace.LogEvent{
			Source: "journal", Kind: trace.KindJournalAppend,
			Saga: e.SagaID, Op: e.Op, Step: e.Event, DurNS: s.wall() - t0,
		}
		if err != nil {
			ev.Err = err.Error()
		}
		s.emit(ev)
	}
	if err != nil {
		s.lastJournalErr = err.Error()
		return fmt.Errorf("%w: %v", errCrashed, err)
	}
	s.lastJournalErr = ""
	s.jseq++
	return nil
}

// errCrashed marks a saga halted by journal unavailability: the process is
// considered dead mid-saga and must not run further steps or compensation
// (recovery owns the cleanup on restart).
var errCrashed = errors.New("controlplane: crashed mid-saga")

func isCrash(err error) bool { return errors.Is(err, errCrashed) }

// IsCrash reports whether err is a control-plane crash (journal
// unavailable mid-saga): the process must restart and Recover before
// accepting further operations.
func IsCrash(err error) bool { return isCrash(err) }

// crash records the crashed status and surfaces the error.
func (s *Service) crash(sg *saga, err error) error {
	if st, ok := s.sagas[sg.id]; ok {
		st.State = "crashed"
		st.Err = err.Error()
	}
	if s.elog != nil {
		s.emit(trace.LogEvent{Source: "saga", Kind: trace.KindSagaCrash, Saga: sg.id, Op: sg.op, Err: err.Error()})
		s.cur = trace.SpanContext{}
	}
	if isCrash(err) {
		return err
	}
	return fmt.Errorf("%w: %v", errCrashed, err)
}

// step executes one saga step write-ahead: intent entry, bounded retries of
// fn on transient failures, done entry (optionally decorated with a step
// payload for recovery). A journal failure at any point aborts with a
// crash error.
func (s *Service) step(sg *saga, step string, epoch uint64, fn func() error, payload func(*JournalEntry)) error {
	if s.elog != nil {
		s.cur = s.childSpan(sg.ctx)
		s.emit(trace.LogEvent{Source: "saga", Kind: trace.KindStepStart, Saga: sg.id, Op: sg.op, Step: step})
		defer func() { s.cur = sg.ctx }()
	}
	if err := s.append(JournalEntry{SagaID: sg.id, Op: sg.op, Event: EvIntent, Step: step, Epoch: epoch}); err != nil {
		return err
	}
	sg.intents[step] = true
	var runT0 int64
	if s.elog != nil {
		runT0 = s.wall()
	}
	if err := s.retrySaga(sg, fn); err != nil {
		if s.elog != nil {
			s.emit(trace.LogEvent{Source: "saga", Kind: trace.KindStepFail, Saga: sg.id, Op: sg.op, Step: step, Err: err.Error()})
		}
		s.append(JournalEntry{SagaID: sg.id, Op: sg.op, Event: EvFailed, Step: step, Err: err.Error()}) //nolint:errcheck // best-effort: the failure is re-derivable
		return err
	}
	if s.elog != nil {
		s.emit(trace.LogEvent{Source: "saga", Kind: trace.KindStepRun, Saga: sg.id, Op: sg.op, Step: step, DurNS: s.wall() - runT0})
	}
	done := JournalEntry{SagaID: sg.id, Op: sg.op, Event: EvDone, Step: step, Epoch: epoch}
	if payload != nil {
		payload(&done)
	}
	if err := s.append(done); err != nil {
		return err
	}
	sg.dones[step] = true
	if s.elog != nil {
		s.emit(trace.LogEvent{Source: "saga", Kind: trace.KindStepDone, Saga: sg.id, Op: sg.op, Step: step})
	}
	return nil
}

// retry runs fn under the service retry policy: transient failures are
// retried with exponential backoff plus +/-50% jitter, permanent failures
// return immediately. Jitter draws from the given RNG; saga-scoped work
// must go through retrySaga so the jitter sequence is a pure function of
// the saga ID (byte-reproducible across recoveries and crash-point replays),
// while service-scoped sweeps (the reconciler) use the service RNG.
func (s *Service) retry(fn func() error) error { return s.retryWith(s.jitter, nil, fn) }

// retrySaga retries fn with backoff jitter from the saga's seeded RNG.
func (s *Service) retrySaga(sg *saga, fn func() error) error {
	return s.retryWith(nil, sg, fn)
}

// retryWith implements the retry loop. When a saga is supplied (rng nil)
// its RNG is created lazily on the first backoff, so a saga that never
// retries never allocates one.
func (s *Service) retryWith(rng *rand.Rand, sg *saga, fn func() error) error {
	backoff := s.policy.BaseBackoff
	for attempt := 1; ; attempt++ {
		err := fn()
		if err == nil {
			return nil
		}
		if !IsTransient(err) || attempt >= s.policy.MaxAttempts {
			return err
		}
		s.ctrRetries.Add(1)
		var slept time.Duration
		if backoff > 0 {
			r := rng
			if r == nil {
				r = sg.jitterRNG()
			}
			slept = backoff/2 + time.Duration(r.Int63n(int64(backoff)))
			s.sleep(slept)
		}
		if s.elog != nil {
			// Recorded after the sleep so the backoff wait tiles into the
			// "backoff" stage of the saga timeline.
			s.emit(trace.LogEvent{Source: "transport", Kind: trace.KindCmdRetry, Attempt: attempt + 1, DurNS: int64(slept)})
		}
		backoff *= 2
		if s.policy.MaxBackoff > 0 && backoff > s.policy.MaxBackoff {
			backoff = s.policy.MaxBackoff
		}
	}
}

// nextEpoch returns the next monotonic command epoch.
func (s *Service) nextEpoch() uint64 {
	s.epoch++
	return s.epoch
}

// logCompensated best-effort journals one compensated step.
func (s *Service) logCompensated(sg *saga, step, host string) {
	if s.elog != nil {
		s.emit(trace.LogEvent{Source: "saga", Kind: trace.KindCompensate, Saga: sg.id, Op: sg.op, Step: step, Host: host})
	}
	s.append(JournalEntry{SagaID: sg.id, Op: sg.op, Event: EvCompensated, Step: step, Compute: host}) //nolint:errcheck
}

// park records a saga whose remaining agent detaches could not be
// confirmed; the reconciliation loop drains it.
func (s *Service) park(sg *saga, attID string, pending map[string]string) {
	p := &parkedSaga{sagaID: sg.id, op: sg.op, attID: attID, pending: pending}
	s.parked[sg.id] = p
	s.ctrParked.Add(1)
	steps := make([]string, 0, len(pending))
	for st, host := range pending {
		steps = append(steps, st+"@"+host)
	}
	sort.Strings(steps)
	s.append(JournalEntry{SagaID: sg.id, Op: sg.op, Event: EvParked, AttID: attID, Parked: steps}) //nolint:errcheck
	if st, ok := s.sagas[sg.id]; ok {
		st.State = "parked"
	}
	if s.elog != nil {
		s.emit(trace.LogEvent{Source: "saga", Kind: trace.KindSagaPark, Saga: sg.id, Op: sg.op})
		s.cur = trace.SpanContext{}
	}
}

// finishSaga records a terminal status.
func (s *Service) finishSaga(sg *saga, state, execID, errMsg string) {
	if st, ok := s.sagas[sg.id]; ok {
		st.State = state
		st.ExecID = execID
		st.Err = errMsg
	}
	if s.elog != nil {
		kind := trace.KindSagaCommit
		if state == "aborted" {
			kind = trace.KindSagaAbort
		}
		s.emit(trace.LogEvent{Source: "saga", Kind: kind, Saga: sg.id, Op: sg.op, Err: errMsg})
		s.cur = trace.SpanContext{}
	}
}

// trackRecovered registers a saga status discovered during journal replay.
func (s *Service) trackRecovered(id, op, state, execID, errMsg string) {
	if _, seen := s.sagas[id]; !seen {
		s.sagaOrder = append(s.sagaOrder, id)
	}
	s.sagas[id] = &SagaStatus{ID: id, Op: op, State: state, ExecID: execID, Err: errMsg}
}

// pathsToWire flattens reserved paths for the journal.
func pathsToWire(paths []Path) [][]int64 {
	if len(paths) == 0 {
		return nil
	}
	out := make([][]int64, len(paths))
	for i, p := range paths {
		vs := make([]int64, len(p.Vertices))
		for j, v := range p.Vertices {
			vs[j] = int64(v)
		}
		out[i] = vs
	}
	return out
}

// wireToPaths rebuilds paths from a journal entry.
func wireToPaths(wire [][]int64) []Path {
	if len(wire) == 0 {
		return nil
	}
	out := make([]Path, len(wire))
	for i, vs := range wire {
		p := Path{Vertices: make([]graphdb.ID, len(vs))}
		for j, v := range vs {
			p.Vertices[j] = graphdb.ID(v)
		}
		out[i] = p
	}
	return out
}

// RecoveryReport summarizes one journal replay.
type RecoveryReport struct {
	SagasSeen     int `json:"sagas_seen"`
	Restored      int `json:"restored"`       // committed attachments rebuilt
	RolledForward int `json:"rolled_forward"` // in-flight sagas completed
	Compensated   int `json:"compensated"`    // in-flight sagas rolled back
	Reparked      int `json:"reparked"`       // parked sagas handed to the reconciler
}

// sagaLog is one saga's journal slice, reassembled in append order.
type sagaLog struct {
	id      string
	entries []JournalEntry
}

// Recover replays the write-ahead journal after a control-plane restart:
// committed attachments are rebuilt (and their fabric reservations
// re-asserted), parked sagas are re-parked for the reconciler, and every
// in-flight saga is resolved — rolled forward when the executor confirms
// the datapath attach completed, compensated otherwise, querying agents
// for ground truth so compensating detaches are only sent where
// configuration may actually exist. Run Reconcile afterwards to repair
// anything recovery could not correlate (e.g. a datapath attach whose ID
// never reached the journal).
func (s *Service) Recover() (RecoveryReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep RecoveryReport
	var rctx trace.SpanContext
	if s.elog != nil {
		rctx = s.newTraceCtx()
		s.cur = rctx
		s.emit(trace.LogEvent{Source: "recovery", Kind: trace.KindRecoveryBegin})
		defer func() {
			s.cur = rctx
			s.emit(trace.LogEvent{Source: "recovery", Kind: trace.KindRecoveryEnd})
			s.cur = trace.SpanContext{}
		}()
	}
	entries, err := s.journal.Entries()
	if err != nil {
		return rep, err
	}

	// Reassemble per-saga logs in first-seen order and restore the
	// monotonic counters (saga sequence, command epoch, network ID, journal
	// sequence) past everything the journal has seen.
	var logs []*sagaLog
	byID := make(map[string]*sagaLog)
	for _, e := range entries {
		if e.Seq > s.jseq {
			s.jseq = e.Seq
		}
		if e.Epoch > s.epoch {
			s.epoch = e.Epoch
		}
		if e.NetID >= s.nextNetID {
			s.nextNetID = e.NetID + 1
		}
		if n, ok := sagaSeq(e.SagaID); ok && n > s.sagaSeq {
			s.sagaSeq = n
		}
		l, ok := byID[e.SagaID]
		if !ok {
			l = &sagaLog{id: e.SagaID}
			byID[e.SagaID] = l
			logs = append(logs, l)
		}
		l.entries = append(l.entries, e)
	}

	for _, l := range logs {
		rep.SagasSeen++
		s.recoverSaga(l, &rep)
	}
	return rep, nil
}

// sagaSeq parses the numeric suffix of a saga ID.
func sagaSeq(id string) (uint64, bool) {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return 0, false
	}
	n, err := strconv.ParseUint(id[i+1:], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// recoverSaga resolves one saga's journal slice.
func (s *Service) recoverSaga(l *sagaLog, rep *RecoveryReport) {
	var begin *JournalEntry
	var terminal string
	var parkedEntry *JournalEntry
	intents := make(map[string]JournalEntry)
	dones := make(map[string]JournalEntry)
	for i := range l.entries {
		e := l.entries[i]
		switch e.Event {
		case EvBegin:
			begin = &l.entries[i]
		case EvIntent:
			intents[e.Step] = e
		case EvDone:
			dones[e.Step] = e
		case EvCommitted, EvAborted:
			terminal = e.Event
			if e.Event == EvCommitted {
				s.applyCommitted(l.id, begin, e, rep)
			}
		case EvParked:
			terminal = EvParked
			parkedEntry = &l.entries[i]
		}
	}
	if begin == nil {
		return
	}

	switch terminal {
	case EvCommitted:
		s.trackRecovered(l.id, begin.Op, "committed", committedExecID(l.entries), "")
		return
	case EvAborted:
		s.trackRecovered(l.id, begin.Op, "aborted", "", "")
		return
	case EvParked:
		// The saga's datapath work finished; only agent confirmations are
		// owed. Re-park for the reconciler. A parked detach already removed
		// its record and reservations in the live run, so undo what the
		// attach saga's committed entry restored above.
		if begin.Op == OpDetach {
			if rec, ok := s.attachments[parkedDetachExecID(l.entries)]; ok {
				s.model.ReleasePaths(rec.paths)
				delete(s.attachments, rec.ID)
			}
		}
		pending := make(map[string]string)
		for _, sh := range parkedEntry.Parked {
			if step, host, ok := strings.Cut(sh, "@"); ok {
				pending[step] = host
			}
		}
		if len(pending) > 0 {
			s.parked[l.id] = &parkedSaga{sagaID: l.id, op: begin.Op, attID: parkedEntry.AttID, pending: pending}
			s.ctrParked.Add(1)
			rep.Reparked++
		}
		s.trackRecovered(l.id, begin.Op, "parked", "", "")
		return
	}

	// In-flight saga: the control plane died mid-execution. Each replayed
	// saga gets its own trace so its compensation or roll-forward commands
	// reconstruct as one timeline.
	s.ctrRecoveryReplays.Add(1)
	var ctx trace.SpanContext
	if s.elog != nil {
		ctx = s.newTraceCtx()
		s.cur = ctx
		s.emit(trace.LogEvent{Source: "recovery", Kind: trace.KindRecoverySaga, Saga: l.id, Op: begin.Op})
	}
	switch begin.Op {
	case OpAttach:
		s.recoverAttach(l.id, begin, intents, dones, rep)
	case OpDetach:
		s.recoverDetach(l.id, begin, rep)
	}
	if s.elog != nil {
		if st, ok := s.sagas[l.id]; ok {
			st.Trace = ctx.Trace
		}
	}
}

// parkedDetachExecID extracts the exec ID of a parked detach saga from its
// begin entry.
func parkedDetachExecID(entries []JournalEntry) string {
	for _, e := range entries {
		if e.Event == EvBegin {
			return e.ExecID
		}
	}
	return ""
}

// committedExecID extracts the exec ID of a committed saga.
func committedExecID(entries []JournalEntry) string {
	for _, e := range entries {
		if e.Event == EvCommitted {
			return e.ExecID
		}
	}
	return ""
}

// applyCommitted replays a terminal committed entry: attach restores the
// attachment record (and re-asserts its reservations), detach removes it.
func (s *Service) applyCommitted(sagaID string, begin *JournalEntry, e JournalEntry, rep *RecoveryReport) {
	switch e.Op {
	case OpAttach:
		if begin == nil {
			return
		}
		paths := wireToPaths(e.Paths)
		rec := &AttachmentRecord{
			ID:          e.ExecID,
			SagaID:      sagaID,
			ComputeHost: e.Compute,
			DonorHost:   e.Donor,
			Bytes:       e.Bytes,
			Channels:    e.Channels,
			NUMANode:    e.NUMA,
			NetID:       e.NetID,
			paths:       paths,
		}
		for _, p := range paths {
			rec.PathLen = append(rec.PathLen, len(p.Vertices))
		}
		s.attachments[e.ExecID] = rec
		s.model.ReservePaths(paths)
		rep.Restored++
	case OpDetach:
		// A committed detach entry follows its attach's committed entry in
		// the journal, so the record (restored above) is removed again.
		if rec, ok := s.attachments[e.ExecID]; ok {
			s.model.ReleasePaths(rec.paths)
			delete(s.attachments, e.ExecID)
			rep.Restored--
		}
	}
}

// recoverAttach resolves an in-flight attach saga: roll forward when the
// executor confirms the datapath attach survived, compensate otherwise.
func (s *Service) recoverAttach(sagaID string, begin *JournalEntry, intents, dones map[string]JournalEntry, rep *RecoveryReport) {
	planDone, planned := dones[StepPlanPaths]
	paths := wireToPaths(planDone.Paths)
	execDone, execCompleted := dones[StepExecAttach]

	if execCompleted && s.execHas(execDone.ExecID) {
		// The datapath attach completed and survived: roll the saga
		// forward to committed.
		rec := &AttachmentRecord{
			ID:          execDone.ExecID,
			SagaID:      sagaID,
			ComputeHost: begin.Compute,
			DonorHost:   begin.Donor,
			Bytes:       begin.Bytes,
			Channels:    begin.Channels,
			NUMANode:    execDone.NUMA,
			NetID:       planDone.NetID,
			paths:       paths,
		}
		for _, p := range paths {
			rec.PathLen = append(rec.PathLen, len(p.Vertices))
		}
		s.attachments[execDone.ExecID] = rec
		s.model.ReservePaths(paths)
		s.append(JournalEntry{ //nolint:errcheck
			SagaID: sagaID, Op: OpAttach, Event: EvCommitted,
			Compute: begin.Compute, Donor: begin.Donor,
			Bytes: begin.Bytes, Channels: begin.Channels,
			NetID: planDone.NetID, Paths: planDone.Paths,
			ExecID: execDone.ExecID, NUMA: execDone.NUMA,
		})
		s.trackRecovered(sagaID, OpAttach, "committed", execDone.ExecID, "")
		rep.RolledForward++
		return
	}

	// Compensate. Agent ground truth decides where a detach is owed: an
	// intent whose command never arrived needs nothing, but we cannot tell
	// from the journal alone, so query and fall back to an idempotent
	// detach when in doubt.
	sg := &saga{id: sagaID, op: OpAttach, intents: map[string]bool{}, dones: map[string]bool{}}
	pending := make(map[string]string)
	if execCompleted && execDone.ExecID != "" {
		if err := s.exec.Detach(execDone.ExecID); err == nil {
			s.logCompensated(sg, StepExecAttach, "")
		}
	}
	if _, ok := intents[StepAttachCompute]; ok {
		if s.agentMayHold(begin.Compute, sagaID) {
			s.compensateAgent(sg, StepAttachCompute, begin.Compute, pending)
		}
	}
	if _, ok := intents[StepStealMemory]; ok {
		if s.agentMayHold(begin.Donor, sagaID) {
			s.compensateAgent(sg, StepStealMemory, begin.Donor, pending)
		}
	}
	if planned {
		s.model.ReleasePaths(paths)
		s.logCompensated(sg, StepPlanPaths, "")
	}
	s.ctrCompensations.Add(1)
	if len(pending) > 0 {
		s.park(sg, sagaID, pending)
		s.trackRecovered(sagaID, OpAttach, "parked", "", "")
	} else {
		s.append(JournalEntry{SagaID: sagaID, Op: OpAttach, Event: EvAborted, Err: "recovered: compensated after crash"}) //nolint:errcheck
		s.trackRecovered(sagaID, OpAttach, "aborted", "", "recovered: compensated after crash")
	}
	rep.Compensated++
}

// recoverDetach rolls an in-flight detach saga forward: the operator asked
// for the attachment to go away, so recovery finishes the job.
func (s *Service) recoverDetach(sagaID string, begin *JournalEntry, rep *RecoveryReport) {
	if s.execHas(begin.ExecID) {
		s.exec.Detach(begin.ExecID) //nolint:errcheck // unknown-ID means already gone
	}
	sg := &saga{id: sagaID, op: OpDetach}
	pending := make(map[string]string)
	for _, st := range []struct{ step, host string }{
		{StepDetachCompute, begin.Compute},
		{StepDetachDonor, begin.Donor},
	} {
		if !s.agentMayHold(st.host, begin.AttID) {
			continue
		}
		err := s.retrySaga(sg, func() error {
			return s.send(st.host, agent.Command{
				Kind: agent.CmdDetach, AttachmentID: begin.AttID, Epoch: s.nextEpoch(),
			})
		})
		if err != nil {
			pending[st.step] = st.host
		}
	}
	s.model.ReleasePaths(wireToPaths(begin.Paths))
	delete(s.attachments, begin.ExecID)
	if len(pending) > 0 {
		s.parked[sagaID] = &parkedSaga{sagaID: sagaID, op: OpDetach, attID: begin.AttID, pending: pending}
		s.ctrParked.Add(1)
		s.trackRecovered(sagaID, OpDetach, "parked", begin.ExecID, "")
	} else {
		s.append(JournalEntry{SagaID: sagaID, Op: OpDetach, Event: EvCommitted, ExecID: begin.ExecID}) //nolint:errcheck
		s.trackRecovered(sagaID, OpDetach, "committed", begin.ExecID, "")
	}
	rep.RolledForward++
}

// execHas queries the executor for attachment liveness.
func (s *Service) execHas(id string) bool {
	return id != "" && s.exec.HasAttachment(id)
}

// agentMayHold queries an agent for attachment configuration; true when
// the query fails (when in doubt, send the idempotent detach).
func (s *Service) agentMayHold(host, attID string) bool {
	st, err := s.transport.Query(host)
	if err != nil {
		return true
	}
	for _, a := range st.Attachments {
		if a.ID == attID {
			return true
		}
	}
	return false
}
