package controlplane

import (
	"net/http"
	"strconv"

	"thymesisflow/internal/agent"
	"thymesisflow/internal/trace"
)

// Saga tracing: span-based distributed tracing through the control plane.
// Every saga gets a TraceID; every step, journal append, command send/ack/
// retry, compensation, recovery replay, and reconcile repair lands in a
// bounded structured event log as a typed LogEvent carrying that trace, and
// the agent-side handling of commands joins the same trace via the
// (Trace, Span) fields propagated on agent.Command.
//
// Tracing is off by default and the disabled path is allocation-free on the
// saga hot path: every emission site is guarded by a nil check on s.elog
// (benchmarked by BenchmarkSagaAttachDetach, snapshotted in BENCH_PR7.json).
// The event timestamps are monotonic wall-clock nanoseconds from an
// injectable clock — trace.Monotonic in production, trace.StepClock in
// tests and seeded chaos runs so timelines are byte-stable.

// EnableSagaTracing switches saga tracing on with a bounded event log of the
// given capacity (trace.DefaultEventLogCapacity if <= 0) on the production
// monotonic clock, and returns the log. Call before RegisterAgent so agents
// join the same log.
func (s *Service) EnableSagaTracing(capacity int) *trace.EventLog {
	log := trace.NewEventLog(capacity)
	s.SetSagaTracing(log, trace.Monotonic())
	return log
}

// SetSagaTracing installs an event log and wall clock (nil log disables).
// Tests and chaos runs pass trace.StepClock for deterministic timelines.
//
// The log may already hold events from a previous Service incarnation (chaos
// crash-restart scenarios share one world-scoped log across orchestrator
// processes); the new Service continues the trace/span ID sequence past the
// log's high-water mark so restarted processes never reuse a live trace ID.
func (s *Service) SetSagaTracing(log *trace.EventLog, clock trace.WallClock) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.elog = log
	s.registerHealth(log, nil, nil)
	s.wall = clock
	if log != nil && clock == nil {
		s.wall = trace.Monotonic()
	}
	if log != nil {
		// IDs grow monotonically, so the high-water mark survives ring
		// eviction: it is always among the retained tail.
		for _, e := range log.Snapshot() {
			if uint64(e.Trace) > s.traceSeq {
				s.traceSeq = uint64(e.Trace)
			}
			for _, id := range []trace.SpanID{e.Span, e.Parent} {
				if uint64(id) > s.spanSeq {
					s.spanSeq = uint64(id)
				}
			}
		}
	}
	if reg, ok := s.transport.(interface{ AgentList() []*agent.Agent }); ok && log != nil {
		for _, a := range reg.AgentList() {
			a.SetEventLog(log, s.wall)
		}
	}
}

// EventLog returns the configured saga event log (nil when tracing is off).
func (s *Service) EventLog() *trace.EventLog {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.elog
}

// newTraceCtx allocates a fresh root span context (caller holds s.mu).
func (s *Service) newTraceCtx() trace.SpanContext {
	s.traceSeq++
	s.spanSeq++
	return trace.SpanContext{Trace: trace.TraceID(s.traceSeq), Span: trace.SpanID(s.spanSeq)}
}

// childSpan allocates a child span of parent (caller holds s.mu).
func (s *Service) childSpan(parent trace.SpanContext) trace.SpanContext {
	s.spanSeq++
	return trace.SpanContext{Trace: parent.Trace, Span: trace.SpanID(s.spanSeq), Parent: parent.Span}
}

// emit stamps the current span context and wall clock onto e and appends it.
// Callers must have checked s.elog != nil (the guard keeps the disabled path
// allocation-free; emit itself is only reached when tracing is on).
func (s *Service) emit(e trace.LogEvent) {
	e.Trace = s.cur.Trace
	e.Span = s.cur.Span
	e.Parent = s.cur.Parent
	if e.WallNS == 0 {
		e.WallNS = s.wall()
	}
	s.elog.Append(e)
}

// send delivers one agent command over the transport. With tracing on, the
// command is stamped with the current span context — so the agent-side
// handling joins the saga's trace — and send/ack/fail events are recorded.
// With tracing off this is exactly s.transport.Send (no allocations).
func (s *Service) send(host string, cmd agent.Command) error {
	if s.elog == nil {
		return s.transport.Send(host, s.token, cmd)
	}
	cmd.Trace = s.cur.Trace
	cmd.Span = s.cur.Span
	s.emit(trace.LogEvent{Source: "transport", Kind: trace.KindCmdSend, Host: host, Step: string(cmd.Kind), Saga: cmd.AttachmentID})
	t0 := s.wall()
	err := s.transport.Send(host, s.token, cmd)
	ev := trace.LogEvent{Source: "transport", Kind: trace.KindCmdAck, Host: host, Step: string(cmd.Kind), Saga: cmd.AttachmentID, DurNS: s.wall() - t0}
	if err != nil {
		ev.Kind = trace.KindCmdFail
		ev.Err = err.Error()
	}
	s.emit(ev)
	return err
}

// SagaTraceByID reconstructs the timeline of one saga from the event log.
// ok is false when tracing is off, the saga is unknown, or its trace has no
// retained events.
func (s *Service) SagaTraceByID(id string) (trace.SagaTrace, []trace.LogEvent, bool) {
	s.mu.Lock()
	elog := s.elog
	var tid trace.TraceID
	if st, found := s.sagas[id]; found {
		tid = st.Trace
	}
	s.mu.Unlock()
	if elog == nil || tid == 0 {
		return trace.SagaTrace{}, nil, false
	}
	events := elog.SnapshotTrace(tid)
	if len(events) == 0 {
		return trace.SagaTrace{}, nil, false
	}
	return trace.BuildSagaTrace(events), events, true
}

// eventsView is the JSON shape of GET /v1/events.
type eventsView struct {
	Recorded uint64           `json:"recorded"`
	Dropped  uint64           `json:"dropped"`
	Events   []trace.LogEvent `json:"events"`
}

// handleEvents serves the structured control-plane event log. Reader-gated,
// like /v1/sagas: the events expose saga lifecycle, not tenant payloads.
// ?n=K returns only the most recent K events.
func (a *API) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	if !a.authorize(w, r, RoleReader) {
		return
	}
	elog := a.svc.EventLog()
	if elog == nil {
		writeErr(w, http.StatusNotFound, "saga tracing not configured")
		return
	}
	events := elog.Snapshot()
	if ns := r.URL.Query().Get("n"); ns != "" {
		n, err := strconv.Atoi(ns)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad n parameter")
			return
		}
		if n < len(events) {
			events = events[len(events)-n:]
		}
	}
	writeJSON(w, http.StatusOK, eventsView{
		Recorded: elog.Recorded(),
		Dropped:  elog.Dropped(),
		Events:   events,
	})
}

// sagaTraceView is the JSON shape of GET /v1/sagas/{id}/trace: the
// reconstructed timeline plus the raw events behind it.
type sagaTraceView struct {
	Trace  trace.SagaTrace  `json:"trace"`
	Events []trace.LogEvent `json:"events"`
}

// handleSagaTrace serves one saga's reconstructed timeline.
func (a *API) handleSagaTrace(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	if !a.authorize(w, r, RoleReader) {
		return
	}
	st, events, ok := a.svc.SagaTraceByID(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no trace for saga (tracing off, unknown saga, or events evicted)")
		return
	}
	writeJSON(w, http.StatusOK, sagaTraceView{Trace: st, Events: events})
}
