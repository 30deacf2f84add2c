package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Control-plane trace analysis: reconstructs saga timelines from the typed
// event log and aggregates them into per-operation critical-path profiles
// ("attach p99 = journal 40% + agent retry 55%"). This is the engine behind
// GET /v1/sagas/{id}/trace and `tftrace -cp`.

// Typed lifecycle kinds recorded by the control plane. The emitting sites
// live in internal/controlplane and internal/agent; the names are part of
// the event-log schema (docs/OBSERVABILITY.md).
const (
	KindSagaBegin  = "saga_begin"
	KindSagaCommit = "saga_commit"
	KindSagaAbort  = "saga_abort"
	KindSagaPark   = "saga_park"
	KindSagaCrash  = "saga_crash"

	KindStepStart = "step_start"
	KindStepRun   = "step_run" // step body finished (local/executor work)
	KindStepDone  = "step_done"
	KindStepFail  = "step_fail"

	KindJournalAppend = "journal_append"

	KindCmdSend  = "cmd_send"
	KindCmdAck   = "cmd_ack"
	KindCmdFail  = "cmd_fail"
	KindCmdRetry = "cmd_retry" // emitted after the backoff sleep

	KindCompensate = "compensate"

	KindRecoveryBegin = "recovery_begin"
	KindRecoverySaga  = "recovery_saga"
	KindRecoveryEnd   = "recovery_end"

	KindReconcileBegin  = "reconcile_begin"
	KindReconcileRepair = "reconcile_repair"
	KindReconcileEnd    = "reconcile_end"

	KindAgentApply  = "agent_apply"
	KindAgentDedupe = "agent_dedupe"
	KindAgentReject = "agent_reject"
)

// StageCategory buckets an event kind into the stage its preceding interval
// is charged to. The timeline is tiled: the time between two consecutive
// events of a trace belongs to whatever completed at the second event, so
// the stage durations of a saga sum exactly to its end-to-end wall time.
func StageCategory(kind string) string {
	switch kind {
	case KindJournalAppend:
		return "journal"
	case KindCmdAck, KindCmdFail, KindAgentApply, KindAgentDedupe, KindAgentReject:
		return "agent"
	case KindCmdRetry:
		return "backoff"
	case KindStepRun:
		return "run"
	default:
		return "engine"
	}
}

// StageSpan is one aggregated stage of a saga (or of an operation profile).
type StageSpan struct {
	Name  string  `json:"name"`
	DurNS int64   `json:"dur_ns"`
	Pct   float64 `json:"pct"`
}

// SagaTrace is the reconstructed timeline of one saga.
type SagaTrace struct {
	Saga    string      `json:"saga"`
	Trace   TraceID     `json:"trace"`
	Op      string      `json:"op,omitempty"`
	State   string      `json:"state"` // committed | aborted | parked | running
	StartNS int64       `json:"start_ns"`
	EndNS   int64       `json:"end_ns"`
	TotalNS int64       `json:"total_ns"`
	Events  int         `json:"events"`
	Stages  []StageSpan `json:"stages"` // sorted by descending duration, then name; sums to TotalNS
}

// BuildSagaTrace reconstructs one saga's timeline from the events of a
// single trace (as returned by EventLog.SnapshotTrace). Events must be in
// append order. The stage durations tile [StartNS, EndNS] exactly:
// sum(Stages[i].DurNS) == TotalNS.
func BuildSagaTrace(events []LogEvent) SagaTrace {
	var st SagaTrace
	if len(events) == 0 {
		return st
	}
	st.Trace = events[0].Trace
	st.StartNS = events[0].WallNS
	st.EndNS = events[len(events)-1].WallNS
	st.TotalNS = st.EndNS - st.StartNS
	st.Events = len(events)
	st.State = "running"
	byCat := map[string]int64{}
	for i, e := range events {
		if st.Saga == "" && e.Saga != "" {
			st.Saga = e.Saga
		}
		if st.Op == "" && e.Op != "" {
			st.Op = e.Op
		}
		switch e.Kind {
		case KindSagaCommit:
			st.State = "committed"
		case KindSagaAbort:
			st.State = "aborted"
		case KindSagaPark:
			st.State = "parked"
		case KindSagaCrash:
			st.State = "crashed"
		}
		if i == 0 {
			continue
		}
		byCat[StageCategory(e.Kind)] += e.WallNS - events[i-1].WallNS
	}
	st.Stages = make([]StageSpan, 0, len(byCat))
	for name, dur := range byCat {
		s := StageSpan{Name: name, DurNS: dur}
		if st.TotalNS > 0 {
			s.Pct = 100 * float64(dur) / float64(st.TotalNS)
		}
		st.Stages = append(st.Stages, s)
	}
	sortStages(st.Stages)
	return st
}

// BuildSagaTraces groups a full event-log snapshot by trace ID and
// reconstructs every saga timeline, ordered by first appearance.
func BuildSagaTraces(events []LogEvent) []SagaTrace {
	order := make([]TraceID, 0, 16)
	byTrace := map[TraceID][]LogEvent{}
	for _, e := range events {
		if e.Trace == 0 {
			continue
		}
		if _, ok := byTrace[e.Trace]; !ok {
			order = append(order, e.Trace)
		}
		byTrace[e.Trace] = append(byTrace[e.Trace], e)
	}
	out := make([]SagaTrace, 0, len(order))
	for _, id := range order {
		out = append(out, BuildSagaTrace(byTrace[id]))
	}
	return out
}

// OpProfile aggregates every saga of one operation into a critical-path
// profile: end-to-end latency percentiles plus the stage mix.
type OpProfile struct {
	Op      string      `json:"op"`
	Count   int         `json:"count"`
	TotalNS int64       `json:"total_ns"`
	MeanNS  float64     `json:"mean_ns"`
	P50NS   int64       `json:"p50_ns"`
	P99NS   int64       `json:"p99_ns"`
	MaxNS   int64       `json:"max_ns"`
	Stages  []StageSpan `json:"stages"`
}

// ProfileSagas rolls saga timelines up by operation, sorted by op name.
func ProfileSagas(traces []SagaTrace) []OpProfile {
	byOp := map[string][]SagaTrace{}
	ops := []string{}
	for _, t := range traces {
		op := t.Op
		if op == "" {
			op = "unknown"
		}
		if _, ok := byOp[op]; !ok {
			ops = append(ops, op)
		}
		byOp[op] = append(byOp[op], t)
	}
	sort.Strings(ops)
	out := make([]OpProfile, 0, len(ops))
	for _, op := range ops {
		ts := byOp[op]
		p := OpProfile{Op: op, Count: len(ts)}
		durs := make([]int64, 0, len(ts))
		byCat := map[string]int64{}
		for _, t := range ts {
			p.TotalNS += t.TotalNS
			durs = append(durs, t.TotalNS)
			for _, s := range t.Stages {
				byCat[s.Name] += s.DurNS
			}
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		p.MeanNS = float64(p.TotalNS) / float64(len(durs))
		p.P50NS = nearestRank(durs, 0.5)
		p.P99NS = nearestRank(durs, 0.99)
		p.MaxNS = durs[len(durs)-1]
		p.Stages = make([]StageSpan, 0, len(byCat))
		for name, dur := range byCat {
			s := StageSpan{Name: name, DurNS: dur}
			if p.TotalNS > 0 {
				s.Pct = 100 * float64(dur) / float64(p.TotalNS)
			}
			p.Stages = append(p.Stages, s)
		}
		sortStages(p.Stages)
		out = append(out, p)
	}
	return out
}

func sortStages(ss []StageSpan) {
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].DurNS != ss[j].DurNS {
			return ss[i].DurNS > ss[j].DurNS
		}
		return ss[i].Name < ss[j].Name
	})
}

// eventLogDoc mirrors the GET /v1/events response shape.
type eventLogDoc struct {
	Events []LogEvent `json:"events"`
}

// ParseEventLog re-ingests a control-plane event log: either a bare JSON
// array of events or the /v1/events response object. Events are returned in
// sequence order.
func ParseEventLog(r io.Reader) ([]LogEvent, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: read event log: %w", err)
	}
	var events []LogEvent
	if err := json.Unmarshal(data, &events); err != nil {
		var doc eventLogDoc
		if err2 := json.Unmarshal(data, &doc); err2 != nil {
			return nil, fmt.Errorf("trace: parse event log: %w", err)
		}
		events = doc.Events
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Seq < events[j].Seq })
	return events, nil
}
