// Package agent implements the ThymesisFlow user-space node agent
// (Section IV-B): a per-host daemon that applies configuration commands
// received from the orchestration layer — donor-side memory stealing, or
// compute-side attachment (RMMU section mapping, routing-layer flow setup,
// and Linux memory hotplug of the new sections).
//
// Agents only accept configuration from a trusted control plane
// (Section IV-C): every command carries the control-plane token, and
// commands with an unknown token are rejected before touching hardware
// state.
//
// Because the transport between orchestrator and agent is lossy (commands
// may be dropped, duplicated, or retried after an ambiguous failure),
// command application is idempotent: commands carry an (AttachmentID,
// Epoch) pair and exact replays are acknowledged without being re-applied,
// while state-level no-ops (stealing memory that is already stolen for the
// same attachment, detaching an attachment the agent never configured or
// already tore down) succeed without mutating the configuration. The
// applied log therefore records each *effective* configuration change
// exactly once.
//
// An agent daemon can crash and restart, losing all volatile state
// (Restart). The control plane detects this through the incarnation
// counter reported by Status and re-pushes the configuration the agent
// should hold (see the controlplane reconciliation loop).
package agent

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"thymesisflow/internal/trace"
)

// CommandKind discriminates configuration commands.
type CommandKind string

// The command kinds an agent accepts.
const (
	CmdStealMemory   CommandKind = "steal-memory"
	CmdAttachCompute CommandKind = "attach-compute"
	CmdDetach        CommandKind = "detach"
)

// Command is one configuration push from the control plane.
type Command struct {
	Kind CommandKind
	// AttachmentID correlates the commands of one attachment. All saga
	// commands carry it; agents use it to deduplicate replays and to
	// materialize per-attachment state.
	AttachmentID string
	// Epoch is the control plane's monotonic command counter. A retry of a
	// command re-sends the same epoch, so the agent can tell a replay
	// (same AttachmentID, Kind, Epoch — acknowledge, do not re-apply) from
	// a genuinely new command.
	Epoch uint64
	// Bytes is the memory amount (steal / attach).
	Bytes int64
	// Channels is the channel count for compute attachment.
	Channels int
	// NetworkID is the active-thymesisflow identifier.
	NetworkID uint16
	// DonorBase is the donor effective address of the stolen region.
	DonorBase uint64
	// Trace and Span propagate the control plane's span context across the
	// transport, so agent-side handling lands in the same saga trace. Zero
	// when tracing is off.
	Trace trace.TraceID
	Span  trace.SpanID
}

// dedupeKey identifies one exact command instance for replay suppression.
type dedupeKey struct {
	att   string
	kind  CommandKind
	epoch uint64
}

// AttachmentStatus is the agent's materialized configuration for one
// attachment, reported to the control plane for reconciliation.
type AttachmentStatus struct {
	ID              string `json:"id"`
	StolenBytes     int64  `json:"stolen_bytes,omitempty"`
	ComputeAttached bool   `json:"compute_attached,omitempty"`
	Channels        int    `json:"channels,omitempty"`
	NetworkID       uint16 `json:"network_id"`
}

// Status is the agent's ground-truth report: which incarnation of the
// daemon is running and what configuration it currently holds. The
// control plane's reconciliation loop diffs this against its records.
type Status struct {
	Host        string             `json:"host"`
	Incarnation int                `json:"incarnation"`
	Attachments []AttachmentStatus `json:"attachments,omitempty"`
}

// Agent is one node's configuration daemon.
type Agent struct {
	mu      sync.Mutex
	host    string
	trusted string // control-plane token

	incarnation int
	applied     []Command
	rejected    int
	deduped     int

	// state is the materialized per-attachment configuration, rebuilt
	// from effective commands. seen suppresses exact replays.
	state map[string]*AttachmentStatus
	seen  map[dedupeKey]struct{}

	// elog records agent-side command handling into the control plane's
	// saga event log (nil = tracing off; every use is nil-guarded so the
	// disabled path stays allocation-free).
	elog *trace.EventLog
	wall trace.WallClock
}

// New returns an agent for the named host trusting the given control-plane
// token.
func New(host, trustedToken string) *Agent {
	return &Agent{
		host:    host,
		trusted: trustedToken,
		state:   make(map[string]*AttachmentStatus),
		seen:    make(map[dedupeKey]struct{}),
	}
}

// Host returns the host this agent manages.
func (a *Agent) Host() string { return a.host }

// SetEventLog joins this agent to the control plane's saga event log: every
// traced command (cmd.Trace != 0) records its agent-side outcome — applied,
// deduplicated, or rejected — into the same trace. A nil log disables.
func (a *Agent) SetEventLog(l *trace.EventLog, clock trace.WallClock) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.elog = l
	a.wall = clock
	if l != nil && clock == nil {
		a.wall = trace.Monotonic()
	}
}

// Apply validates and applies a configuration command. Untrusted pushes are
// rejected: no malicious software may install illegal forwarding
// configurations (Section IV-C). Application is idempotent: exact replays
// (same AttachmentID, Kind, Epoch) and state-level no-ops are acknowledged
// without mutating configuration or the applied log.
func (a *Agent) Apply(token string, cmd Command) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.elog == nil || cmd.Trace == 0 {
		return a.applyLocked(token, cmd)
	}
	preDeduped, preRejected := a.deduped, a.rejected
	err := a.applyLocked(token, cmd)
	ev := trace.LogEvent{
		WallNS: a.wall(),
		Trace:  cmd.Trace,
		Span:   cmd.Span,
		Source: "agent",
		Kind:   trace.KindAgentApply,
		Saga:   cmd.AttachmentID,
		Step:   string(cmd.Kind),
		Host:   a.host,
	}
	switch {
	case a.rejected > preRejected:
		ev.Kind = trace.KindAgentReject
	case a.deduped > preDeduped:
		ev.Kind = trace.KindAgentDedupe
	}
	if err != nil {
		ev.Err = err.Error()
	}
	a.elog.Append(ev)
	return err
}

// applyLocked holds the command-application logic; a.mu must be held.
func (a *Agent) applyLocked(token string, cmd Command) error {
	if token != a.trusted {
		a.rejected++
		return fmt.Errorf("agent %s: configuration push with untrusted token rejected", a.host)
	}
	switch cmd.Kind {
	case CmdStealMemory, CmdAttachCompute, CmdDetach:
	default:
		a.rejected++
		return fmt.Errorf("agent %s: unknown command kind %q", a.host, cmd.Kind)
	}
	if cmd.Kind != CmdDetach && cmd.Bytes <= 0 {
		a.rejected++
		return fmt.Errorf("agent %s: %s with non-positive size", a.host, cmd.Kind)
	}

	// Uncorrelated commands (no AttachmentID) keep the legacy append-only
	// behaviour: nothing to deduplicate against.
	if cmd.AttachmentID == "" {
		a.applied = append(a.applied, cmd)
		return nil
	}

	key := dedupeKey{att: cmd.AttachmentID, kind: cmd.Kind, epoch: cmd.Epoch}
	if _, replay := a.seen[key]; replay {
		a.deduped++
		return nil
	}
	a.seen[key] = struct{}{}

	st := a.state[cmd.AttachmentID]
	switch cmd.Kind {
	case CmdStealMemory:
		if st != nil && st.StolenBytes > 0 {
			a.deduped++ // already stolen for this attachment: no-op
			return nil
		}
		if st == nil {
			st = &AttachmentStatus{ID: cmd.AttachmentID}
			a.state[cmd.AttachmentID] = st
		}
		st.StolenBytes = cmd.Bytes
		st.NetworkID = cmd.NetworkID
	case CmdAttachCompute:
		if st != nil && st.ComputeAttached {
			a.deduped++
			return nil
		}
		if st == nil {
			st = &AttachmentStatus{ID: cmd.AttachmentID}
			a.state[cmd.AttachmentID] = st
		}
		st.ComputeAttached = true
		st.Channels = cmd.Channels
		st.NetworkID = cmd.NetworkID
	case CmdDetach:
		if st == nil {
			a.deduped++ // never configured (or already detached): no-op
			return nil
		}
		delete(a.state, cmd.AttachmentID)
	}
	a.applied = append(a.applied, cmd)
	return nil
}

// Restart simulates a crash-restart of the agent daemon: all volatile
// state — the applied log, the replay-suppression table, and the
// materialized configuration — is lost, and the incarnation counter
// advances so the control plane can detect the resurrection and re-push
// the configuration this host should hold.
func (a *Agent) Restart() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.incarnation++
	a.applied = nil
	a.rejected = 0
	a.deduped = 0
	a.state = make(map[string]*AttachmentStatus)
	a.seen = make(map[dedupeKey]struct{})
}

// Incarnation returns the number of times the agent has crash-restarted.
func (a *Agent) Incarnation() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.incarnation
}

// Status reports the agent's incarnation and materialized configuration,
// sorted by attachment ID for deterministic reconciliation sweeps.
func (a *Agent) Status() Status {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := Status{Host: a.host, Incarnation: a.incarnation}
	if len(a.state) > 0 {
		st.Attachments = make([]AttachmentStatus, 0, len(a.state))
	}
	for _, s := range a.state {
		st.Attachments = append(st.Attachments, *s)
	}
	slices.SortFunc(st.Attachments, func(x, y AttachmentStatus) int {
		return strings.Compare(x.ID, y.ID)
	})
	return st
}

// Holds reports the agent's configuration for one attachment.
func (a *Agent) Holds(attachmentID string) (AttachmentStatus, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.state[attachmentID]
	if !ok {
		return AttachmentStatus{}, false
	}
	return *st, true
}

// Applied returns a copy of the effective command log.
func (a *Agent) Applied() []Command {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Command(nil), a.applied...)
}

// Rejected returns the count of rejected pushes.
func (a *Agent) Rejected() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rejected
}

// Deduped returns the count of commands acknowledged without application:
// exact replays of an already-applied (AttachmentID, Kind, Epoch) and
// state-level no-ops (re-steal, detach of an unknown attachment).
func (a *Agent) Deduped() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.deduped
}
