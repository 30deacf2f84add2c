package controlplane

import "net/http"

// Reconciler liveness states tracked in Service.reconState.
const (
	reconDisabled int32 = iota
	reconRunning
	reconStopped
)

// Readiness is the JSON shape of GET /v1/readyz: the dependency checks a
// load balancer or orchestrator gates traffic on. The daemon is ready when
// the journal accepted its last append, the reconciler (if ever started) is
// still running, and every registered agent answers a status query.
type Readiness struct {
	Ready             bool     `json:"ready"`
	Journal           string   `json:"journal"`    // "ok" or the last append error
	Reconciler        string   `json:"reconciler"` // running | disabled | stopped
	AgentsTotal       int      `json:"agents_total"`
	AgentsUnreachable []string `json:"agents_unreachable,omitempty"`
}

// Readiness evaluates the dependency checks. Agent queries run outside the
// service lock: the transport serializes against the agents itself, and a
// slow agent must not block the saga engine.
func (s *Service) Readiness() Readiness {
	s.mu.Lock()
	journalErr := s.lastJournalErr
	transport := s.transport
	s.mu.Unlock()

	r := Readiness{Ready: true, Journal: "ok"}
	if journalErr != "" {
		r.Journal = journalErr
		r.Ready = false
	}
	switch s.reconState.Load() {
	case reconRunning:
		r.Reconciler = "running"
	case reconStopped:
		r.Reconciler = "stopped"
		r.Ready = false
	default:
		// Never started: a valid configuration (tfd without
		// -reconcile-interval), not a failure.
		r.Reconciler = "disabled"
	}
	hosts := transport.Hosts()
	r.AgentsTotal = len(hosts)
	for _, h := range hosts {
		if err := transport.Reach(h); err != nil {
			r.AgentsUnreachable = append(r.AgentsUnreachable, h)
		}
	}
	if len(r.AgentsUnreachable) > 0 {
		r.Ready = false
	}
	return r
}

// handleHealthz is the unauthenticated liveness probe: it answers 200 as
// long as the process serves HTTP. No state is revealed, so no auth — load
// balancers and init systems probe it without credentials.
func (a *API) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the reader-gated readiness probe: 200 with the check
// detail when every dependency is healthy, 503 otherwise.
func (a *API) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	if !a.authorize(w, r, RoleReader) {
		return
	}
	rd := a.svc.Readiness()
	status := http.StatusOK
	if !rd.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, rd)
}
